package mc

import (
	"sync"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// Warmth is the structure-independent cache a long-lived synthesis
// session shares across checkers and across syntheses: expanded LTL
// closures with their atom masks, interned label tables and sink-label
// memos, keyed by formula text. Label sets are sets of closure valuations
// — they carry no reference to any particular Kripke structure — so every
// checker verifying the same formula can intern into one table, and a
// checker built over a fresh or rebound structure starts with every label
// it will ever compute already interned. A nil *Warmth is valid and means "no
// sharing": each checker builds private state, the one-shot behavior.
//
// Concurrency: the entry map is guarded by a mutex (construction-time
// only); the cached closures are immutable and the label tables and sink
// memos are internally synchronized, so the checkers of concurrently
// searched components, and of sessions sharing a Warmth, use them freely.
type Warmth struct {
	mu      sync.Mutex
	entries map[string]*warmEntry
}

type warmEntry struct {
	clo   *ltl.Closure
	where *atomMasks
	tab   *LabelTable
	sinks *sinkMemo
}

// sinkMemo maps an atom valuation to the interned label of a sink state
// carrying it. A sink's label is {Closure.Sink(atoms)} — a function of
// the valuation alone — and a class structure is mostly sinks that share
// a handful of valuations, so the closure is evaluated once per distinct
// valuation per formula rather than once per sink state per checker. The
// ids index the label table the memo sits beside.
type sinkMemo struct {
	mu sync.Mutex
	m  map[ltl.Valuation]LabelID
}

func newSinkMemo() *sinkMemo { return &sinkMemo{m: map[ltl.Valuation]LabelID{}} }

// NewWarmth returns an empty cache.
func NewWarmth() *Warmth { return &Warmth{entries: map[string]*warmEntry{}} }

// Len reports the number of distinct formulas cached so far.
func (w *Warmth) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// entry returns the shared closure and label table for spec, building
// them on first use.
func (w *Warmth) entry(spec *ltl.Formula) (*warmEntry, error) {
	key := spec.String()
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[key]; ok {
		return e, nil
	}
	clo, err := ltl.NewClosure(spec)
	if err != nil {
		return nil, err
	}
	e := &warmEntry{clo: clo, where: newAtomMasks(clo), tab: NewLabelTable(), sinks: newSinkMemo()}
	w.entries[key] = e
	return e, nil
}

// NewIncrementalWarm is NewIncremental drawing the closure and label
// table from w.
func NewIncrementalWarm(k *kripke.K, spec *ltl.Formula, w *Warmth) (Checker, error) {
	l, err := newLabelerWarm(k, spec, w)
	if err != nil {
		return nil, err
	}
	return newIncrementalFrom(l), nil
}
