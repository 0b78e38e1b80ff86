package mc

import (
	"fmt"
	"sort"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// The session-snapshot surface: exporting a label-based checker's warm
// state (the interned label tables plus the labels of the states the
// class connects) and rebuilding a checker from it without repeating the
// initial labeling. Labels are structure-independent valuation sets, so
// they serialize as raw [2]uint64 words; per-state labels serialize as
// IDs into the exporting table and are re-interned on restore (IDs are
// private to a table, so a restore into a shared, already-populated table
// remaps them).

// Export returns the table's current id->label view. The slice and the
// labels it holds are shared with the table and must not be mutated;
// index i is the label of LabelID(i).
func (t *LabelTable) Export() [][]ltl.Valuation { return t.snapshot() }

// Table returns the shared label table for spec, creating the entry on
// first use (so a restore can pre-populate warmth before any checker is
// built over it).
func (w *Warmth) Table(spec *ltl.Formula) (*LabelTable, error) {
	e, err := w.entry(spec)
	if err != nil {
		return nil, err
	}
	return e.tab, nil
}

// ForEach calls fn for every cached formula in sorted key order (the
// formula's String form), so snapshot encoders emit deterministically.
func (w *Warmth) ForEach(fn func(formula string, tab *LabelTable)) {
	w.mu.Lock()
	keys := make([]string, 0, len(w.entries))
	for k := range w.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tabs := make([]*LabelTable, len(keys))
	for i, k := range keys {
		tabs[i] = w.entries[k].tab
	}
	w.mu.Unlock()
	for i, k := range keys {
		fn(k, tabs[i])
	}
}

// LabelOf returns the interned label of state id — stored or, for an
// isolated or not yet labeled sink, derived from its atom valuation,
// which may intern it: a snapshot encoder asks for every label it will
// write before it exports the table.
func (l *labeler) LabelOf(id int) LabelID { return l.labelOf(id) }

// NewIncrementalRestored is NewIncrementalWarm fed a snapshot labeling:
// labels[i] is installed as the label of state ids[i] instead of being
// computed, for every state the class connects (any other state's label
// is derived on demand), and the violating-initial set is re-derived from
// the labels (a scan of the initial states only). The labels must index
// the warmth table of spec — i.e. they were remapped by the snapshot
// decoder if the table is shared. The cost is the states listed.
func NewIncrementalRestored(k *kripke.K, spec *ltl.Formula, w *Warmth, ids []int, labels []LabelID) (Checker, error) {
	l, err := newLabelerWarm(k, spec, w)
	if err != nil {
		return nil, err
	}
	if len(labels) != len(ids) {
		return nil, fmt.Errorf("mc: restore: %d labels for %d states", len(labels), len(ids))
	}
	max := LabelID(l.tab.Len())
	for i, id := range ids {
		if id < 0 || id >= k.NumStates() {
			return nil, fmt.Errorf("mc: restore: state %d out of range", id)
		}
		if labels[i] < 0 || labels[i] >= max {
			return nil, fmt.Errorf("mc: restore: state %d label %d out of range [0,%d)", id, labels[i], max)
		}
		l.store(id, labels[i])
	}
	return newIncrementalPrelabeled(l), nil
}
