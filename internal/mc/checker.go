// Package mc implements the LTL model checkers of Section 5: state
// labeling with maximally-consistent sets of the extended closure
// (following Wolper-Vardi-Sistla), an incremental checker that relabels
// only the ancestors of updated states, and a batch variant that relabels
// the whole structure on every call. Both operate on the complete,
// DAG-like network Kripke structures built by package kripke.
package mc

import (
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// Verdict is the outcome of a model-checking call.
type Verdict struct {
	OK bool
	// Cex is a violating trace prefix (state ids, from an initial state to
	// a sink) when OK is false and the checker supports counterexamples.
	Cex []int
	// HasCex reports whether this checker produces counterexamples at all
	// (NetPlumber-style checkers do not).
	HasCex bool
}

// Token is an opaque undo token returned by Update and consumed by Revert.
type Token interface{}

// Checker verifies one traffic class's Kripke structure against one LTL
// formula across a sequence of switch updates. Implementations:
// Incremental (the paper's contribution), Batch, the automaton-theoretic
// checker in package buchi (NuSMV stand-in), and the header-space checker
// in package hsa (NetPlumber stand-in).
type Checker interface {
	// Name identifies the checker in benchmark output.
	Name() string
	// Check performs a full check of the current structure.
	Check() Verdict
	// Update re-checks after the Kripke structure was updated with the
	// given delta (see kripke.K.UpdateSwitch). The returned token undoes
	// the checker's internal state when the update is reverted.
	Update(delta *kripke.Delta) (Verdict, Token)
	// Revert undoes a previous Update's effect on internal state. Tokens
	// must be reverted in LIFO order. The caller separately reverts the
	// Kripke structure itself.
	Revert(t Token)
	// Stats returns cumulative work counters for benchmark reporting.
	Stats() Stats
}

// Stats counts the work a checker has performed. The labeling backends
// additionally report allocation and relabeling counters: LabelsInterned
// is the number of distinct label sets this checker added to its intern
// table (the only steady-state source of label allocations), and the
// Extend counters expose the hit rate of the per-state closure-extension
// memo.
type Stats struct {
	Checks         int // model-checking calls
	StatesLabeled  int // state (re)labelings performed
	Relabels       int // incremental label recomputations that changed a label
	LabelsInterned int // distinct label sets added to the intern table
	ExtendHits     int // closure-extension memo hits
	ExtendMisses   int // closure-extension memo misses (full Extend runs)
}

// Factory constructs a checker for a structure/formula pair; the synthesis
// engine uses one checker per traffic class.
type Factory func(k *kripke.K, spec *ltl.Formula) (Checker, error)

// Stateless marks checkers that keep no internal state across updates:
// Update is equivalent to a fresh Check of the current structure and
// Revert is a no-op. When a search worker replays a prefix whose verdict
// is already known, it may update the Kripke structure and skip a
// Stateless checker's re-check entirely.
type Stateless interface {
	// StatelessMC is a marker; implementations do nothing.
	StatelessMC()
}

// Rebindable is implemented by every backend that can survive its Kripke
// structure being rebound in place to a different configuration (see
// kripke.K.Rebind): Rebind re-derives whatever internal bookkeeping
// depends on the transition relation while keeping the warm,
// structure-independent caches — interned labels, closure-extension
// memos, translated automata — alive across syntheses. It is the entry
// point long-lived sessions use instead of rebuilding checkers per run.
// Outstanding undo tokens and clones taken before a Rebind are
// invalidated and must not be used afterwards.
type Rebindable interface {
	// Rebind refreshes the checker after arbitrary in-place changes to
	// the structure it was built on.
	Rebind()
}

// DeltaInvariant marks checkers whose observable verdict is a function of
// the class Kripke structure alone: an update whose delta is empty (no
// transition of the class changed) cannot change their answer, so the
// synthesis engine may skip the Update/verdict round-trip entirely and
// count a class skip. The header-space backend tracks raw rule tables —
// it must see every table replacement, empty delta or not — and therefore
// does not implement this.
type DeltaInvariant interface {
	// DeltaInvariantMC is a marker; implementations do nothing.
	DeltaInvariantMC()
}

// Cloneable is implemented by checkers that can duplicate themselves for a
// clone of their Kripke structure (see kripke.K.Clone). The clone carries
// over the current labeling/bookkeeping where the backend keeps any, so it
// is cheaper than rebuilding via the Factory; backends for which cloning
// is impractical rebuild internally instead. Clones share only immutable
// data with the original and may be used concurrently with it.
type Cloneable interface {
	// CloneFor returns an independent checker over k2, which must be a
	// clone of the structure this checker was built on, taken at the same
	// table state.
	CloneFor(k2 *kripke.K) (Checker, error)
}

// trueVerdict is the verdict for a passing check.
func trueVerdict() Verdict { return Verdict{OK: true, HasCex: true} }

// Describe renders a counterexample trace for error messages.
func Describe(k *kripke.K, cex []int) string {
	if len(cex) == 0 {
		return "<no counterexample>"
	}
	s := ""
	for i, id := range cex {
		if i > 0 {
			s += " -> "
		}
		s += k.StateAt(id).String()
	}
	return s
}
