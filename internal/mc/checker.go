// Package mc implements the LTL model checker of Section 5: state
// labeling with maximally-consistent sets of the extended closure
// (following Wolper-Vardi-Sistla), relabeling only the ancestors of
// updated states (Incremental, the checker the engine serves), and a
// batch variant that relabels the whole structure on every call and is
// kept as the differential oracle. Both operate on the complete, DAG-like
// network Kripke structures built by package kripke.
package mc

import (
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// Verdict is the outcome of a model-checking call.
type Verdict struct {
	OK bool
	// Cex is a violating trace prefix (state ids, from an initial state to
	// a sink) when OK is false; empty when the checker has none to offer.
	Cex []int
}

// Token is an opaque undo token returned by Update and consumed by Revert
// or Commit.
type Token interface{}

// Checker verifies one traffic class's Kripke structure against one LTL
// formula across a sequence of switch updates. It is the whole contract
// between the synthesis engine and a checker: the engine asserts for no
// further capability.
//
// The verdict is a function of the class structure alone — its states,
// transitions and atoms — never of the raw rule tables behind it. The
// engine relies on that: it does not call Update for a delta that
// changed no transition (len(delta.Changed()) == 0), and it does not call
// Rebind after a rebind that changed none, even though the tables of the
// structure did change. An implementation that tracks tables must
// resynchronise from the structure when it is next called.
//
// Every token ends in exactly one Revert or Commit, newest first, as the
// structure's deltas do (kripke.Delta): the search reverts what it
// backtracks over and commits, newest first, the updates of the plan it
// keeps. Once a token is committed, every older one can only be
// committed too.
//
// Incremental is the implementation every session uses; Batch is the
// test oracle. The Figure 7 comparison backends live with the figure
// harness (internal/bench).
type Checker interface {
	// Name identifies the checker in benchmark output.
	Name() string
	// Check performs a full check of the current structure.
	Check() Verdict
	// Update re-checks after the Kripke structure was updated with the
	// given delta (see kripke.K.UpdateSwitch and UpdateSwitches). The
	// returned token undoes the checker's internal state when the update
	// is reverted.
	Update(delta *kripke.Delta) (Verdict, Token)
	// Revert undoes a previous Update's effect on internal state. The
	// caller separately reverts the Kripke structure itself.
	Revert(t Token)
	// Commit ends a previous Update whose update stays applied: the token
	// will never be reverted. The caller separately commits the Kripke
	// structure's delta.
	Commit(t Token)
	// Rebind refreshes the checker after its structure was rebound in
	// place to a different configuration (see kripke.K.Rebind),
	// re-deriving whatever depends on the transition relation while
	// keeping structure-independent caches — interned labels,
	// closure-extension memos, translated automata — warm. rewired names
	// the states whose outgoing transitions the rebind changed (a superset
	// is fine), so the refresh is confined to what depends on them.
	// Outstanding undo tokens are invalidated.
	Rebind(rewired []int)
	// MemoMark and ForgetMemo bound what the checker memoizes across
	// calls: ForgetMemo(m), for m an earlier MemoMark, drops every memo
	// entry added since, so work whose outcome is thrown away leaves the
	// memo — and the hits and misses of the calls after it — as it was.
	// A checker without such a memo returns 0 and forgets nothing.
	MemoMark() int
	ForgetMemo(mark int)
	// Stats returns cumulative work counters for benchmark reporting.
	Stats() Stats
}

// Stats counts the work a checker has performed. The labeling checkers
// additionally report allocation and relabeling counters: LabelsInterned
// is the number of distinct label sets this checker added to its intern
// table (the only steady-state source of label allocations), and the
// Extend counters expose the hit rate of the closure-extension memo.
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
