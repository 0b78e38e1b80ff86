// Package core implements the update-synthesis algorithm of Section 4:
// ORDERUPDATE, a depth-first search over sequences of switch- or rule-
// granularity updates, driven by the incremental model checker, with
// counterexample learning (wrong-configuration pruning), SAT-based early
// search termination, and the reachability-based wait-removal heuristic.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"netupdate/internal/tenantspec"
)

// Options configures synthesis: the option set a tenant may choose,
// defined with the tenant spec that carries it.
type Options = tenantspec.Options

// Ablation switches off the Section 4.2 optimizations one at a time, to
// regenerate the paper's ablation (internal/bench.Ablation). It is not an
// option a tenant may choose: it has no wire key, no flag and no
// fingerprint bit, and reaches a session only through
// SessionResources.Ablation; every engine the session builds reads it.
// NoHeuristicOrder can change which plan the search returns, yet the
// fingerprint need not cover it: its only users, the figure harness and
// the core tests, attach no plan cache and take no snapshot.
type Ablation struct {
	// NoCexLearning disables wrong-configuration pruning (4.2.A).
	NoCexLearning bool
	// NoEarlyTermination disables SAT-based early termination (4.2.B).
	NoEarlyTermination bool
	// NoHeuristicOrder disables destination-first candidate ordering and
	// explores units in index order.
	NoHeuristicOrder bool
}

// writeFingerprint digests the options as one word of flag bits, after
// a constant 0: persisted fingerprints carried a checker-backend kind
// there, and 0 was the incremental checker, the only one sessions now
// build — so every image written under it keeps its key. A field whose
// plan tag is not a bit number is a programming error: guessing would
// silently change a persisted fingerprint.
func writeFingerprint(w *hashWriter, o Options) {
	w.writeInt(0)
	v, flags := reflect.ValueOf(o), 0
	for i := 0; i < v.NumField(); i++ {
		plan := v.Type().Field(i).Tag.Get("plan")
		bit, err := strconv.Atoi(plan)
		if err != nil || bit < 0 {
			panic(fmt.Sprintf("core: Options.%s: bad plan tag %q", v.Type().Field(i).Name, plan))
		}
		if v.Field(i).Bool() {
			flags |= 1 << bit
		}
	}
	w.writeInt(flags)
}

// Synthesis failure modes.
var (
	// ErrNoOrdering reports that no simple careful update sequence exists
	// at the requested granularity (the algorithm's "impossible" answer,
	// Figure 8h).
	ErrNoOrdering = errors.New("core: no correct update ordering exists")
	// ErrTimeout reports that the deadline of the search's context
	// expired before it finished.
	ErrTimeout = errors.New("core: synthesis timed out")
	// ErrCanceled reports that the search's context was canceled before
	// it finished.
	ErrCanceled = errors.New("core: synthesis canceled")
	// ErrInitialViolation reports that the initial configuration already
	// violates the specification.
	ErrInitialViolation = errors.New("core: initial configuration violates the specification")
	// ErrFinalViolation reports that the final configuration violates the
	// specification, so no update sequence can be correct.
	ErrFinalViolation = errors.New("core: final configuration violates the specification")
	// ErrClassBuild reports that a class a request needed for the first
	// time did not build, or did not hold, at the configuration the
	// session stands at — one it, or the session it was parked from
	// (Resume), verified — so the session is not in the state it
	// claims. The tenant is fine: whoever holds the session drops it and
	// builds another at the configuration it knows.
	ErrClassBuild = errors.New("core: class failed to build at the session's configuration")
	// ErrNoPlan reports that Session.Repair was called with no synthesized
	// plan to repair (no prior successful Synthesize on this session).
	ErrNoPlan = errors.New("core: no synthesized plan to repair")
	// ErrBadCommit reports that the committed-step set handed to
	// Session.Repair is not a dependency-closed subset of the last plan's
	// update steps (out of range, duplicated, or missing a predecessor).
	ErrBadCommit = errors.New("core: committed set is not a dependency-closed subset of the last plan")
)

// Stats reports the work performed by one synthesis run.
type Stats struct {
	Units          int  // update units (switches or rules)
	Checks         int  // model-checker calls: on a miss the search's and its target check's; on a cache hit the replay's, plus one per class of the session for reading the target's verdicts
	ClassSkips     int  // checker calls skipped because the unit's delta was empty for the class (only the classes a changed rule of the request matches — for a connected diff, its footprint — are visited, so no other is counted)
	StatesLabeled  int  // checker work units
	Relabels       int  // incremental label recomputations that changed a label
	LabelsInterned int  // distinct label sets interned by the labeling checkers
	ExtendHits     int  // closure-extension memo hits
	ExtendMisses   int  // closure-extension memo misses
	CexLearned     int  // counterexamples learned
	WrongPruned    int  // candidate configs pruned by W
	VisitedPruned  int  // candidate configs pruned by V
	Backtracks     int  // DFS backtracks
	SATCalls       int  // early-termination solver calls
	EarlyTerminate bool // search cut off by the SAT solver
	WaitsBefore    int  // waits before removal (always units-1)
	WaitsAfter     int  // waits remaining after removal
	DAGDepth       int  // longest dependency chain of the plan DAG (nodes)
	DAGWidth       int  // largest antichain level of the plan DAG
	Elapsed        time.Duration

	// Per-phase durations, measured with the same monotonic clock the
	// trace spans use and populated on every run — traced or not — so
	// JSONL consumers get a phase breakdown without enabling traces.
	// VerifyElapsed is the target check's, where one ran: a search that
	// failed a check, or ended without a plan, checked the target (summed
	// over components), and a cache hit reads the replayed verdicts — a
	// search that failed no check has none. SearchElapsed covers the
	// search proper (every component, including any repair-ladder
	// fallback); a refused target reports none, its answer being the
	// target check's. CacheVerifyElapsed is the
	// replay of a cached plan through the warm checkers; RebindElapsed is
	// the post-run resync of the warm per-class structures. They do not
	// sum to Elapsed: scenario setup, DAG build, and cache bookkeeping
	// fall between them.
	RebindElapsed      time.Duration
	SearchElapsed      time.Duration
	WaitRemovalElapsed time.Duration
	VerifyElapsed      time.Duration
	CacheVerifyElapsed time.Duration

	// RequestID is the serving-stack request id (obs.RequestIDFrom) the
	// run was performed under; empty for direct library use.
	RequestID string

	// Decomposition counters (see decompose.go). Components is the number
	// of independent subproblems the interference partition produced (1
	// when the search ran joint — disabled, or a genuinely connected
	// diff). FootprintProbes counts the (unit, class) probes of the
	// footprint pre-pass. ComponentElapsed records each
	// sub-search's wall time in composition order (components sorted by
	// lowest unit index), one entry for a joint run; empty when no search
	// ran.
	Components       int
	FootprintProbes  int
	ComponentElapsed []time.Duration

	// CommittedComponents lists the components (composition-order
	// indexes) whose sub-searches completed and left their classes' warm
	// structures at the target tables — [0] for a joint run that finished.
	// On a failed or context-canceled run — readable via
	// Session.LastStats — it tells callers exactly which parts of the diff
	// were already solved when the run aborted. Nil when none was.
	CommittedComponents []int

	// Repair counters (repair.go). RepairCommitted is the number of
	// already-committed plan steps a Repair call resumed from.
	// EscalatedComponents counts stuck components the fallback ladder
	// solved by escalating to 2-simple granularity; TwoPhaseComponents
	// counts those that fell back to scoped version-tagging.
	RepairCommitted     int
	EscalatedComponents int
	TwoPhaseComponents  int

	// Plan-cache counters (cache.go). CacheHit marks a run served from the
	// verification-first fast path: either a cached plan that replayed
	// cleanly through the warm checkers (Checks then counts the replay's
	// model-checker calls, and no search ran) or a memoized infeasibility
	// that failed fast. A run that found a stale or corrupted entry sets
	// CacheVerifyFailed, evicts it, and falls back to the full search.
	// CacheHitDistance is a hit's distance: the entries the cache stored
	// after the one that answered, before this run.
	CacheHit          bool
	CacheVerifyFailed bool
	CacheHitDistance  int
}

// addSearch folds the counters of one component sub-search into st, and
// the time of its target check. The work counters are additive across
// subproblems; labeling counters arrive already collected against the
// sub-engine's checker snapshots.
func (st *Stats) addSearch(o Stats) {
	st.VerifyElapsed += o.VerifyElapsed
	st.Checks += o.Checks
	st.ClassSkips += o.ClassSkips
	st.StatesLabeled += o.StatesLabeled
	st.Relabels += o.Relabels
	st.LabelsInterned += o.LabelsInterned
	st.ExtendHits += o.ExtendHits
	st.ExtendMisses += o.ExtendMisses
	st.CexLearned += o.CexLearned
	st.WrongPruned += o.WrongPruned
	st.VisitedPruned += o.VisitedPruned
	st.Backtracks += o.Backtracks
	st.SATCalls += o.SATCalls
	if o.EarlyTerminate {
		st.EarlyTerminate = true
	}
}
