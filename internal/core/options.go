// Package core implements the update-synthesis algorithm of Section 4:
// ORDERUPDATE, a depth-first search over sequences of switch- or rule-
// granularity updates, driven by the incremental model checker, with
// counterexample learning (wrong-configuration pruning), SAT-based early
// search termination, and the reachability-based wait-removal heuristic.
package core

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"time"
)

// Options configures synthesis: it is the option set a tenant may choose.
// The zero value is the paper's default configuration — switch
// granularity, with counterexample learning, early termination, and wait
// removal all enabled. The switches that turn the Section 4.2
// optimizations off are not options; see Ablation.
//
// This struct is the one description of the option set; its tags say
// what each consumer needs to know:
//
//   - json: the wire name in a tenant spec (server.TenantSpec), in field
//     order. A zero value is the default and is omitted, so spelling a
//     default and leaving it out encode — and fingerprint — identically.
//   - flag, help: the netupdate command-line flag, where one exists.
//   - plan: "speed" when the option cannot change which plan the search
//     returns, otherwise its bit number in ContextFingerprint's flag
//     word. That digest is stored in NUSS images and keys learn files:
//     never renumber a bit; a new plan-shaping option takes the next one
//     never used (7). Bits 4 to 6 are retired and never reused: bit 4
//     was the heuristic-order ablation switch, now Ablation's; bit 5 the
//     first-plan-wins tie-break of the deleted intra-component worker
//     pool; bit 6 the deleted completion-time tie-break.
type Options struct {
	// RuleGranularity updates individual rules instead of whole switch
	// tables (Section 3.1, Figure 8i).
	RuleGranularity bool `json:"rules,omitempty" flag:"rules" help:"use rule granularity" plan:"0"`
	// TwoSimple searches 2-simple sequences (the paper's k-simple
	// generalization, Section 4.1, for k = 2): each switch may be updated
	// twice — first to the merged union of both rule generations, then to
	// the final table. This solves many scenarios that are impossible for
	// plain (1-simple) switch-granularity orderings, at the cost of
	// transient table growth on the merged switches. Ignored when
	// RuleGranularity is set.
	TwoSimple bool `json:"twoSimple,omitempty" flag:"2simple" help:"allow two updates per switch (merge then finalize)" plan:"1"`
	// NoWaitRemoval disables the wait-removal post-pass (Section 4.2.C).
	NoWaitRemoval bool `json:"noWaitRemoval,omitempty" flag:"no-wait-removal" help:"keep all waits" plan:"2"`
	// NoDecomposition disables interference-partitioned search (see
	// decompose.go): the diff is always solved as one joint ORDERUPDATE
	// search, as in the paper. By default the engine splits the update
	// units into independent subproblems — connected components of the
	// unit-interference graph, where two units interfere when they touch
	// the same switch or affect a common traffic class — solves each with
	// its own sub-search, and composes the sub-plans in deterministic
	// order. Used as the joint baseline of the decomposition comparison
	// and by the repair ladder.
	NoDecomposition bool `json:"noDecompose,omitempty" flag:"no-decompose" help:"always run one joint search instead of partitioning independent update regions" plan:"3"`
	// NoPlanCache disables the verification-first plan cache (cache.go):
	// the session never attaches a cache, so every synthesis pays the full
	// search even on a byte-identical repeat instance. Used as the
	// ablation baseline of the cache comparison.
	NoPlanCache bool `json:"noPlanCache,omitempty" flag:"no-plan-cache" help:"disable the verification-first plan cache (every request pays the full search)" plan:"speed"`
	// Trace attaches a span recorder (internal/obs) to the session: every
	// synthesis records its pipeline phases — rebind, final verify, cache
	// lookup/verify, decomposition, per-component search, wait removal,
	// DAG build, the repair ladder rungs — and exports them on Plan.Trace.
	// Off (the default) costs nothing: the recorder is nil and every
	// instrumentation point is a nil-check. Per-request tracing on a warm
	// session (the daemon's trace=1) goes through Session.SetTrace instead.
	Trace bool `json:"trace,omitempty" plan:"speed"`
	// Timeout bounds the search; zero means no limit. On the wire it is
	// nanoseconds, a time.Duration verbatim; requests may tighten it
	// further per call via their deadline.
	Timeout time.Duration `json:"timeoutNs,omitempty" flag:"timeout" help:"search timeout (per synthesis in -stream mode)" plan:"speed"`
}

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

// RegisterFlags declares on fs the command-line flag of every option that
// has one, bound to o's fields; o's values at the call are the defaults.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	v := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, help := tag.Get("flag"), tag.Get("help")
		if name == "" {
			continue
		}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *bool:
			fs.BoolVar(p, name, *p, help)
		case *int:
			fs.IntVar(p, name, *p, help)
		case *time.Duration:
			fs.DurationVar(p, name, *p, help)
		}
	}
}

// writeFingerprint digests the plan-shaping options as one word of flag
// bits, after a constant 0: persisted fingerprints carried a
// checker-backend kind there, and 0 was the incremental checker, the only
// one sessions now build — so every image and learn file written under it
// keeps its key. Speed-only options are left out on purpose: they cannot
// change which plan the search returns, so state learned or snapshotted
// under one setting is valid under another. A plan tag that does not
// parse is a programming error: guessing would silently change a
// persisted fingerprint.
func (o Options) writeFingerprint(w *hashWriter) {
	w.writeInt(0)
	v, flags := reflect.ValueOf(o), 0
	for i := 0; i < v.NumField(); i++ {
		switch plan := v.Type().Field(i).Tag.Get("plan"); plan {
		case "speed":
		default:
			bit, err := strconv.Atoi(plan)
			if err != nil || bit < 0 {
				panic(fmt.Sprintf("core: Options.%s: bad plan tag %q", v.Type().Field(i).Name, plan))
			}
			if v.Field(i).Bool() {
				flags |= 1 << bit
			}
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
	// ErrTimeout reports that the search exceeded Options.Timeout (or the
	// deadline of the context passed to Session.SynthesizeContext,
	// whichever is earlier).
	ErrTimeout = errors.New("core: synthesis timed out")
	// ErrCanceled reports that the context passed to
	// Session.SynthesizeContext was canceled before the search finished.
	ErrCanceled = errors.New("core: synthesis canceled")
	// ErrInitialViolation reports that the initial configuration already
	// violates the specification.
	ErrInitialViolation = errors.New("core: initial configuration violates the specification")
	// ErrFinalViolation reports that the final configuration violates the
	// specification, so no update sequence can be correct.
	ErrFinalViolation = errors.New("core: final configuration violates the specification")
	// ErrClassBuild reports that a class a request needed for the first
	// time did not build, or did not hold, at the configuration the
	// session stands at — one it verified itself or its holder vouched
	// for (RestoreSessionWith), so the session is not in the state it
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
	Checks         int  // model-checker calls
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
	// VerifyElapsed is the up-front final-configuration verification;
	// SearchElapsed covers the search proper (joint or decomposed,
	// including any repair-ladder fallback); CacheVerifyElapsed is the
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
	// diff). FootprintProbes counts the apply/revert
	// probes of the footprint pre-pass. ComponentElapsed records each
	// sub-search's wall time in composition order (components sorted by
	// lowest unit index); empty for joint runs.
	Components       int
	FootprintProbes  int
	ComponentElapsed []time.Duration

	// CommittedComponents lists, for decomposed runs, the components
	// (composition-order indexes) whose sub-searches completed and left
	// their classes' warm structures at the target tables. On a failed or
	// context-canceled run — readable via Session.LastStats — it tells
	// callers exactly which parts of the diff were already solved when
	// the run aborted. Nil for joint runs.
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
	CacheHit          bool
	CacheVerifyFailed bool
}

// addSearch folds the counters of one component sub-search into st. The
// work counters are additive across subproblems; labeling counters arrive
// already collected against the sub-engine's checker snapshots.
func (st *Stats) addSearch(o Stats) {
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
