// Package engine is the update-synthesis algorithm of Section 4:
// ORDERUPDATE (Figure 4), a depth-first search over switch- or
// rule-granularity updates driven by the incremental model checker
// (Section 5), with counterexample learning (4.2.A), SAT-based early
// termination (4.2.B) and wait removal (4.2.C); the interference partition
// that searches each independent component of a diff on its own
// (decompose.go); and the plan's dependency DAG (dag.go). A request hands
// it the diff, the affected classes' structures and checkers and a context
// (Begin); it returns an order, its waits, its DAG and its counters
// (Search, Stats).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/obs"
)

// The search's failure modes. Their texts reach the wire (a result line's
// error), so they keep the prefix they were published under.
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
	// ErrFinalViolation reports that the final configuration violates the
	// specification, so no update sequence can be correct.
	ErrFinalViolation = errors.New("core: final configuration violates the specification")
)

// Ablation switches off the Section 4.2 optimizations one at a time, to
// regenerate the paper's ablation (internal/bench.Ablation). It is not an
// option a tenant may choose: it has no wire key, no flag and no
// fingerprint bit. NoHeuristicOrder can change which plan the search
// returns, yet no fingerprint need cover it: its only users, the figure
// harness and the tests, attach no plan cache and take no snapshot.
type Ablation struct {
	// NoCexLearning disables wrong-configuration pruning (4.2.A).
	NoCexLearning bool
	// NoEarlyTermination disables SAT-based early termination (4.2.B).
	NoEarlyTermination bool
	// NoHeuristicOrder disables destination-first candidate ordering and
	// explores units in index order.
	NoHeuristicOrder bool
}

// Stats reports the work the engine did for one request: the counters,
// which are a function of the input, and the times the engine measured.
type Stats struct {
	Units          int  // update units (switches or rules)
	Checks         int  // model-checker calls: on a search the search's and its target check's; on a replay the replay's, plus one per class of the scenario for reading the target's verdicts
	ClassSkips     int  // checker calls skipped because the unit's delta was empty for the class (only the affected classes — for a connected diff, its footprint — are visited, so no other is counted)
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

	// Decomposition counters (decompose.go): the independent subproblems
	// the partition produced (1 for a joint search), the (unit, class)
	// probes of its footprint pass, and the stuck components the repair
	// ladder (Fallback) solved at 2-simple granularity or version-tagged.
	Components          int
	FootprintProbes     int
	EscalatedComponents int
	TwoPhaseComponents  int

	// Per-phase durations, populated traced or not: each is the duration
	// of its phase's span (obs.Phase), one interval on one clock.
	// VerifyElapsed sums the final-verify spans: a search's target check,
	// where one ran because a check failed or the search ended without a
	// plan, or a replay's reading of the verdicts. SearchElapsed is the
	// search span, every component's search and fallback; a refused
	// target reports none, its answer being the target check's.
	// ComponentElapsed is each component-i span, in composition order.
	SearchElapsed      time.Duration
	WaitRemovalElapsed time.Duration
	VerifyElapsed      time.Duration
	ComponentElapsed   []time.Duration
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

// Request is one synthesis: from the scenario's Init to its Final, over
// its diff (Affected.Reset of the same endpoints and Specs). KS[ci] and
// Checkers[ci] are the caller's structure and checker of each class it
// lists, which the engine moves while it runs. The diff is cut into a unit
// per switch, per changed rule (Rules), or a merge and a finalize unit per
// switch (TwoSimple, 2-simple). Ablation leaves Section 4.2 optimizations
// out; the spans go under Span of Trace (nil records none).
type Request struct {
	Scenario         config.Scenario
	Affected         *Affected
	KS               []*kripke.K
	Checkers         []mc.Checker
	Rules, TwoSimple bool
	Ablation         Ablation
	Trace            *obs.Trace
	Span             int
}

// Begin lends a pooled engine to one request, bounded by ctx (its searches
// stop with ErrTimeout or ErrCanceled), and derives the units once.
func Begin(ctx context.Context, r Request) *Engine {
	scr := scratchPool.Get().(*engineScratch)
	scr.sc = r.Scenario
	aff := r.Affected
	scr.units = computeUnits(scr.units[:0], &scr.sc, aff.Switches, aff.flows, r.Rules, r.TwoSimple)
	e := newEngineShellWith(&scr.sc, r.Ablation, scr.units, scr)
	e.rules, e.twoSimple = r.Rules, r.TwoSimple
	e.aff, e.classes = aff, aff.Classes
	if ctx != nil && ctx.Done() != nil {
		e.ctx = ctx
	}
	e.trace, e.traceParent = r.Trace, r.Span
	for _, ci := range e.classes {
		e.ks = append(e.ks, r.KS[ci])
		e.checkers = append(e.checkers, r.Checkers[ci])
	}
	e.snapshotCheckerStats()
	return e
}

// Release hands the engine back to the pool, which reuses it.
func (e *Engine) Release() { putScratch(e.scr) }

// Stats returns the engine's counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// engineScratch is the pooled per-run state handed to each engine: reset
// is O(live entries), not O(capacity), and nothing is reallocated across
// syntheses. Every working buffer of a synthesis is here, so what a miss
// allocates is its answer — the plan's steps and DAG — and little else.
// frames[d] holds the undo frames of the update applied at search depth d
// (a replay's, all of them, in frames[0]).
type engineScratch struct {
	// e is the engine itself and sc the scenario it runs on: a request's,
	// or one component sub-search's, whose class specifications are specs.
	e         Engine
	sc        config.Scenario
	specs     []config.ClassSpec
	visited   *bitsetSet
	curTables map[int]network.Table
	deps      *depScratch
	frames    [][]frame

	// units are the engine's units: a request's computeUnits output, or a
	// component's renumbered copy of its share of them. path is the
	// search's: the updates from the root to the node the DFS stands at.
	units []unit
	path  []Step
	// A request's composition: upd holds each component's path at the
	// component's offset (the sum of the earlier components' unit counts),
	// steps the careful sequence composed from them, and waits the wait
	// removal's output before its copy into the plan.
	upd, steps, waits []Step

	// A request's decomposition: the units' footprints back to back, the
	// components and their results, and the arena the components' lists and
	// the partition's working arrays are carved from.
	fps     []int
	comps   []component
	results []compResult
	ints    arena[int]

	// The affected vectors of the request's ordering analyses, remembered by
	// step position, and the arena their rows are carved from. A row is
	// indexed by one tenant's class list, so both are reset per request
	// (newEngineShellWith).
	affMemo []affectedMemo
	affRows arena[bool]
}

// arena hands out slices of one block instead of one allocation each. A
// reset (used = 0) hands the block out again; where it is short, a larger
// one replaces it, and what was handed out keeps the old.
type arena[T any] struct {
	block []T
	used  int
}

// take returns n elements of the block, not zeroed.
func (a *arena[T]) take(n int) []T {
	if len(a.block)-a.used < n {
		a.block, a.used = make([]T, max(2*len(a.block), 4*n, 256)), 0
	}
	out := a.block[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

func newEngineScratch() *engineScratch {
	return &engineScratch{
		visited:   newBitsetSet(),
		curTables: map[int]network.Table{},
		deps:      &depScratch{},
	}
}

// scratchPool lends an engineScratch to one engine at a time — a request's
// or one of its component sub-searches' — as kripke's cyclePool lends the
// loop check's: a session restored to serve one request allocates none and
// a warm one holds none while idle. The ordering analysis' stamps only
// grow, so a scratch laid out for one tenant's classes and switches serves
// the next tenant's (depScratch.reset).
var scratchPool = sync.Pool{New: func() any { return newEngineScratch() }}

// putScratch returns scr to the pool without the structures, checkers,
// tables, deltas and tokens its engine, units, steps and frames name: they
// belong to a session and a request the pool must not keep alive.
func putScratch(scr *engineScratch) {
	for i, fs := range scr.frames {
		scr.frames[i] = emptied(fs)
	}
	scr.e = scr.e.buffers()
	scr.sc = config.Scenario{}
	scr.specs = emptied(scr.specs)
	scr.units = emptied(scr.units)
	scr.path = emptied(scr.path)
	scr.upd = emptied(scr.upd)
	scr.steps = emptied(scr.steps)
	scr.waits = emptied(scr.waits)
	scr.affMemo = emptied(scr.affMemo)
	scr.comps = emptied(scr.comps)
	scr.results = emptied(scr.results)
	scratchPool.Put(scr)
}

// emptied zeroes a buffer's elements and returns it empty, its capacity
// kept.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// errNotFound signals exhaustion of a subtree (a search-control
// sentinel, not a terminal failure).
var errNotFound = errors.New("engine: subtree exhausted")

type frame struct {
	class int
	delta *kripke.Delta
	token mc.Token
}

type pattern struct {
	relevant, value bitset
}

// Engine is one request's search, or one component sub-search's (Begin,
// solveComponent). It is not safe for concurrent use; the component
// sub-searches of a request run on engines of their own.
type Engine struct {
	sc    *config.Scenario
	abl   Ablation
	units []unit
	order []int
	// rules and twoSimple are the granularity the units were cut at, which
	// the footprint pre-pass reads (unitFootprints).
	rules, twoSimple bool

	// The attached class structures and checkers, and the spec index of
	// each (ascending): the classes the run can affect, or a component's
	// (Begin, solveComponent).
	classes  []int
	ks       []*kripke.K
	checkers []mc.Checker
	// statsBase snapshots each checker's cumulative counters when it is
	// attached: the caller's checkers live across runs, so per-run stats
	// are deltas against this baseline.
	statsBase []mc.Stats

	curTables map[int]network.Table

	// scr is the scratch the engine runs on — the visited set, curTables,
	// the ordering-analysis scratch, the undo frames of each search depth
	// (frameBuf), the search path and the composition buffers — and holds
	// the engine itself.
	scr *engineScratch

	// visited is the V of Figure 4. The other pruning structures of
	// Section 4.2: wrong holds the wrong-configuration patterns learned
	// from counterexamples (4.2.A), and et the early-termination SAT solver
	// they feed (4.2.B), built at the first one. All three live for one
	// search.
	visited *bitsetSet
	wrong   []pattern
	et      *earlyTerm

	// ctx is the caller's request context (Begin), the one bound on the
	// search: the DFS polls it, so an expired or canceled request stops the
	// search promptly. Nil when the context cannot end.
	ctx context.Context

	// cexBuf is the pooled counterexample-switch buffer handed out by
	// applyAndCheck. Each failed check overwrites it, so callers must
	// consume the returned slice (learn does, immediately) before the next
	// check. cexMark, by switch, marks a counterexample's switches while
	// learn reads them; all false between calls.
	cexBuf  []int
	cexMark []bool

	// deps is the pooled scratch an ordering analysis borrows (deps.go): nil
	// while one holds it.
	deps *depScratch

	// The target check (checkTarget): aff lists the diff switches each
	// attached class can see (the request's affected classes),
	// targetChecked records whether the search has run the check, and the
	// check's span goes under traceParent on traceLane.
	aff           *Affected
	targetChecked bool
	trace         *obs.Trace
	traceParent   int
	traceLane     int

	stats Stats
}

// errTargetFails unwinds a search whose target check failed mid-search:
// run names the violation from the root.
var errTargetFails = errors.New("engine: the target fails its check")

// newEngineShellWith makes scr's engine (a new scratch's when scr is nil)
// the one to search units over sc, its buffers kept and reset in place: a
// request's units (Begin), or a component's share of them renumbered
// (solveComponent), so no diff or rank is derived twice. Structures and
// checkers are attached afterwards; what only a search reads — the unit
// order, the early-termination store, the tables the DFS stands at — run
// builds.
func newEngineShellWith(sc *config.Scenario, abl Ablation, units []unit, scr *engineScratch) *Engine {
	if scr == nil {
		scr = newEngineScratch()
	} else {
		scr.visited.reset()
		clear(scr.curTables)
	}
	scr.affMemo, scr.affRows.used, scr.ints.used = emptied(scr.affMemo), 0, 0
	e := &scr.e
	*e = e.buffers()
	e.sc, e.abl, e.units = sc, abl, units
	e.scr, e.visited, e.curTables, e.deps = scr, scr.visited, scr.curTables, scr.deps
	e.stats.Units = len(units)
	return e
}

// buffers returns the zero engine holding e's reusable buffers, emptied:
// what a pooled engine keeps from one run to the next.
func (e *Engine) buffers() Engine {
	return Engine{
		order:     e.order[:0],
		ks:        emptied(e.ks),
		checkers:  emptied(e.checkers),
		statsBase: e.statsBase[:0],
		cexBuf:    e.cexBuf[:0],
		cexMark:   e.cexMark,
	}
}

// ContextErr maps a finished context to the engine's typed failures:
// deadline expiry is a timeout, everything else a cancellation.
func ContextErr(ctx context.Context) error {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ErrCanceled
}

// snapshotCheckerStats records the attached checkers' cumulative counters
// so collectCheckerStats reports this run's work only.
func (e *Engine) snapshotCheckerStats() {
	e.statsBase = e.statsBase[:0]
	for _, c := range e.checkers {
		e.statsBase = append(e.statsBase, c.Stats())
	}
}

// run searches the attached classes for a careful order of the units:
// ORDERUPDATE's DFS from the empty configuration. It returns the order as
// the search path, one update per unit: the scratch's, valid until the
// scratch is reset.
func (e *Engine) run() ([]Step, error) {
	if e.abl.NoHeuristicOrder {
		e.order = e.order[:0]
		for i := range e.units {
			e.order = append(e.order, i)
		}
	} else {
		e.order = orderUnits(e.order[:0], e.units)
	}
	for _, u := range e.units {
		e.curTables[u.sw] = e.sc.Init.Table(u.sw)
	}
	empty := newBitset(len(e.units))
	e.visited.add(empty)
	e.scr.path = slices.Grow(emptied(e.scr.path), len(e.units))
	err := e.dfs(empty, 0)
	if err == nil {
		return e.scr.path, nil
	}
	// The search ended without a plan, and the DFS unwound to the root.
	// Without a check having run — a timeout, a cancellation, a terminal
	// error — the target may be what failed: it is checked now. A check
	// that failed mid-search is run again from here, where a check before
	// any search would have run, so the violation it names (the cycle of a
	// loop, first of all) does not depend on where the search stood.
	switch {
	case errors.Is(err, errTargetFails):
		if verr := e.checkTarget(); verr != nil {
			err = verr
		}
	case !e.targetChecked:
		if verr := e.verifyTarget(); verr != nil {
			return nil, verr
		}
	}
	if errors.Is(err, errNotFound) {
		return nil, ErrNoOrdering
	}
	return nil, err
}

// dfs explores update orders from the current configuration (encoded by
// the applied bitmask). The updates that lead to it are the search path
// (scr.path): dfs pushes one when it descends and pops it when it
// backtracks, so on success the path is the whole order and nothing was
// allocated for it. It returns nil on success, errNotFound when the subtree
// is exhausted, or a terminal error.
func (e *Engine) dfs(applied bitset, depth int) error {
	if depth == len(e.units) {
		return nil
	}
	if e.ctx != nil && e.ctx.Err() != nil {
		return ContextErr(e.ctx)
	}
	for _, ui := range e.order {
		if applied.get(ui) {
			continue
		}
		u := e.units[ui]
		if u.requires >= 0 && !applied.get(u.requires) {
			continue // finalize steps wait for their merge step
		}
		next := applied.set(ui)
		if !e.visited.add(next) {
			e.stats.VisitedPruned++
			continue
		}
		if e.matchesWrong(next) {
			e.stats.WrongPruned++
			continue
		}

		newTbl := e.unitTable(u)
		oldTbl := e.curTables[u.sw]
		frames, failed, cexSwitches, err := e.applyAndCheck(e.frameBuf(depth), u.sw, newTbl)
		e.scr.frames[depth] = frames
		if err != nil {
			e.revert(frames)
			return err
		}
		if failed {
			e.revert(frames)
			// The first failed check is where the target comes into doubt:
			// no careful order exists if the target itself fails, and that
			// is the answer, not a counterexample to learn from.
			if !e.targetChecked {
				e.targetChecked = true
				if e.verifyTarget() != nil {
					return errTargetFails
				}
			}
			if len(cexSwitches) > 0 && !e.abl.NoCexLearning {
				if terminate := e.learn(cexSwitches, next); terminate {
					e.stats.EarlyTerminate = true
					return ErrNoOrdering
				}
			}
			continue
		}
		e.curTables[u.sw] = newTbl
		// The step installs the unit's table itself: tables are never
		// written once built (Step.Table).
		e.scr.path = append(e.scr.path, Step{
			Switch: u.sw, Table: newTbl,
			IsRule: u.isRule, RuleAdd: u.add, Rule: u.rule,
		})
		err = e.dfs(next, depth+1)
		if err == nil {
			// The deeper levels committed theirs on the way out: the plan
			// keeps this update too.
			e.commit(frames)
			return nil
		}
		e.curTables[u.sw] = oldTbl
		e.revert(frames)
		path := e.scr.path
		path[len(path)-1] = Step{}
		e.scr.path = path[:len(path)-1]
		e.stats.Backtracks++
		if !errors.Is(err, errNotFound) {
			return err
		}
	}
	return errNotFound
}

// applyAndCheck installs the new table for sw in every class structure
// and re-checks each, appending a frame per class to frames. On failure
// it reports the counterexample switches (if any) and leaves reverting to
// the caller via the returned frames. Classes the unit does not touch —
// the update yields an empty delta because the switch change is invisible
// to the class's forwarding — skip the checker round-trip entirely: the
// verdict depends only on the class structure (the mc.Checker contract).
// Most units in multi-class scenarios touch one class, so this is the
// common case.
func (e *Engine) applyAndCheck(frames []frame, sw int, tbl network.Table) (_ []frame, failed bool, cexSwitches []int, err error) {
	for ci := range e.ks {
		delta, uerr := e.ks[ci].UpdateSwitch(sw, tbl)
		if uerr != nil {
			var loop *kripke.ErrLoop
			if errors.As(uerr, &loop) {
				// The update is applied; roll it back after learning.
				e.ks[ci].Revert(delta)
				e.cexBuf = e.ks[ci].AppendSwitches(e.cexBuf[:0], loop.IDs)
				return frames, true, e.cexBuf, nil
			}
			return frames, false, nil, uerr
		}
		if len(delta.Changed()) == 0 {
			e.stats.ClassSkips++
			frames = append(frames, frame{class: ci, delta: delta, token: nil})
			continue
		}
		verdict, tok := e.checkers[ci].Update(delta)
		e.stats.Checks++
		frames = append(frames, frame{class: ci, delta: delta, token: tok})
		if !verdict.OK {
			var sws []int
			if len(verdict.Cex) > 0 {
				e.cexBuf = e.ks[ci].AppendSwitches(e.cexBuf[:0], verdict.Cex)
				sws = e.cexBuf
			}
			return frames, true, sws, nil
		}
	}
	return frames, false, nil, nil
}

// checkTarget checks the target configuration on the attached classes,
// on top of wherever the search stands: per class, the target's tables go
// onto the diff switches the class can see as one step
// (kripke.K.UpdateSwitches) — every one rewired, then one loop check over
// the result, where switch-by-switch updates would trip over loops that
// only the configurations in between have — the checker is updated once
// over the states that moved, the verdict is read, and the step is undone
// as a backtrack undoes one. A class forwarded in a cycle is the search's
// loop protocol: the structure is reverted and the checker never sees it.
// The first class that fails is an ErrFinalViolation; passing or not,
// every structure and label is back where it was when checkTarget
// returns.
//
// A search that never fails a check needs none of this: its leaf checked
// every class after that class's last change, on the way to the target.
func (e *Engine) checkTarget() error {
	depth := len(e.units) // a depth no search level uses
	frames := e.frameBuf(depth)
	defer func() {
		e.revert(frames)
		e.scr.frames[depth] = frames
	}()
	for pos, ci := range e.classes {
		e.stats.Checks++
		i, _ := slices.BinarySearch(e.aff.Classes, ci)
		delta, err := e.ks[pos].UpdateSwitches(e.sc.Final, e.aff.SwitchesOf(i))
		if delta != nil { // applied, even where it closed a loop
			frames = append(frames, frame{class: pos, delta: delta})
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrFinalViolation, err)
		}
		var verdict mc.Verdict
		if len(delta.Changed()) == 0 {
			verdict = e.checkers[pos].Check()
		} else {
			verdict, frames[len(frames)-1].token = e.checkers[pos].Update(delta)
		}
		if !verdict.OK {
			return fmt.Errorf("%w: class %v", ErrFinalViolation, e.ks[pos].Class)
		}
	}
	return nil
}

// verifyTarget is checkTarget as a final-verify phase, whose duration
// Stats.VerifyElapsed sums.
func (e *Engine) verifyTarget() error {
	ph := e.trace.Start("final-verify", e.traceParent, e.traceLane)
	err := e.checkTarget()
	e.stats.VerifyElapsed += ph.End()
	return err
}

// Replay checks a plan for this very request (a plan cache's) instead of
// searching: its steps are applied through the model-checked apply the
// search uses, and the target's verdicts read off the classes they leave
// there (every class of the scenario counts as checked: one not attached
// stands where the request found it). If every configuration held, the
// steps stay applied and Replay reports true; otherwise all are undone.
func (e *Engine) Replay(steps []Step) bool {
	frames := e.frameBuf(0)
	defer func() { e.scr.frames[0] = frames }()
	for _, st := range steps {
		if st.Wait {
			continue
		}
		var failed bool
		var err error
		if frames, failed, _, err = e.applyAndCheck(frames, st.Switch, st.Table); err != nil || failed {
			e.revert(frames)
			return false
		}
	}
	ph := e.trace.Start("final-verify", e.traceParent, 0)
	defer func() { e.stats.VerifyElapsed = ph.End() }()
	e.stats.Checks += len(e.sc.Specs) - len(e.checkers)
	for _, chk := range e.checkers {
		e.stats.Checks++
		if !chk.Check().OK {
			e.revert(frames)
			return false
		}
	}
	e.commit(frames)
	e.collectCheckerStats()
	return true
}

// revert undoes applied frames in reverse order. A nil token marks a
// frame whose checker never saw the update (a class skip), so only the
// Kripke structure is rolled back.
func (e *Engine) revert(frames []frame) {
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		if f.token != nil {
			e.checkers[f.class].Revert(f.token)
		}
		e.ks[f.class].Revert(f.delta)
	}
}

// commit ends applied frames whose updates stay, newest first, as revert
// ends those that go: the structures' undo logs and the checkers' tokens
// are recycled for the next update.
func (e *Engine) commit(frames []frame) {
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		if f.token != nil {
			e.checkers[f.class].Commit(f.token)
		}
		e.ks[f.class].Commit(f.delta)
	}
}

// frameBuf returns the empty undo-frame buffer of a search depth; the
// caller stores what it appends back in scr.frames[depth], so the buffer
// grows once per depth and not once per step.
func (e *Engine) frameBuf(depth int) []frame {
	for len(e.scr.frames) <= depth {
		e.scr.frames = append(e.scr.frames, nil)
	}
	return e.scr.frames[depth][:0]
}

// unitTable computes the table installed on u.sw when u is applied on top
// of the current table state.
func (e *Engine) unitTable(u unit) network.Table {
	if !u.isRule {
		return u.newTable
	}
	cur := e.curTables[u.sw]
	if u.add {
		out := cur.Clone()
		return append(out, u.rule)
	}
	out := make(network.Table, 0, len(cur))
	removed := false
	for _, r := range cur {
		if !removed && r.Equal(u.rule) {
			removed = true
			continue
		}
		out = append(out, r)
	}
	return out
}

// learn records a wrong-configuration pattern from a counterexample
// (Section 4.2.A) and feeds the ordering constraint to the SAT solver
// (4.2.B). It returns true when the solver proves no ordering can exist.
func (e *Engine) learn(cexSwitches []int, cfg bitset) bool {
	e.stats.CexLearned++
	relevant := newBitset(len(e.units))
	value := newBitset(len(e.units))
	// The units are read in id order, so the constraint's slices — whose
	// order fixes the order the solver's variables are created in — come
	// out the same whatever the trace's order.
	var appliedUnits, unappliedUnits []int
	if n := e.sc.Topo.NumSwitches(); len(e.cexMark) < n {
		e.cexMark = make([]bool, n)
	}
	for _, sw := range cexSwitches {
		e.cexMark[sw] = true
	}
	for _, u := range e.units {
		if !e.cexMark[u.sw] {
			continue
		}
		relevant = relevant.set(u.id)
		if cfg.get(u.id) {
			value = value.set(u.id)
			appliedUnits = append(appliedUnits, u.id)
		} else {
			unappliedUnits = append(unappliedUnits, u.id)
		}
	}
	for _, sw := range cexSwitches {
		e.cexMark[sw] = false
	}
	if relevant.count() == 0 {
		return false // counterexample mentions no updating switch: ignore
	}
	e.wrong = append(e.wrong, pattern{relevant: relevant, value: value})
	if e.abl.NoEarlyTermination {
		return false
	}
	if e.et == nil {
		e.et = newEarlyTerm(len(e.units))
	}
	e.stats.SATCalls++
	return !e.et.addCexConstraint(appliedUnits, unappliedUnits)
}

func (e *Engine) matchesWrong(cfg bitset) bool {
	for _, p := range e.wrong {
		if cfg.matchesPattern(p.relevant, p.value) {
			return true
		}
	}
	return false
}

func (e *Engine) collectCheckerStats() {
	for i, c := range e.checkers {
		s := c.Stats()
		var base mc.Stats
		if i < len(e.statsBase) {
			base = e.statsBase[i]
		}
		e.stats.StatesLabeled += s.StatesLabeled - base.StatesLabeled
		e.stats.Relabels += s.Relabels - base.Relabels
		e.stats.LabelsInterned += s.LabelsInterned - base.LabelsInterned
		e.stats.ExtendHits += s.ExtendHits - base.ExtendHits
		e.stats.ExtendMisses += s.ExtendMisses - base.ExtendMisses
	}
}

func countWaits(steps []Step) int {
	n := 0
	for _, s := range steps {
		if s.Wait {
			n++
		}
	}
	return n
}
