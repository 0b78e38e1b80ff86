package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/obs"
)

// Synthesize runs ORDERUPDATE (Figure 4): it searches for a sequence of
// updates transforming the scenario's initial configuration into its
// final configuration such that every intermediate configuration
// satisfies every class specification, inserting waits between updates
// (careful sequences, Definition 5) and then removing unnecessary waits.
// The search is the paper's sequential DFS on the calling goroutine; a
// diff that splits into independent components runs one such search per
// component, concurrently (decompose.go). It returns ErrNoOrdering if no
// simple careful sequence exists at the requested granularity.
//
// Synthesize is the one-shot entry point: it is a thin wrapper that opens
// a Session for the scenario's endpoints and serves a single target.
// Callers facing a stream of configuration changes over one topology
// should hold a Session (or the netupdate.Synthesizer façade) instead and
// let the per-class structures, label tables, and engine scratch stay
// warm between syntheses.
func Synthesize(sc *config.Scenario, opts Options) (*Plan, error) {
	return SynthesizeWith(context.Background(), sc, opts, SessionResources{})
}

// SynthesizeWith is Synthesize over the given session resources (see
// NewSessionWith), the search bounded by ctx (ErrTimeout, ErrCanceled);
// the repair ladder's 2-simple rung runs through it too.
func SynthesizeWith(ctx context.Context, sc *config.Scenario, opts Options, res SessionResources) (*Plan, error) {
	start := time.Now()
	s, err := NewSessionWith(sc.Topo, sc.Init, sc.Specs, opts, res)
	if err != nil {
		return nil, err
	}
	s.ephemeral = true
	plan, err := s.synthesize(ctx, sc.Name, sc.Final)
	if plan != nil {
		// One-shot semantics: Elapsed covers structure construction too,
		// as it did before the session refactor. (Session callers get
		// per-run time — construction amortizes across their stream.)
		plan.Stats.Elapsed = time.Since(start)
	}
	return plan, err
}

// errNotFound signals exhaustion of a subtree (a search-control
// sentinel, not a terminal failure).
var errNotFound = errors.New("core: subtree exhausted")

type frame struct {
	class int
	delta *kripke.Delta
	token mc.Token
}

type pattern struct {
	relevant, value bitset
}

type engine struct {
	sc    *config.Scenario
	opts  Options
	abl   Ablation
	units []unit
	order []int

	// The attached class structures and checkers, and the spec index of
	// each (ascending): the classes the run can affect, or a component's
	// (Session.attach, solveComponent).
	classes  []int
	ks       []*kripke.K
	checkers []mc.Checker
	// statsBase snapshots each persistent checker's cumulative counters
	// at attach time: session checkers live across runs, so per-run stats
	// are deltas against this baseline.
	statsBase []mc.Stats

	curTables map[int]network.Table
	// flows indexes sc.Specs by flow: the request engine's is its
	// session's, another engine builds its own on first use.
	flows flowIndex

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

	// ctx is the caller's request context (see Session.SynthesizeContext),
	// the one bound on the search: the DFS polls it, so an expired or
	// canceled request stops the search promptly. Nil when the caller did
	// not supply a context that can end.
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
	aff           *affectedClasses
	targetChecked bool
	trace         *obs.Trace
	traceParent   int
	traceLane     int

	stats Stats
}

// errTargetFails unwinds a search whose target check failed mid-search:
// run names the violation from the root.
var errTargetFails = errors.New("core: the target fails its check")

// newEngineShellWith builds an engine minus its per-class structures
// around the given unit list: its per-run scratch. The session
// attaches its warm Kripke structures and checkers afterwards; scr (when
// non-nil) supplies pooled scratch reset in place instead of reallocated,
// and the engine is scr's own, reset by value. The session derives the
// units from the request's diff once; component sub-searches reuse the
// request engine's units (renumbered component-locally) rather than
// re-deriving the diff and the destination ranks per component. What only
// a search reads — the unit order, the early-termination store, the tables
// the DFS stands at — run builds.
func newEngineShellWith(sc *config.Scenario, opts Options, abl Ablation, units []unit, scr *engineScratch) *engine {
	if scr == nil {
		scr = newEngineScratch()
	} else {
		scr.visited.reset()
		clear(scr.curTables)
	}
	scr.affMemo, scr.affRows.used, scr.ints.used = emptied(scr.affMemo), 0, 0
	e := &scr.e
	*e = e.buffers()
	e.sc, e.opts, e.abl, e.units = sc, opts, abl, units
	e.scr, e.visited, e.curTables, e.deps = scr, scr.visited, scr.curTables, scr.deps
	e.stats.Units = len(units)
	return e
}

// buffers returns the zero engine holding e's reusable buffers, emptied:
// what a pooled engine keeps from one run to the next.
func (e *engine) buffers() engine {
	return engine{
		order:     e.order[:0],
		ks:        emptied(e.ks),
		checkers:  emptied(e.checkers),
		statsBase: e.statsBase[:0],
		cexBuf:    e.cexBuf[:0],
		cexMark:   e.cexMark,
	}
}

// bindContext attaches a request context to the engine: the DFS polls it
// for its deadline and cancellation.
func (e *engine) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		e.ctx = ctx
	}
}

// ctxErr maps a finished context to the engine's typed failures:
// deadline expiry is a timeout, everything else a cancellation.
func ctxErr(ctx context.Context) error {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ErrCanceled
}

// snapshotCheckerStats records the attached checkers' cumulative counters
// so collectCheckerStats reports this run's work only.
func (e *engine) snapshotCheckerStats() {
	e.statsBase = e.statsBase[:0]
	for _, c := range e.checkers {
		e.statsBase = append(e.statsBase, c.Stats())
	}
}

// run searches the attached classes for a careful order of the units:
// ORDERUPDATE's DFS from the empty configuration. It returns the order as
// the search path, one update per unit: the scratch's, valid until the
// scratch is reset.
func (e *engine) run() ([]Step, error) {
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
		start := time.Now()
		if verr := e.checkTarget(); verr != nil {
			err = verr
		}
		e.stats.VerifyElapsed += time.Since(start)
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
func (e *engine) dfs(applied bitset, depth int) error {
	if depth == len(e.units) {
		return nil
	}
	if e.ctx != nil && e.ctx.Err() != nil {
		return ctxErr(e.ctx)
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
func (e *engine) applyAndCheck(frames []frame, sw int, tbl network.Table) (_ []frame, failed bool, cexSwitches []int, err error) {
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
func (e *engine) checkTarget() error {
	depth := len(e.units) // a depth no search level uses
	frames := e.frameBuf(depth)
	defer func() {
		e.revert(frames)
		e.scr.frames[depth] = frames
	}()
	for pos, ci := range e.classes {
		e.stats.Checks++
		i, _ := slices.BinarySearch(e.aff.classes, ci)
		delta, err := e.ks[pos].UpdateSwitches(e.sc.Final, e.aff.switchesOf(i))
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

// verifyTarget is checkTarget timed into Stats.VerifyElapsed under a
// final-verify span.
func (e *engine) verifyTarget() error {
	start := time.Now()
	span := e.trace.BeginLane("final-verify", e.traceParent, e.traceLane)
	err := e.checkTarget()
	e.trace.End(span)
	e.stats.VerifyElapsed += time.Since(start)
	return err
}

// revert undoes applied frames in reverse order. A nil token marks a
// frame whose checker never saw the update (a class skip), so only the
// Kripke structure is rolled back.
func (e *engine) revert(frames []frame) {
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
func (e *engine) commit(frames []frame) {
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
func (e *engine) frameBuf(depth int) []frame {
	for len(e.scr.frames) <= depth {
		e.scr.frames = append(e.scr.frames, nil)
	}
	return e.scr.frames[depth][:0]
}

// unitTable computes the table installed on u.sw when u is applied on top
// of the current table state.
func (e *engine) unitTable(u unit) network.Table {
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
func (e *engine) learn(cexSwitches []int, cfg bitset) bool {
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

func (e *engine) matchesWrong(cfg bitset) bool {
	for _, p := range e.wrong {
		if cfg.matchesPattern(p.relevant, p.value) {
			return true
		}
	}
	return false
}

func (e *engine) collectCheckerStats() {
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

// unitSwitches returns the switches this run's units touch, ascending
// and deduplicated (computeUnits emits units per diff switch in
// ascending order). These are the only switches a run can leave deviating
// from its endpoint configurations, which is what lets the session
// restrict its post-run rebind sweep to them.
func (e *engine) unitSwitches() []int {
	var out []int
	for _, u := range e.units {
		if n := len(out); n == 0 || out[n-1] != u.sw {
			out = append(out, u.sw)
		}
	}
	return out
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
