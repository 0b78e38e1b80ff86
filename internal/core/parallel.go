package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/network"
)

// Parallel ORDERUPDATE. The top levels of the DFS are fanned out to a
// worker pool: the base engine acts as a *generator*, running the normal
// search truncated at a small fan depth and emitting every surviving
// depth-d prefix as a task; workers replay a task's prefix on their
// private structures (cloned Kripke structures and checkers — see
// kripke.K.Clone and mc.Checker.CloneFor — so the mutate-and-revert
// protocol needs no locking on the hot path) and run the ordinary DFS
// below it.
// Learning state is shared through sharedState: wrong-configuration
// patterns, SAT early-termination constraints, and the dead-configuration
// set all flow across workers, so a counterexample found in one subtree
// prunes all the others.
//
// Determinism: by default the coordinator commits the plan of the
// lowest-indexed successful task (task indexes follow the sequential
// exploration order), and only after every lower-indexed task has failed.
// Each task's private outcome is independent of scheduling — the shared
// structures only ever prune configurations that are provably wrong or
// exhausted, which cannot change which plan a subtree yields — so the
// returned plan is the one the sequential search would have found.
// Options.FirstPlanWins trades that reproducibility for speed: the first
// plan any worker finds wins and everything else is cancelled.

// task is one unit of parallel work: a checked prefix of unit ids whose
// subtree a worker explores.
type task struct {
	idx    int
	prefix []int
}

// result is a worker's verdict on one task. err is nil on success,
// errNotFound/errCancelled for resolved failures, or terminal.
type result struct {
	idx   int
	steps []Step
	err   error
}

// bestTracker publishes the lowest successful task index so workers can
// skip tasks that can no longer win.
type bestTracker struct{ v atomic.Int64 }

func newBestTracker() *bestTracker {
	b := &bestTracker{}
	b.v.Store(math.MaxInt64)
	return b
}

func (b *bestTracker) record(idx int) {
	for {
		cur := b.v.Load()
		if int64(idx) >= cur || b.v.CompareAndSwap(cur, int64(idx)) {
			return
		}
	}
}

// obsolete reports whether a task at idx cannot beat a recorded success.
func (b *bestTracker) obsolete(idx int) bool { return int64(idx) > b.v.Load() }

// chooseFanDepth picks the shallowest prefix depth whose branching yields
// comfortably more tasks than workers, so the pool stays load-balanced
// without making prefix replay a significant cost.
func (e *engine) chooseFanDepth(workers int) int {
	n := len(e.units)
	want := 4 * workers
	depth, width := 0, 1
	for depth < 3 && depth < n-1 && width < want {
		width *= n - depth
		depth++
	}
	if depth < 1 {
		depth = 1
	}
	return depth
}

// cloneForWorker duplicates the engine for one worker: private Kripke
// structures, checkers, and table state; shared learning state, stop
// flag, and deadline. It must be called while the engine is at the
// initial configuration.
func (e *engine) cloneForWorker() (*engine, error) {
	w := &engine{
		sc:          e.sc,
		opts:        e.opts,
		units:       e.units,
		order:       e.order,
		curTables:   make(map[int]network.Table, len(e.curTables)),
		visited:     newBitsetSet(),
		shared:      e.shared,
		stop:        e.stop,
		deadline:    e.deadline,
		hasDeadline: e.hasDeadline,
		ctx:         e.ctx,
		ctxDone:     e.ctxDone,
	}
	for sw, tbl := range e.curTables {
		w.curTables[sw] = tbl
	}
	for ci, k := range e.ks {
		k2 := k.Clone()
		chk, err := e.checkers[ci].CloneFor(k2)
		if err != nil {
			return nil, err
		}
		w.ks = append(w.ks, k2)
		w.checkers = append(w.checkers, chk)
	}
	return w, nil
}

// runParallel coordinates the fan-out search. It owns the base engine,
// which doubles as the task generator.
func (e *engine) runParallel(empty bitset, workers int) ([]Step, error) {
	workerEngines := make([]*engine, workers)
	for i := range workerEngines {
		we, err := e.cloneForWorker()
		if err != nil {
			return nil, err
		}
		workerEngines[i] = we
	}

	// A small task buffer throttles the generator: each emission costs a
	// checked prefix (apply + model-check + revert per class), so running
	// far ahead of the workers is wasted work whenever an early task
	// succeeds. Two tasks per worker keeps the pool saturated.
	buf := 2 * workers
	tasks := make(chan task, buf)
	results := make(chan result, 2*buf)
	best := newBestTracker()

	var wg sync.WaitGroup
	for _, we := range workerEngines {
		wg.Add(1)
		go func(we *engine) {
			defer wg.Done()
			we.workerLoop(tasks, results, best)
		}(we)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Generator: the sequential search truncated at fanDepth, emitting
	// tasks in exploration order.
	e.fanDepth = e.chooseFanDepth(workers)
	e.deferredSeen = newBitsetSet()
	genDone := make(chan error, 1)
	emitted := 0
	e.emit = func(prefix []int) error {
		if best.obsolete(emitted) {
			// Every future task is higher-indexed than a recorded
			// success; nothing left to generate.
			return errCancelled
		}
		t := task{idx: emitted, prefix: append([]int(nil), prefix...)}
		select {
		case tasks <- t:
			emitted++
			return nil
		case <-e.stop.ch:
			return errCancelled
		}
	}
	go func() {
		_, err := e.dfs(empty, 0)
		if err != nil && !errors.Is(err, errNotFound) &&
			!errors.Is(err, errDeferred) && !errors.Is(err, errCancelled) {
			e.stop.set() // terminal: no point finishing outstanding tasks
		}
		close(tasks)
		genDone <- err
	}()

	// Coordinator: process every result (the channel closes once all
	// workers exit), cancelling outstanding work as soon as the outcome
	// is decided — the lowest-indexed success once every lower-indexed
	// task has genuinely failed (deterministic mode), the first success
	// (first-plan-wins), or a terminal error. Cancelled tasks are
	// tracked apart from failed ones: a cancellation says nothing about
	// the subtree, so it must never help confirm a winner.
	var (
		failed   = map[int]bool{}
		frontier = 0 // tasks below this index all genuinely failed
		bestIdx  = -1
		bestOut  []Step
		termErr  error
	)
	winnerConfirmed := func() bool {
		if bestIdx < 0 {
			return false
		}
		if e.opts.FirstPlanWins {
			return true
		}
		for failed[frontier] {
			delete(failed, frontier)
			frontier++
		}
		return frontier == bestIdx
	}
	for r := range results {
		switch {
		case r.err == nil:
			if bestIdx < 0 || r.idx < bestIdx {
				bestIdx, bestOut = r.idx, r.steps
			}
			best.record(r.idx)
		case errors.Is(r.err, errNotFound):
			failed[r.idx] = true
		case errors.Is(r.err, errCancelled):
			// Resolved but inconclusive; only possible after stop is
			// set or for tasks a success already made obsolete.
		default:
			if termErr == nil {
				termErr = r.err
			}
		}
		if !e.stop.isSet() && (termErr != nil || winnerConfirmed()) {
			e.stop.set()
		}
	}
	genErr := <-genDone
	for _, we := range workerEngines {
		e.mergeWorkerStats(we)
	}

	// All emitted tasks are resolved now. A success is the result only
	// once confirmed — every lower-indexed task exhausted its subtree —
	// so the deterministic engine returns the sequential plan even when
	// a concurrent subtree hit the deadline. An unconfirmed success
	// (some lower task timed out or was cancelled) must not win: which
	// plan survives would depend on scheduling.
	if winnerConfirmed() {
		return bestOut, nil
	}
	if termErr != nil {
		return nil, termErr
	}
	if genErr != nil && !errors.Is(genErr, errNotFound) &&
		!errors.Is(genErr, errDeferred) && !errors.Is(genErr, errCancelled) {
		return nil, genErr
	}
	if bestIdx >= 0 {
		// Unconfirmed success without any terminal error: cannot happen
		// (cancellations only follow a stop), but prefer the plan over
		// a bogus "no ordering" if it ever does.
		return bestOut, nil
	}
	return nil, ErrNoOrdering
}

// mergeWorkerStats folds a worker engine's counters into the base stats.
func (e *engine) mergeWorkerStats(w *engine) {
	e.stats.Checks += w.stats.Checks
	e.stats.ClassSkips += w.stats.ClassSkips
	e.stats.CexLearned += w.stats.CexLearned
	e.stats.WrongPruned += w.stats.WrongPruned
	e.stats.VisitedPruned += w.stats.VisitedPruned
	e.stats.Backtracks += w.stats.Backtracks
	e.stats.SATCalls += w.stats.SATCalls
	if w.stats.EarlyTerminate {
		e.stats.EarlyTerminate = true
	}
	for _, c := range w.checkers {
		s := c.Stats()
		e.stats.StatesLabeled += s.StatesLabeled
		e.stats.Relabels += s.Relabels
		e.stats.LabelsInterned += s.LabelsInterned
		e.stats.ExtendHits += s.ExtendHits
		e.stats.ExtendMisses += s.ExtendMisses
	}
}

// workerLoop consumes tasks until the channel closes, reporting exactly
// one result per task. A worker that found a plan is retired: its
// structures are left mid-plan (see runTask), and every later task is
// higher-indexed than its success, hence obsolete anyway.
func (w *engine) workerLoop(tasks <-chan task, results chan<- result, best *bestTracker) {
	retired := false
	for t := range tasks {
		if retired || w.stop.isSet() || best.obsolete(t.idx) {
			results <- result{idx: t.idx, err: errCancelled}
			continue
		}
		steps, err := w.runTask(t)
		if err == nil {
			retired = true
			best.record(t.idx)
		}
		results <- result{idx: t.idx, steps: steps, err: err}
	}
}

// runTask replays the task's prefix on the worker's private structures
// and explores the subtree below it. On failure it restores the initial
// state so the worker can take the next task; on success the structures
// are deliberately left mid-plan — the DFS does not unwind a winning
// path, and reverting only the prefix would replay undo tokens out of
// LIFO order on top of the suffix's updates. workerLoop retires the
// worker instead.
func (w *engine) runTask(t task) (steps []Step, err error) {
	// Fresh private visited set: marks surviving a cancelled task would
	// not be trustworthy (its exploration was incomplete).
	w.visited = newBitsetSet()
	applied := newBitset(len(w.units))
	type undo struct {
		sw     int
		tbl    network.Table
		frames []frame
	}
	var undos []undo
	defer func() {
		if err == nil {
			return // success: worker is retired, not restored
		}
		for i := len(undos) - 1; i >= 0; i-- {
			w.curTables[undos[i].sw] = undos[i].tbl
			w.revert(undos[i].frames)
		}
	}()
	var prefixSteps []Step
	for _, ui := range t.prefix {
		u := w.units[ui]
		newTbl := w.unitTable(u)
		oldTbl := w.curTables[u.sw]
		frames, checkFailed, aerr := w.replayUnit(u.sw, newTbl)
		if aerr != nil || checkFailed {
			w.revert(frames)
			if aerr != nil {
				return nil, aerr
			}
			// The generator verified this prefix passes every check, so
			// a failure here means the worker's cloned structures
			// diverged from the originals. Fail loudly rather than let
			// corrupt state masquerade as an exhausted subtree.
			return nil, fmt.Errorf("core: prefix replay diverged on sw%d (clone inconsistency)", u.sw)
		}
		undos = append(undos, undo{sw: u.sw, tbl: oldTbl, frames: frames})
		w.curTables[u.sw] = newTbl
		applied = applied.set(ui)
		prefixSteps = append(prefixSteps,
			Step{
				Switch: u.sw, Table: newTbl.Clone(),
				IsRule: u.isRule, RuleAdd: u.add, Rule: u.rule,
			},
			Step{Wait: true},
		)
	}
	rest, err := w.dfs(applied, len(t.prefix))
	if err != nil {
		if errors.Is(err, errNotFound) {
			w.markDead(applied)
		}
		return nil, err
	}
	return append(prefixSteps, rest...), nil
}

// replayUnit is applyAndCheck for a prefix the generator has already
// verified: the Kripke structures are updated as usual, but checkers
// that keep no incremental state (mc.Stateless — they re-derive
// everything on their next call) skip the redundant full re-check whose
// verdict is already known. Stateful checkers still run so their
// bookkeeping tracks the structure.
func (w *engine) replayUnit(sw int, tbl network.Table) (frames []frame, failed bool, err error) {
	for ci := range w.ks {
		delta, uerr := w.ks[ci].UpdateSwitch(sw, tbl)
		if uerr != nil {
			var loop *kripke.ErrLoop
			if errors.As(uerr, &loop) {
				w.ks[ci].Revert(delta)
				return frames, true, nil
			}
			return frames, false, uerr
		}
		if len(delta.Changed()) == 0 {
			w.stats.ClassSkips++
			frames = append(frames, frame{class: ci, delta: delta, token: nil})
			continue
		}
		if _, stateless := w.checkers[ci].(mc.Stateless); stateless {
			frames = append(frames, frame{class: ci, delta: delta, token: nil})
			continue
		}
		verdict, tok := w.checkers[ci].Update(delta)
		w.stats.Checks++
		frames = append(frames, frame{class: ci, delta: delta, token: tok})
		if !verdict.OK {
			return frames, true, nil
		}
	}
	return frames, false, nil
}
