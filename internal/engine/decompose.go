package engine

// Interference-partitioned search. ORDERUPDATE is factorial in the number
// of update units, and the paper's V/W/SAT optimizations only prune — they
// never shrink the problem. Realistic diffs (rolling datacenter updates,
// per-tenant reroutes) usually touch several independent regions: units
// that affect disjoint traffic classes can never invalidate each other's
// checks, so a joint search over n1+n2 units wastes exponential work that
// two searches of n1 and n2 units avoid. This file turns the synthesizer
// from one big search into a scheduler of small ones, and every search
// runs through it — a joint search is a one-component run:
//
//  1. Footprint pre-pass: each unit's *interference footprint* is the set
//     of traffic classes whose Kripke delta is non-empty for that unit —
//     the same per-class emptiness the engine's ClassSkips fast path
//     tests, hoisted into a pre-pass that reads, for each unit and class,
//     the successor lists the unit's table would give without installing
//     it. Per-class successor lists of a switch's arrival states are a
//     function of that switch's table alone, so delta emptiness between
//     two tables is context-free and one probe per (unit, class) is exact
//     for whole-table units. Rule units are the exception — whether an
//     add/delete changes class behavior depends on the rest of the table
//     (priority shadowing), so their footprint is the sound, context-free
//     over-approximation "classes whose packet the rule's pattern
//     matches" instead.
//
//  2. Interference graph: units are vertices; two units interfere when
//     they touch the same switch (their Step.Table snapshots and merge/
//     finalize prerequisites are only coherent within one search) or when
//     their footprints share a class. Connected components (union-find)
//     are the independent subproblems.
//
//  3. Sub-searches: each component becomes its own scenario — the current
//     configuration with only the component's switches moved to their
//     final tables, and only the component's class specifications — and
//     runs a full ORDERUPDATE search of its own. Unit numbering, and with
//     it the SAT early-termination instance, the wrong-pattern store, and
//     the dead set, are component-local. Components partition the
//     per-class structures, so concurrent sub-searches share the caller's
//     warm structures without cloning or locking. This is the
//     only concurrency inside a synthesis.
//
//  4. Composition: the careful sub-plans are concatenated in component
//     order (components sorted by lowest unit index, fixed before any
//     search starts), separated by waits, and the ordinary class-aware
//     wait-removal pass runs over the composed sequence. Every sub-search
//     is deterministic and composition order is schedule-independent, so
//     decomposed plans are reproducible on any number of CPUs.
//
// Soundness of composition: while component A's sub-plan executes, the
// structure of every class outside A is bit-for-bit unchanged (A's units
// have empty deltas for it — that is what the partition means), so a class
// keeps the verdict its own component's search established (a class no
// unit affects, the one it holds at the current configuration) — a
// checker's verdict is a function of its class structure alone (the
// mc.Checker contract).
//
// A connected diff is one component over its footprint classes: every
// other class has an empty delta for every unit, so a search over all
// classes would skip it at every check anyway. With decomposition off, or
// fewer than two units, the pre-pass is skipped and the one component is
// every unit over the request's affected classes.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/network"
)

// component is one independent subproblem of the interference partition.
type component struct {
	units    []int // request-engine unit ids, ascending
	classes  []int // spec indexes the subproblem must check, ascending
	switches []int // switches the units touch, ascending
}

// unitFootprints computes each unit's interference footprint: the sorted
// spec indexes of the classes the unit can affect, out of the attached
// ones — the request's affected classes aff, which is every class a
// changed rule matches. Whole-table units (switch granularity and
// 2-simple) are probed against the warm Kripke structures without
// installing anything: per class, the successor lists the unit's table
// gives the switch's arrival states are compared with the ones its
// structure holds (kripke.K.Moves), or, for a 2-simple finalize unit whose
// merge unit was probed, with the ones the merged table gives. Rule units
// use the pattern match over-approximation (see the file comment). The
// footprints are returned back to back, in the request scratch: unit i's
// are fps[ends[i-1]:ends[i]].
func (e *Engine) unitFootprints(aff *Affected) (fps, ends []int, _ error) {
	fps, ends = e.scr.fps[:0], e.scr.ints.take(len(e.units))
	defer func() { e.scr.fps = fps }()
	if e.rules {
		for _, u := range e.units {
			for _, ci := range e.classes {
				if headerMatches(u.rule.Match, e.sc.Specs[ci].Class.Packet()) {
					fps = append(fps, ci)
				}
			}
			ends[u.id] = len(fps)
		}
		return fps, ends, nil
	}
	// The affected-class list keeps the pass cheap: a class that cannot see
	// the switch's change — no added or removed rule matches its packet —
	// cannot see its behavior change (table application is priority-set
	// semantics, so a pure reorder of identical rules changes nothing
	// either), and only the surviving (unit, class) pairs pay for a probe.
	// merged[pos], in 2-simple mode, is the last merge unit probed on class
	// pos: its finalize unit moves the class from the merged table.
	var merged []int
	if e.twoSimple {
		merged = e.scr.ints.take(len(e.classes))
		for i := range merged {
			merged[i] = -1
		}
	}
	for _, u := range e.units {
		for pos, ci := range e.classes {
			if !slices.Contains(aff.SwitchesOf(pos), u.sw) {
				continue
			}
			var from network.Table // nil: the table the structure holds
			if e.twoSimple {
				// A switch carries a merge and a finalize unit, each moving
				// part of the switch's rule diff: what this one moves is
				// read against the table the class stands at before it (the
				// merged one only where the merge was probed).
				base := e.ks[pos].Table(u.sw)
				if u.requires >= 0 && merged[pos] == u.requires {
					from = e.units[u.requires].newTable
					base = from
				}
				removed, added := diffTables(base, u.newTable)
				if !rulesAffect(removed, added, e.sc.Specs[ci].Class.Packet()) {
					continue
				}
				if u.requires < 0 {
					merged[pos] = u.id
				}
			}
			moves, err := e.ks[pos].Moves(u.sw, from, u.newTable)
			e.stats.FootprintProbes++
			if err != nil {
				return nil, nil, err
			}
			if moves {
				fps = append(fps, ci)
			}
		}
		ends[u.id] = len(fps)
	}
	return fps, ends, nil
}

// components partitions the units into connected components of the
// interference graph, ordered by lowest unit id. It runs the footprint
// pre-pass and so must be called with the engine's structures attached
// and at the initial configuration. The components and their lists are
// the request scratch's.
func (e *Engine) components(aff *Affected) ([]component, error) {
	fps, ends, err := e.unitFootprints(aff)
	if err != nil {
		return nil, err
	}
	return e.partition(fps, ends), nil
}

// partition is components over the footprints unitFootprints returned.
func (e *Engine) partition(fps, ends []int) []component {
	scr := e.scr
	parent := scr.ints.take(len(e.units))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[rb] = ra
		}
	}
	for i, u := range e.units {
		// A switch's units are contiguous in id order (computeUnits emits
		// them per diff switch), so chaining each to the one before it
		// joins them all.
		if i > 0 && e.units[i-1].sw == u.sw {
			union(i-1, u.id)
		}
		if u.requires >= 0 {
			union(u.requires, u.id) // same switch today; kept explicit
		}
	}
	classUnit := scr.ints.take(len(e.sc.Specs))
	for i := range classUnit {
		classUnit[i] = -1
	}
	from := 0
	for id, to := range ends {
		for _, ci := range fps[from:to] {
			if classUnit[ci] < 0 {
				classUnit[ci] = id
			} else {
				union(classUnit[ci], id)
			}
		}
		from = to
	}
	// Number the components by lowest unit id and count their units and
	// classes, then carve their lists (a component's switches are at most
	// its units) and fill them in id order.
	n := len(e.units)
	rootComp, nUnits, nClasses := scr.ints.take(n), scr.ints.take(n), scr.ints.take(n)
	for i := 0; i < n; i++ {
		rootComp[i], nUnits[i], nClasses[i] = -1, 0, 0
	}
	comps := scr.comps[:0]
	for _, u := range e.units {
		r := find(u.id)
		if rootComp[r] < 0 {
			rootComp[r] = len(comps)
			comps = append(comps, component{})
		}
		nUnits[rootComp[r]]++
	}
	for _, uid := range classUnit {
		if uid >= 0 {
			nClasses[rootComp[find(uid)]]++
		}
	}
	for ci := range comps {
		c := &comps[ci]
		c.units, c.switches, c.classes = scr.ints.take(nUnits[ci])[:0], scr.ints.take(nUnits[ci])[:0], scr.ints.take(nClasses[ci])[:0]
	}
	for _, u := range e.units {
		c := &comps[rootComp[find(u.id)]]
		c.units = append(c.units, u.id)
		if k := len(c.switches); k == 0 || c.switches[k-1] != u.sw {
			c.switches = append(c.switches, u.sw)
		}
	}
	for ci, uid := range classUnit {
		if uid >= 0 {
			c := &comps[rootComp[find(uid)]]
			c.classes = append(c.classes, ci)
		}
	}
	scr.comps = comps
	return comps
}

// Fallback solves a component with no careful order (ErrNoOrdering) some
// other way — the repair ladder — as sc: the current configuration with the
// component's switches at their targets, over its classes; its spans go
// under span. It reports whether the steps are a two-phase segment.
type Fallback func(ctx context.Context, sc *config.Scenario, span int) ([]Step, bool, error)

// Search searches the attached classes for a plan to the request's target:
// one search per independent component of the diff (one component unless
// decompose is set), the careful sub-plans composed, the waits removed
// where removeWaits asks (Section 4.2.C) and the dependency DAG built. A
// plan holding a two-phase segment keeps every wait and carries a chain
// DAG: neither argument covers a segment that is not careful. A stuck
// component goes to fallback, when it is non-nil, unless some component's
// target failed its check. The steps and DAG are the caller's own. Search
// also returns the components (in composition order) whose searches
// finished, failed or not: their classes' structures stand at the target,
// the other attached ones anywhere between the endpoints.
func (e *Engine) Search(decompose, removeWaits bool, fallback Fallback) ([]Step, *PlanDAG, []int, error) {
	tr, root := e.trace, e.traceParent
	dcSpan := tr.Begin("decompose", root)
	comps, err := e.decompose(decompose)
	tr.End(dcSpan)
	start := time.Now()
	span := tr.Begin("search", root)
	var steps []Step
	var committed []int
	if err == nil {
		steps, committed, err = e.runComponents(comps, span, fallback)
	}
	tr.End(span)
	if !errors.Is(err, ErrFinalViolation) {
		// A refused target's answer is its target check (VerifyElapsed), not
		// a search phase.
		e.stats.SearchElapsed = time.Since(start)
	}
	if err != nil {
		return nil, nil, committed, err
	}
	e.stats.WaitsBefore = countWaits(steps)
	tagged := e.stats.TwoPhaseComponents > 0
	if removeWaits && !tagged {
		start := time.Now()
		span := tr.Begin("wait-removal", root)
		steps = e.removeWaits(steps)
		tr.End(span)
		e.stats.WaitRemovalElapsed = time.Since(start)
	} else {
		steps = ownSteps(steps)
	}
	e.stats.WaitsAfter = countWaits(steps)
	// The DAG is built over the final — possibly composed — step sequence,
	// which for decomposed runs yields the disjoint union of the component
	// sub-DAGs (components share no class and no switch, so no chain crosses
	// a component boundary).
	span = tr.Begin("dag-build", root)
	var dag *PlanDAG
	if tagged {
		dag = chainDAG(steps)
	} else {
		dag = e.buildDAG(steps)
	}
	tr.End(span)
	e.stats.DAGDepth, e.stats.DAGWidth = dag.Depth, dag.Width
	return steps, dag, committed, nil
}

// decompose partitions the diff into independent subproblems, at least
// one. Undecomposed, or for a diff of fewer than two units, the one
// component is the whole diff over the request's affected classes.
func (e *Engine) decompose(decompose bool) ([]component, error) {
	if !decompose || len(e.units) < 2 {
		units := e.scr.ints.take(len(e.units))
		for i := range units {
			units[i] = i
		}
		// Every diff switch carries a unit: its table changed by some rule.
		return []component{{units: units, classes: e.aff.Classes, switches: e.aff.Switches}}, nil
	}
	comps, err := e.components(e.aff)
	if err != nil {
		// A target table the pass cannot read (a rule that rewrites the
		// class packet) fails the target check, which names the violation
		// as it names any other.
		if verr := e.verifyTarget(); verr != nil {
			return nil, verr
		}
	}
	return comps, err
}

// compResult is one component sub-search's outcome. path is the
// component's region of the request's composition buffer, where a search
// that succeeds leaves its order; a component the repair ladder solved
// instead carries the ladder's steps in fallback.
type compResult struct {
	path     []Step
	fallback []Step
	fellBack bool
	stats    Stats
	err      error
	elapsed  time.Duration
}

// testSolveOrder, when non-nil, permutes the order components are handed
// to the solver goroutines. Composition order never depends on it — that
// is exactly what the metamorphic tests assert. Test-only.
var testSolveOrder func(n int) []int

// testAfterComponent, when non-nil, runs after each component sub-search
// returns, on the goroutine that ran it — the seam the CommittedComponents
// test uses to cancel a run between components searched one at a time.
// Test-only.
var testAfterComponent func(i int)

// runComponents runs the component sub-searches, up to GOMAXPROCS of them
// at once, and composes the careful sub-plans in component order. The
// calling goroutine is the first worker, so a one-component run takes no
// goroutine. Components partition the per-class structures, so the
// concurrent engines share the attached structures without cloning. A
// stuck component goes to fallback, when there is one, with its own
// classes and switches; the spans of both nest under span. Failures are
// reported deterministically: the lowest-indexed failing component wins,
// no matter which goroutine finished first. The components whose searches
// finished are returned, in a list of their own.
//
// Every unit is applied exactly once, so component i's order fills the
// units of the components before it onward in the request scratch's
// composition buffer: the regions are disjoint and the workers write them
// without a lock. The careful sequence — a wait between every two updates
// — is composed from them in the request scratch, and is valid until the
// scratch is reset.
func (e *Engine) runComponents(comps []component, span int, fallback Fallback) ([]Step, []int, error) {
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	if testSolveOrder != nil {
		order = testSolveOrder(len(comps))
	}

	results := slices.Grow(e.scr.results[:0], len(comps))[:len(comps)]
	clear(results)
	e.scr.results = results
	upd := slices.Grow(e.scr.upd[:0], len(e.units))[:len(e.units)]
	e.scr.upd = upd
	at := 0
	for i := range comps {
		n := len(comps[i].units)
		results[i].path = upd[at : at+n : at+n]
		at += n
	}
	var next atomic.Int32
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				return
			}
			i := order[k]
			e.solveComponent(&comps[i], i, span, &results[i])
			if testAfterComponent != nil {
				testAfterComponent(i)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(comps), runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	e.stats.Components = len(comps)
	// A target that fails its check is the answer whatever else the
	// components met, and no fallback ladder may route around it.
	var runErr error
	for i := range results {
		if errors.Is(results[i].err, ErrFinalViolation) {
			runErr = results[i].err
			break
		}
	}
	refused := runErr != nil
	var committed []int
	for i := range results {
		r := &results[i]
		e.stats.addSearch(r.stats)
		e.stats.ComponentElapsed = append(e.stats.ComponentElapsed, r.elapsed)
		if r.err == nil {
			// The sub-search finished: its classes' warm structures sit at
			// the target tables whatever the other components did.
			committed = append(committed, i)
		} else if fallback != nil && !refused && errors.Is(r.err, ErrNoOrdering) {
			c := &comps[i]
			final := e.sc.Init.Clone()
			for _, sw := range c.switches {
				final.SetTable(sw, e.sc.Final.Table(sw).Clone())
			}
			var twoPhase bool
			r.fallback, twoPhase, r.err = fallback(e.ctx, &config.Scenario{
				Name: fmt.Sprintf("%s#c%d-fallback", e.sc.Name, i),
				Topo: e.sc.Topo, Init: e.sc.Init, Final: final, Specs: e.specsOf(nil, c.classes),
			}, span)
			if r.err == nil {
				r.fellBack = true
				if twoPhase {
					e.stats.TwoPhaseComponents++
				} else {
					e.stats.EscalatedComponents++
				}
			}
		}
		if r.err != nil && runErr == nil {
			runErr = r.err
		}
	}
	if runErr != nil {
		return nil, committed, runErr
	}
	n := len(results) - 1 // the waits between sub-plans
	for i := range results {
		if r := &results[i]; r.fellBack {
			n += len(r.fallback)
		} else {
			n += max(2*len(r.path)-1, 0)
		}
	}
	steps := slices.Grow(e.scr.steps[:0], n)
	for i := range results {
		r := &results[i]
		if r.fellBack {
			if len(steps) > 0 {
				steps = append(steps, Step{Wait: true})
			}
			steps = append(steps, r.fallback...)
			continue
		}
		for _, st := range r.path {
			if len(steps) > 0 {
				steps = append(steps, Step{Wait: true})
			}
			steps = append(steps, st)
		}
	}
	e.scr.steps = steps
	return steps, committed, nil
}

// specsOf appends to dst the specifications of the given classes (spec
// indexes).
func (e *Engine) specsOf(dst []config.ClassSpec, classes []int) []config.ClassSpec {
	for _, ci := range classes {
		dst = append(dst, e.sc.Specs[ci])
	}
	return dst
}

// solveComponent runs one full ORDERUPDATE search over a component: the
// current configuration with only the component's switches moved to their
// final tables, checked against only the component's classes. The
// sub-engine inherits the request engine's units for the component —
// renumbered to a component-local 0..n-1 range in its own scratch, which
// also renumbers the SAT early-termination variables, wrong patterns, and
// dead-set bitmasks — and picks its classes' structures and checkers out
// of the request engine's attached ones (no other component touches them).
// It copies the order it finds into r.path and hands its scratch back as
// soon as the search ends. The request's context bounds every component.
func (e *Engine) solveComponent(c *component, idx, parent int, r *compResult) {
	start := time.Now()
	// Each component gets its own trace lane so concurrent sub-searches
	// render as parallel rows; Begin reserves ring slots atomically, so
	// recording from the solver goroutines is safe.
	span := 0
	if e.trace != nil {
		span = e.trace.BeginLane(fmt.Sprintf("component-%d", idx), parent, idx+1)
		defer func() {
			e.trace.EndDetail(span, fmt.Sprintf("units=%d classes=%d", len(c.units), len(c.classes)))
		}()
	}
	scr := scratchPool.Get().(*engineScratch)
	defer putScratch(scr)
	units := scr.units[:0]
	for i, uid := range c.units {
		u := e.units[uid]
		u.id = i
		if u.requires >= 0 {
			lr, ok := slices.BinarySearch(c.units, u.requires) // c.units is ascending
			if !ok {
				r.err = fmt.Errorf("engine: component %d split a requires edge (unit %d needs %d)",
					idx, uid, u.requires)
				r.elapsed = time.Since(start)
				return
			}
			u.requires = lr
		}
		units = append(units, u)
	}
	scr.units = units
	// The sub-engine inherits its units and never derives anything from
	// Final (computeUnits and wait removal run only on the request engine),
	// so the full target is recorded as-is instead of building a
	// per-component overlay configuration nothing would read.
	scr.specs = e.specsOf(scr.specs[:0], c.classes)
	scr.sc = config.Scenario{Name: e.sc.Name, Topo: e.sc.Topo, Init: e.sc.Init, Final: e.sc.Final, Specs: scr.specs}
	ec := newEngineShellWith(&scr.sc, e.abl, units, scr)
	ec.ctx, ec.aff = e.ctx, e.aff
	ec.trace, ec.traceParent, ec.traceLane = e.trace, span, idx+1
	ec.classes = c.classes
	for _, ci := range c.classes {
		pos, _ := slices.BinarySearch(e.classes, ci) // both ascending
		ec.ks = append(ec.ks, e.ks[pos])
		ec.checkers = append(ec.checkers, e.checkers[pos])
	}
	ec.snapshotCheckerStats()
	path, err := ec.run()
	copy(r.path, path)
	ec.collectCheckerStats()
	r.stats, r.err, r.elapsed = ec.stats, err, time.Since(start)
}
