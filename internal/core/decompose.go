package core

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
//     tests, hoisted into a pre-pass that applies and reverts each unit
//     once against the warm structures. Per-class successor lists of a
//     switch's arrival states are a function of that switch's table
//     alone, so delta emptiness between two tables is context-free and
//     one probe per (unit, class) is exact for whole-table units. Rule
//     units are the exception — whether an add/delete changes class
//     behavior depends on the rest of the table (priority shadowing), so
//     their footprint is the sound, context-free over-approximation
//     "classes whose packet the rule's pattern matches" instead.
//
//  2. Interference graph: units are vertices; two units interfere when
//     they touch the same switch (their Step.Table snapshots and merge/
//     finalize prerequisites are only coherent within one search) or when
//     their footprints share a class. Connected components (union-find)
//     are the independent subproblems.
//
//  3. Sub-searches: each component becomes its own scenario — the session
//     configuration with only the component's switches moved to their
//     final tables, and only the component's class specifications — and
//     runs a full ORDERUPDATE search of its own. Unit numbering, and with
//     it the SAT early-termination instance, the wrong-pattern store, and
//     the dead set, are component-local. Components partition the
//     per-class structures, so concurrent sub-searches share the
//     session's warm structures without cloning or locking. This is the
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
// keeps the verdict its own component's search (or, for classes no unit
// affects, the endpoint verification) established — a checker's verdict
// is a function of its class structure alone (the mc.Checker contract).
//
// A connected diff is one component over its footprint classes: every
// other class has an empty delta for every unit, so a search over all
// classes would skip it at every check anyway. With decomposition off, or
// fewer than two units, the pre-pass is skipped and the one component is
// every unit over the request's affected classes.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
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
// 2-simple) are probed against the warm Kripke structures — applied in id
// order so a finalize step lands on top of its merge step, probed per
// class for delta emptiness, and reverted before the next switch's units —
// which keeps every structure at the initial configuration when the
// pre-pass returns. Rule units use the pattern match over-approximation
// (see the file comment). The footprints are returned back to back, in the
// request scratch: unit i's are fps[ends[i-1]:ends[i]].
func (e *engine) unitFootprints(aff *affectedClasses) (fps, ends []int, _ error) {
	fps, ends = e.scr.fps[:0], e.scr.ints.take(len(e.units))
	defer func() { e.scr.fps = fps }()
	if e.opts.RuleGranularity {
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
	// Units of one switch are contiguous in id order (computeUnits emits
	// them per diff switch), so a switch's chain is reverted as soon as
	// the next switch begins and probes of different switches never see
	// each other's updates. The affected-class list keeps the pass cheap: a
	// class that cannot see the switch's change — no added or removed rule
	// matches its packet — cannot see its behavior change (table
	// application is priority-set semantics, so a pure reorder of identical
	// rules changes nothing either), and only the surviving (unit, class)
	// pairs pay for an exact apply/revert probe.
	pend := e.frameBuf(0)
	defer func() { e.scr.frames[0] = pend }()
	flush := func() {
		e.revert(pend)
		pend = pend[:0]
	}
	curSw := -1
	for _, u := range e.units {
		if u.sw != curSw {
			flush()
			curSw = u.sw
		}
		for pos, ci := range e.classes {
			if !slices.Contains(aff.switchesOf(pos), u.sw) {
				continue
			}
			if e.opts.TwoSimple {
				// A switch carries a merge and a finalize unit, each moving
				// part of the switch's rule diff: what this one moves is
				// read against the table the class's structure holds now
				// (the merged one only where the merge was probed).
				removed, added := diffTables(e.ks[pos].Table(u.sw), u.newTable)
				if !rulesAffect(removed, added, e.sc.Specs[ci].Class.Packet()) {
					continue
				}
			}
			delta, err := e.ks[pos].UpdateSwitch(u.sw, u.newTable)
			e.stats.FootprintProbes++
			if err != nil {
				if _, isLoop := err.(*kripke.ErrLoop); !isLoop {
					// Packet-modification errors are terminal; loops are
					// expected mid-probe (an upstream switch applied alone
					// can loop) and leave the update applied + revertible.
					flush()
					return nil, nil, err
				}
			}
			pend = append(pend, frame{class: pos, delta: delta})
			if len(delta.Changed()) > 0 {
				fps = append(fps, ci)
			}
		}
		ends[u.id] = len(fps)
	}
	flush()
	return fps, ends, nil
}

// components partitions the units into connected components of the
// interference graph, ordered by lowest unit id. It runs the footprint
// pre-pass and so must be called with the engine's structures attached
// and at the initial configuration; it leaves them there. The components
// and their lists are the request scratch's.
func (e *engine) components(aff *affectedClasses) ([]component, error) {
	fps, ends, err := e.unitFootprints(aff)
	if err != nil {
		return nil, err
	}
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
	return comps, nil
}

// decompose partitions the diff into independent subproblems, at least
// one. With decomposition disabled, or a diff of fewer than two units,
// the one component is the whole diff over the request's affected classes.
func (s *Session) decompose(e *engine) ([]component, error) {
	if s.opts.NoDecomposition || len(e.units) < 2 {
		units := e.scr.ints.take(len(e.units))
		for i := range units {
			units[i] = i
		}
		return []component{{units: units, classes: s.aff.classes, switches: e.unitSwitches()}}, nil
	}
	return e.components(&s.aff)
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
// concurrent engines share the session's warm state without cloning. In
// repair mode a stuck component runs the fallback ladder (repair.go) over
// its own classes and switches. Failures are reported deterministically:
// the lowest-indexed failing component wins, no matter which goroutine
// finished first.
//
// Every unit is applied exactly once, so component i's order fills the
// units of the components before it onward in the request scratch's
// composition buffer: the regions are disjoint and the workers write them
// without a lock. The careful sequence — a wait between every two updates
// — is composed from them in the request scratch, and is valid until the
// scratch is reset.
func (s *Session) runComponents(e *engine, comps []component, final *config.Config) ([]Step, error) {
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
			s.solveComponent(e, &comps[i], i, final, &results[i])
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
	var runErr error
	for i := range results {
		r := &results[i]
		e.stats.addSearch(r.stats)
		e.stats.ComponentElapsed = append(e.stats.ComponentElapsed, r.elapsed)
		if r.err == nil {
			// The sub-search finished: its classes' warm structures sit at
			// the target tables whatever the other components did.
			e.stats.CommittedComponents = append(e.stats.CommittedComponents, i)
		} else if s.repairing && errors.Is(r.err, ErrNoOrdering) {
			c := &comps[i]
			var twoPhase bool
			r.fallback, twoPhase, r.err = s.repairFallback(
				e.ctx, fmt.Sprintf("%s#c%d-fallback", e.sc.Name, i), s.specsOf(nil, c.classes), c.switches, final)
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
		return nil, runErr
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
	return steps, nil
}

// specsOf appends to dst the specifications of the given classes (spec
// indexes).
func (s *Session) specsOf(dst []config.ClassSpec, classes []int) []config.ClassSpec {
	for _, ci := range classes {
		dst = append(dst, s.specs[ci])
	}
	return dst
}

// solveComponent runs one full ORDERUPDATE search over a component: the
// session configuration with only the component's switches moved to their
// final tables, checked against only the component's classes. The
// sub-engine inherits the request engine's units for the component —
// renumbered to a component-local 0..n-1 range in its own scratch, which
// also renumbers the SAT early-termination variables, wrong patterns, and
// dead-set bitmasks — and reuses the session's warm structures for its
// classes directly (no other component touches them). It copies the order
// it finds into r.path and hands its scratch back as soon as the search
// ends. Options.Timeout bounds each component separately.
func (s *Session) solveComponent(e *engine, c *component, idx int, final *config.Config, r *compResult) {
	start := time.Now()
	// Each component gets its own trace lane so concurrent sub-searches
	// render as parallel rows; Begin reserves ring slots atomically, so
	// recording from the solver goroutines is safe.
	span := 0
	if s.trace != nil {
		span = s.trace.BeginLane(fmt.Sprintf("component-%d", idx), s.traceSearch, idx+1)
		defer func() {
			s.trace.EndDetail(span, fmt.Sprintf("units=%d classes=%d", len(c.units), len(c.classes)))
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
				r.err = fmt.Errorf("core: component %d split a requires edge (unit %d needs %d)",
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
	scr.specs = s.specsOf(scr.specs[:0], c.classes)
	scr.sc = config.Scenario{Name: e.sc.Name, Topo: s.topo, Init: s.cur, Final: final, Specs: scr.specs}
	ec := newEngineShellWith(&scr.sc, s.opts, s.abl, units, scr)
	ec.bindContext(e.ctx)
	s.attach(ec, c.classes)
	ec.snapshotCheckerStats()
	path, err := ec.run()
	copy(r.path, path)
	ec.collectCheckerStats()
	r.stats, r.err, r.elapsed = ec.stats, err, time.Since(start)
}
