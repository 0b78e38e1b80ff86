package core

// Interference-partitioned search. ORDERUPDATE is factorial in the number
// of update units, and the paper's V/W/SAT optimizations only prune — they
// never shrink the problem. Realistic diffs (rolling datacenter updates,
// per-tenant reroutes) usually touch several independent regions: units
// that affect disjoint traffic classes can never invalidate each other's
// checks, so a joint search over n1+n2 units wastes exponential work that
// two searches of n1 and n2 units avoid. This file turns the synthesizer
// from one big search into a scheduler of small ones:
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
// A single-component diff runs the joint engine over the component's
// classes only: every other class has an empty delta for every
// unit, so the joint search over all classes would skip it at every check
// anyway. Plans are byte-identical to the all-class joint search.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
)

// component is one independent subproblem of the interference partition.
type component struct {
	units    []int // joint-engine unit ids, ascending
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
// (see the file comment).
func (e *engine) unitFootprints(aff *affectedClasses) ([][]int, error) {
	fps := make([][]int, len(e.units))
	if e.opts.RuleGranularity {
		for _, u := range e.units {
			for _, ci := range e.classes {
				if headerMatches(u.rule.Match, e.sc.Specs[ci].Class.Packet()) {
					fps[u.id] = append(fps[u.id], ci)
				}
			}
		}
		return fps, nil
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
					return nil, err
				}
			}
			pend = append(pend, frame{class: pos, delta: delta})
			if len(delta.Changed()) > 0 {
				fps[u.id] = append(fps[u.id], ci)
			}
		}
	}
	flush()
	return fps, nil
}

// components partitions the units into connected components of the
// interference graph, ordered by lowest unit id. It runs the footprint
// pre-pass and so must be called with the engine's structures attached
// and at the initial configuration; it leaves them there.
func (e *engine) components(aff *affectedClasses) ([]component, error) {
	fps, err := e.unitFootprints(aff)
	if err != nil {
		return nil, err
	}
	parent := make([]int, len(e.units))
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
	lastOnSwitch := map[int]int{}
	for _, u := range e.units {
		if prev, ok := lastOnSwitch[u.sw]; ok {
			union(prev, u.id)
		}
		lastOnSwitch[u.sw] = u.id
		if u.requires >= 0 {
			union(u.requires, u.id) // same switch today; kept explicit
		}
	}
	classUnit := make([]int, len(e.sc.Specs))
	for i := range classUnit {
		classUnit[i] = -1
	}
	for id, fp := range fps {
		for _, ci := range fp {
			if classUnit[ci] < 0 {
				classUnit[ci] = id
			} else {
				union(classUnit[ci], id)
			}
		}
	}
	index := map[int]int{} // union root -> comps index
	var comps []component
	for _, u := range e.units { // id order: components sorted by lowest unit id
		r := find(u.id)
		ci, ok := index[r]
		if !ok {
			ci = len(comps)
			index[r] = ci
			comps = append(comps, component{})
		}
		c := &comps[ci]
		c.units = append(c.units, u.id)
		if n := len(c.switches); n == 0 || c.switches[n-1] != u.sw {
			c.switches = append(c.switches, u.sw)
		}
	}
	for ci, uid := range classUnit {
		if uid >= 0 {
			c := &comps[index[find(uid)]]
			c.classes = append(c.classes, ci)
		}
	}
	return comps, nil
}

// decompose partitions the diff into independent subproblems. Several
// components run as separate sub-searches (runDecomposed); a single one
// names the classes the diff can affect, and the joint engine runs over
// those alone (attach). (nil, nil) leaves the joint engine on the request's
// affected classes: decomposition is disabled or the diff is trivially
// small.
func (s *Session) decompose(e *engine) ([]component, error) {
	if s.opts.NoDecomposition || len(e.units) < 2 {
		return nil, nil
	}
	return e.components(&s.aff)
}

// compResult is one component sub-search's outcome.
type compResult struct {
	steps   []Step
	stats   Stats
	err     error
	elapsed time.Duration
}

// testSolveOrder, when non-nil, permutes the order components are handed
// to the solver goroutines. Composition order never depends on it — that
// is exactly what the metamorphic tests assert. Test-only.
var testSolveOrder func(n int) []int

// testAfterComponent, when non-nil, runs after each component sub-search
// returns (serial scheduling only) — the seam the CommittedComponents
// test uses to cancel a run between components. Test-only.
var testAfterComponent func(i int)

// runDecomposed runs the component sub-searches, up to GOMAXPROCS of them
// at once, and composes the careful sub-plans in component order.
// Components partition the per-class structures, so the concurrent
// engines share the session's warm state without cloning. Failures are
// reported deterministically: the lowest-indexed failing component wins,
// no matter which goroutine finished first.
func (s *Session) runDecomposed(e *engine, comps []component, final *config.Config) ([]Step, error) {
	slots := min(len(comps), runtime.GOMAXPROCS(0))

	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	if testSolveOrder != nil {
		order = testSolveOrder(len(comps))
	}

	results := make([]compResult, len(comps))
	if slots == 1 {
		for _, i := range order {
			results[i] = s.solveComponent(e, &comps[i], i, final)
			if testAfterComponent != nil {
				testAfterComponent(i)
			}
		}
	} else {
		idx := make(chan int, len(comps))
		for _, i := range order {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		for w := 0; w < slots; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = s.solveComponent(e, &comps[i], i, final)
				}
			}()
		}
		wg.Wait()
	}

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
			// Repair mode: a stuck component runs the fallback ladder
			// (repair.go) instead of failing the whole run.
			c := &comps[i]
			specs := make([]config.ClassSpec, 0, len(c.classes))
			for _, ci := range c.classes {
				specs = append(specs, s.specs[ci])
			}
			var twoPhase bool
			r.steps, twoPhase, r.err = s.repairFallback(
				e.ctx, fmt.Sprintf("%s#c%d-fallback", e.sc.Name, i), specs, c.switches, final)
			if r.err == nil {
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
	n := max(len(results)-1, 0) // the waits between sub-plans
	for i := range results {
		n += len(results[i].steps)
	}
	steps := make([]Step, 0, n)
	for i := range results {
		if len(steps) > 0 {
			steps = append(steps, Step{Wait: true})
		}
		steps = append(steps, results[i].steps...)
	}
	return steps, nil
}

// solveComponent runs one full ORDERUPDATE search over a component: the
// session configuration with only the component's switches moved to their
// final tables, checked against only the component's classes. The
// sub-engine inherits the joint shell's units for the component —
// renumbered to a component-local 0..n-1 range, which also renumbers the
// SAT early-termination variables, wrong patterns, and dead-set bitmasks
// — and reuses the session's warm structures for its classes directly
// (no other component touches them). Options.Timeout bounds each
// component separately.
func (s *Session) solveComponent(e *engine, c *component, idx int, final *config.Config) compResult {
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
	specs := make([]config.ClassSpec, 0, len(c.classes))
	for _, ci := range c.classes {
		specs = append(specs, s.specs[ci])
	}
	// The sub-engine inherits its units below and never derives anything
	// from Final (computeUnits and wait removal run only on the joint
	// shell), so the full target is recorded as-is instead of building a
	// per-component overlay configuration nothing would read.
	scC := &config.Scenario{
		Name:  fmt.Sprintf("%s#c%d", e.sc.Name, idx),
		Topo:  s.topo,
		Init:  s.cur,
		Final: final,
		Specs: specs,
	}
	units := make([]unit, len(c.units))
	for i, uid := range c.units {
		u := e.units[uid]
		u.id = i
		if u.requires >= 0 {
			lr, ok := slices.BinarySearch(c.units, u.requires) // c.units is ascending
			if !ok {
				return compResult{
					err: fmt.Errorf("core: component %d split a requires edge (unit %d needs %d)",
						idx, uid, u.requires),
					elapsed: time.Since(start),
				}
			}
			u.requires = lr
		}
		units[i] = u
	}
	scr := scratchPool.Get().(*engineScratch)
	defer putScratch(scr)
	ec := newEngineShellWith(scC, s.opts, s.abl, units, scr)
	ec.bindContext(e.ctx)
	s.attach(ec, c.classes)
	ec.snapshotCheckerStats()
	steps, err := ec.run()
	ec.collectCheckerStats()
	return compResult{steps: steps, stats: ec.stats, err: err, elapsed: time.Since(start)}
}
