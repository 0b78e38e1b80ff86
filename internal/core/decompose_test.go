package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// multiRegionScenario builds the decomposition workload: regions
// independent diamond groups, optionally coupled by cross classes.
func multiRegionScenario(t testing.TB, regions, pairs, cross int, seed int64) *config.Scenario {
	t.Helper()
	topo := topology.SmallWorld(160, 6, 0.3, 7)
	sc, err := config.MultiRegion(topo, config.MultiRegionOptions{
		Regions: regions, PairsPerRegion: pairs, CrossClasses: cross,
		Property: config.Reachability, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// newEngineShell builds an engine shell for sc's own diff, as
// Session.synthesize does for a request's.
func newEngineShell(sc *config.Scenario, opts Options, scr *engineScratch) (*engine, error) {
	units, err := computeUnits(nil, sc, config.Diff(sc.Init, sc.Final), nil, opts.RuleGranularity, opts.TwoSimple)
	if err != nil {
		return nil, err
	}
	return newEngineShellWith(sc, opts, Ablation{}, units, scr), nil
}

// engineFor builds a session-attached engine shell for white-box
// partition tests.
func engineFor(t *testing.T, sc *config.Scenario, opts Options) (*Session, *engine) {
	t.Helper()
	s, err := NewSession(sc.Topo, sc.Init, sc.Specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngineShell(sc, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.diffBuf = ruleDiffs(s.diffBuf, sc.Init, sc.Final, config.Diff(sc.Init, sc.Final))
	s.aff.reset(s.specs, s.diffBuf)
	s.attach(e, s.aff.classes)
	return s, e
}

// singleComponentTarget returns the target that moves only the idx-th
// interference component of sc's diff to its final tables — a diff the
// partition cannot split, whose footprint leaves every other component's
// classes out — together with that component.
func singleComponentTarget(t *testing.T, sc *config.Scenario, idx int) (*config.Config, component) {
	t.Helper()
	s, e := engineFor(t, sc, Options{})
	comps, err := e.components(&s.aff)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= len(comps) {
		t.Fatalf("scenario has %d components, want more than %d", len(comps), idx)
	}
	target := sc.Init.Clone()
	for _, sw := range comps[idx].switches {
		target.SetTable(sw, sc.Final.Table(sw).Clone())
	}
	return target, comps[idx]
}

// TestComponentsPartition: on a 3-region workload with no cross traffic
// the interference graph must fall apart into exactly 3 components that
// partition the units, switches, and classes; one cross class must merge
// two of them.
func TestComponentsPartition(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	s, e := engineFor(t, sc, Options{})
	comps, err := e.components(&s.aff)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	unitSeen := make([]bool, len(e.units))
	classSeen := make([]bool, len(sc.Specs))
	for _, c := range comps {
		if len(c.units) == 0 || len(c.classes) == 0 || len(c.switches) == 0 {
			t.Fatalf("degenerate component %+v", c)
		}
		for _, id := range c.units {
			if unitSeen[id] {
				t.Fatalf("unit %d in two components", id)
			}
			unitSeen[id] = true
		}
		for _, ci := range c.classes {
			if classSeen[ci] {
				t.Fatalf("class %d in two components", ci)
			}
			classSeen[ci] = true
		}
	}
	for id, seen := range unitSeen {
		if !seen {
			t.Fatalf("unit %d in no component", id)
		}
	}
	// Components are ordered by lowest unit id.
	for i := 1; i < len(comps); i++ {
		if comps[i-1].units[0] >= comps[i].units[0] {
			t.Fatalf("components out of order: %v then %v", comps[i-1].units, comps[i].units)
		}
	}

	scX := multiRegionScenario(t, 3, 1, 1, 11)
	sX, eX := engineFor(t, scX, Options{})
	compsX, err := eX.components(&sX.aff)
	if err != nil {
		t.Fatal(err)
	}
	if len(compsX) != 2 {
		t.Fatalf("components with one cross class = %d, want 2", len(compsX))
	}
	if eX.stats.FootprintProbes == 0 {
		t.Fatal("footprint pre-pass ran no probes")
	}
}

// atProcs runs f with GOMAXPROCS — which sizes the component scheduler —
// set to n: 1 searches the components one at a time, more concurrently.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestDecomposedSynthesis: the partitioned engine must produce valid
// plans on multi-region workloads, report the component count, agree
// with the joint engine on feasibility, and stay deterministic however
// many components run at once.
func TestDecomposedSynthesis(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	joint, err := Synthesize(sc, Options{NoDecomposition: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, joint)
	if joint.Stats.Components != 1 {
		t.Fatalf("joint Components = %d, want 1", joint.Stats.Components)
	}
	var first *Plan
	for _, workers := range []int{1, 4} {
		var plan *Plan
		atProcs(workers, func() { plan, err = Synthesize(sc, Options{}) })
		if err != nil {
			t.Fatalf("decomposed workers=%d: %v", workers, err)
		}
		verifyPlan(t, sc, plan)
		if plan.Stats.Components != 3 {
			t.Fatalf("workers=%d: Components = %d, want 3", workers, plan.Stats.Components)
		}
		if len(plan.Stats.ComponentElapsed) != 3 {
			t.Fatalf("workers=%d: ComponentElapsed = %v, want 3 entries", workers, plan.Stats.ComponentElapsed)
		}
		if plan.Stats.FootprintProbes == 0 {
			t.Fatalf("workers=%d: no footprint probes recorded", workers)
		}
		if first == nil {
			first = plan
		} else if plan.String() != first.String() {
			t.Fatalf("decomposed plan depends on how many components run at once:\n 1: %s\n%d: %s",
				first, workers, plan)
		}
	}
	// The plans must reach the same final configuration; step orders may
	// legitimately differ between joint and decomposed search.
	if got, want := len(first.Updates()), len(joint.Updates()); got != want {
		t.Fatalf("decomposed updates = %d, joint = %d", got, want)
	}
}

// TestDecomposedConformanceSingleComponent: whenever the partition finds
// a single component — connected diffs, every Figure 1 example, the
// infeasible gadget — the decomposed engine must return byte-identical
// plans to the joint engine. Multi-component scenarios must still agree
// on feasibility and validity.
func TestDecomposedConformanceSingleComponent(t *testing.T) {
	cases := []conformanceCase{
		{name: "fig1-red-green", sc: config.Fig1RedGreen()},
		{name: "fig1-red-blue", sc: config.Fig1RedBlue()},
		{name: "fig1-waypoint", sc: config.Fig1RedBlueWaypoint()},
	}
	topo := topology.SmallWorld(60, 4, 0.3, 60)
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 1, Property: config.Reachability, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, conformanceCase{name: "diamond-single", sc: sc})
	topoI := topology.SmallWorld(40, 4, 0.3, 21)
	scInf, err := config.Infeasible(topoI, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		conformanceCase{name: "infeasible-switch", sc: scInf},
		conformanceCase{name: "infeasible-2simple", sc: scInf, opts: Options{TwoSimple: true}},
		conformanceCase{name: "infeasible-rules", sc: scInf, opts: Options{RuleGranularity: true}},
	)
	for _, c := range cases {
		jointOpts := c.opts
		jointOpts.NoDecomposition = true
		jointFeasible, jointPlan := synthesizeOutcome(t, c.name+"/joint", c.sc, jointOpts)
		feasible, plan := synthesizeOutcome(t, c.name+"/decomposed", c.sc, c.opts)
		if feasible != jointFeasible {
			t.Fatalf("%s: decomposed feasible=%v, joint=%v", c.name, feasible, jointFeasible)
		}
		if !feasible {
			continue
		}
		verifyPlan(t, c.sc, plan)
		if plan.Stats.Components <= 1 {
			if got, want := plan.String(), jointPlan.String(); got != want {
				t.Fatalf("%s: single-component plan diverged:\n got %s\nwant %s", c.name, got, want)
			}
		}
	}
}

// TestDecomposedSolveOrderMetamorphic: the order in which components are
// solved — whichever goroutine picks them up, whatever permutation the
// queue feeds — must never change the composed plan.
func TestDecomposedSolveOrderMetamorphic(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	base, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Components != 3 {
		t.Fatalf("Components = %d, want 3", base.Stats.Components)
	}
	defer func() { testSolveOrder = nil }()
	for _, perm := range [][]int{{2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}} {
		perm := perm
		testSolveOrder = func(n int) []int {
			if n != len(perm) {
				t.Fatalf("solve order hook saw %d components, want %d", n, len(perm))
			}
			return perm
		}
		var plan *Plan
		atProcs(1, func() { plan, err = Synthesize(sc, Options{}) })
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		if plan.String() != base.String() {
			t.Fatalf("solve order %v changed the composed plan:\n got %s\nwant %s",
				perm, plan, base)
		}
	}
	testSolveOrder = nil
	// Concurrent component scheduling (more CPUs than components: one
	// goroutine each) must agree too; run a few times to shake schedules.
	for i := 0; i < 3; i++ {
		var plan *Plan
		atProcs(8, func() { plan, err = Synthesize(sc, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if plan.String() != base.String() {
			t.Fatalf("concurrent solve changed the composed plan:\n got %s\nwant %s", plan, base)
		}
	}
}

// TestDecomposedInfeasibleRegion: a workload with one double-diamond
// gadget region has no switch-granularity ordering; the decomposed and
// joint engines must agree on impossibility, with the decomposed proof
// confined to the gadget's component.
func TestDecomposedInfeasibleRegion(t *testing.T) {
	topo := topology.SmallWorld(160, 6, 0.3, 7)
	sc, err := config.MultiRegion(topo, config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1,
		Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Feasible {
		t.Fatal("scenario with a gadget region must be marked infeasible")
	}
	if _, err := Synthesize(sc, Options{NoDecomposition: true}); err != ErrNoOrdering {
		t.Fatalf("joint err = %v, want ErrNoOrdering", err)
	}
	if _, err := Synthesize(sc, Options{}); err != ErrNoOrdering {
		t.Fatalf("decomposed err = %v, want ErrNoOrdering", err)
	}
	// At rule granularity the gadget is solvable; the decomposed engine
	// must find a valid composed plan there too.
	plan, err := Synthesize(sc, Options{RuleGranularity: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, plan)
	if plan.Stats.Components < 2 {
		t.Fatalf("rule-granularity Components = %d, want >= 2", plan.Stats.Components)
	}
}

// TestDecomposedSessionStream: a long-lived session must serve
// decomposed syntheses back and forth, resyncing its warm structures
// between runs.
func TestDecomposedSessionStream(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	s, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		fwd, err := s.Synthesize(sc.Final)
		if err != nil {
			t.Fatalf("round %d forward: %v", round, err)
		}
		verifyPlan(t, sc, fwd)
		if fwd.Stats.Components != 3 {
			t.Fatalf("round %d forward: Components = %d, want 3", round, fwd.Stats.Components)
		}
		back, err := s.Synthesize(sc.Init)
		if err != nil {
			t.Fatalf("round %d back: %v", round, err)
		}
		if back.Stats.Components != 3 {
			t.Fatalf("round %d back: Components = %d, want 3", round, back.Stats.Components)
		}
	}
	if s.Runs() != 4 {
		t.Fatalf("runs = %d, want 4", s.Runs())
	}
}

// TestDecomposedFailureResync: when one component of a decomposed run
// fails, the components that already succeeded have left their classes'
// warm structures at the final tables. The session must pull every
// structure back to its current configuration — a regression here
// corrupts every subsequent synthesis served by the session.
func TestDecomposedFailureResync(t *testing.T) {
	topo := topology.SmallWorld(160, 6, 0.3, 7)
	sc, err := config.MultiRegion(topo, config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1,
		Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := s.Synthesize(sc.Final); err != ErrNoOrdering {
			t.Fatalf("attempt %d: err = %v, want ErrNoOrdering", attempt, err)
		}
		if d := config.Diff(s.Current(), sc.Init); len(d) != 0 {
			t.Fatalf("attempt %d: session advanced despite failure (diff %v)", attempt, d)
		}
		// Every warm structure must be back at the initial configuration,
		// including the classes of the components that succeeded before
		// the gadget component failed.
		if len(s.LastStats().CommittedComponents) == 0 {
			t.Fatalf("attempt %d: no component committed before the failure", attempt)
		}
		requireRebased(t, fmt.Sprintf("attempt %d", attempt), s)
		for i, k := range s.ks {
			for _, sw := range config.Diff(sc.Init, sc.Final) {
				if !k.Table(sw).Equal(sc.Init.Table(sw)) {
					t.Fatalf("attempt %d: class %d structure holds a stale table on sw%d after failed run",
						attempt, i, sw)
				}
			}
		}
	}
}

// TestSingleComponentFootprintSearch: a multi-class diff that forms one
// interference component runs the joint engine over the component's
// classes only — the search attaches no other class, so it makes the
// undecomposed joint search's checks and never more skips: that search
// (NoDecomposition) attaches every class a changed rule matches, a
// superset of the footprint. The plan must equal the one it finds; a
// mid-plan crash must repair to the plan a cold synthesis from the crash
// state finds; and an intent with no ordering must be proved by search
// once and answered by the memo after.
func TestSingleComponentFootprintSearch(t *testing.T) {
	sc := multiRegionScenario(t, 3, 2, 0, 11)
	target, comp := singleComponentTarget(t, sc, 0)
	if len(comp.classes) < 2 || len(comp.classes) == len(sc.Specs) {
		t.Fatalf("component has %d of %d classes, want a multi-class search that leaves classes out", len(comp.classes), len(sc.Specs))
	}
	one := &config.Scenario{Name: "one-region", Topo: sc.Topo, Init: sc.Init, Final: target, Specs: sc.Specs}
	want, err := Synthesize(one, Options{NoDecomposition: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, one, want)
	committed := make([]int, len(want.Updates())/2)
	for i := range committed {
		committed[i] = i
	}
	crash := crashState(sc.Init, want, committed)
	fromCrash := &config.Scenario{Name: "from-crash", Topo: sc.Topo, Init: crash, Final: target, Specs: sc.Specs}
	wantRepair, err := Synthesize(fromCrash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, fromCrash, wantRepair)
	sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Synthesize(target)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Components != 1 {
		t.Fatalf("Components = %d, want 1", plan.Stats.Components)
	}
	if plan.String() != want.String() {
		t.Fatalf("plan diverged from the undecomposed joint search:\n got %s\nwant %s", plan, want)
	}
	if got, all := plan.Stats, want.Stats; got.Checks != all.Checks || got.ClassSkips > all.ClassSkips {
		t.Fatalf("footprint search: %d checks, %d class skips; undecomposed search: %d, %d — want equal checks and no more skips",
			got.Checks, got.ClassSkips, all.Checks, all.ClassSkips)
	}
	repair, err := sess.Repair(committed, nil)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if repair.String() != wantRepair.String() {
		t.Fatalf("repair plan diverged from cold synthesis at the crash state:\n got %s\nwant %s", repair, wantRepair)
	}

	// Rejected intent: the gadget region alone is a single component with
	// no switch-granularity ordering.
	topo := topology.SmallWorld(160, 6, 0.3, 7)
	inf, err := config.MultiRegion(topo, config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, e := engineFor(t, inf, Options{})
	comps, err := e.components(&s.aff)
	if err != nil {
		t.Fatal(err)
	}
	// Find the gadget's component with the all-class joint search.
	var gadget, feasible *config.Config
	for i := range comps {
		tgt, _ := singleComponentTarget(t, inf, i)
		_, err := Synthesize(&config.Scenario{Name: "probe", Topo: inf.Topo, Init: inf.Init, Final: tgt, Specs: inf.Specs},
			Options{NoDecomposition: true})
		switch {
		case errors.Is(err, ErrNoOrdering):
			gadget = tgt
		case err != nil:
			t.Fatal(err)
		default:
			feasible = tgt
		}
	}
	if gadget == nil || feasible == nil {
		t.Fatal("want one unorderable and one orderable component in the infeasible workload")
	}
	sess, err = NewSession(inf.Topo, inf.Init, inf.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableCache()
	if _, err := sess.Synthesize(gadget); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}
	if st := sess.LastStats(); st.CacheHit || st.Components != 1 {
		t.Fatalf("first rejection: %+v, want a searched single-component run", st)
	}
	if _, err := sess.Synthesize(gadget); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("repeat err = %v, want ErrNoOrdering", err)
	}
	if st := sess.LastStats(); !st.CacheHit || st.Backtracks != 0 || st.CexLearned != 0 {
		t.Fatalf("repeat rejection missed the memo: %+v", st)
	}
	// The session still serves: a feasible region right after.
	if _, err := sess.Synthesize(feasible); err != nil {
		t.Fatalf("feasible region after rejected intent: %v", err)
	}
}

// installFootprints is the footprint pass as it was before it read tables
// instead of installing them: each (unit, class) probe applies the unit's
// table to the class's structure, reads the delta, and the switch's chain
// is reverted when the next switch begins. TestFootprintsWithoutInstall
// holds the read-only pass to it.
func installFootprints(e *engine, aff *affectedClasses) (fps, ends []int, _ error) {
	ends = make([]int, len(e.units))
	var pend []frame
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
				removed, added := diffTables(e.ks[pos].Table(u.sw), u.newTable)
				if !rulesAffect(removed, added, e.sc.Specs[ci].Class.Packet()) {
					continue
				}
			}
			delta, err := e.ks[pos].UpdateSwitch(u.sw, u.newTable)
			e.stats.FootprintProbes++
			if err != nil {
				if _, isLoop := err.(*kripke.ErrLoop); !isLoop {
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

// TestFootprintsWithoutInstall: the read-only footprint pass gives the
// footprints, the components and the probe count the install-and-revert
// pass gave, and the same error on a target table it cannot read, at
// switch and 2-simple granularity: on every scenario of this file, and on
// random multi-region diffs. It leaves every structure as it found it,
// holding no table over its configuration and no undo log.
func TestFootprintsWithoutInstall(t *testing.T) {
	cases := map[string]*config.Scenario{
		"fig1-red-green": config.Fig1RedGreen(),
		"fig1-red-blue":  config.Fig1RedBlue(),
		"fig1-waypoint":  config.Fig1RedBlueWaypoint(),
		"regions":        multiRegionScenario(t, 3, 1, 0, 11),
		"regions-cross":  multiRegionScenario(t, 3, 1, 1, 11),
		"regions-pairs":  multiRegionScenario(t, 3, 2, 0, 11),
	}
	diamond, err := config.Diamonds(topology.SmallWorld(60, 4, 0.3, 60), config.DiamondOptions{
		Pairs: 1, Property: config.Reachability, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["diamond-single"] = diamond
	gadget, err := config.Infeasible(topology.SmallWorld(40, 4, 0.3, 21), config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases["infeasible"] = gadget
	stuck, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["infeasible-region"] = stuck
	rewriting := *cases["regions"]
	rewriting.Final = refusedTargets(t, rewriting.Topo, rewriting.Final, rewriting.Specs[1].Class)["rewriting"]
	cases["rewriting"] = &rewriting
	// The target's rules outrank the current ones, so a 2-simple merge
	// forwards as the target does and its finalize unit moves nothing.
	raised := *cases["regions-cross"]
	raised.Final = raised.Init.Clone()
	for _, sw := range config.Diff(raised.Init, cases["regions-cross"].Final) {
		var tbl network.Table
		for _, r := range cases["regions-cross"].Final.Table(sw) {
			r.Priority++
			tbl = append(tbl, r)
		}
		raised.Final.SetTable(sw, tbl)
	}
	cases["raised"] = &raised
	for seed := int64(1); seed <= 8; seed++ {
		sc := multiRegionScenario(t, 3, 2, int(seed%2), seed)
		r := rand.New(rand.NewSource(seed))
		target := sc.Init.Clone()
		for _, sw := range config.Diff(sc.Init, sc.Final) {
			if r.Intn(2) == 0 {
				target.SetTable(sw, sc.Final.Table(sw))
			}
		}
		part := *sc
		part.Final = target
		cases[fmt.Sprintf("random-%d", seed)] = &part
	}

	for name, sc := range cases {
		for _, opts := range []Options{{}, {TwoSimple: true}} {
			what := fmt.Sprintf("%s/2simple=%v", name, opts.TwoSimple)
			sRead, eRead := engineFor(t, sc, opts)
			sInst, eInst := engineFor(t, sc, opts)
			fps, ends, err := eRead.unitFootprints(&sRead.aff)
			wantFps, wantEnds, wantErr := installFootprints(eInst, &sInst.aff)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: err %v, the install-and-revert pass %v", what, err, wantErr)
			}
			if got, want := eRead.stats.FootprintProbes, eInst.stats.FootprintProbes; got != want {
				t.Fatalf("%s: %d probes, the install-and-revert pass %d", what, got, want)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(fps, wantFps) || !slices.Equal(ends, wantEnds) {
				t.Fatalf("%s: footprints %v %v, the install-and-revert pass %v %v", what, fps, ends, wantFps, wantEnds)
			}
			got, want := eRead.partition(fps, ends), eInst.partition(wantFps, wantEnds)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: components %v, the install-and-revert pass %v", what, got, want)
			}
			for ci, k := range sRead.ks {
				if _, moved := k.Base(); moved != 0 || k.HoldsLog() {
					t.Fatalf("%s: class %d holds %d tables or an undo log after the pass", what, ci, moved)
				}
			}
		}
	}
}
