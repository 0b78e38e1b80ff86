package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/engine"
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

// regions partitions sc's diff as the interference partition would if
// every class a switch's rule changes can match interfered there: the
// classes of engine.Affected, each joining the diff switches it can see.
// Those are the only classes a unit can move, so each region is one or
// more whole interference components; on the multi-region workloads,
// whose regions share no switch and no class, exactly one. It returns
// each region's switches and classes (ascending), ordered by lowest
// switch, as the partition orders components by lowest unit.
func regions(sc *config.Scenario) (switches, classes [][]int) {
	var aff engine.Affected
	aff.Reset(sc.Specs, sc.Init, sc.Final)
	parent := map[int]int{}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, sw := range aff.Switches {
		parent[sw] = sw
	}
	for pos := range aff.Classes {
		sws := aff.SwitchesOf(pos)
		for _, sw := range sws[1:] {
			parent[find(sw)] = find(sws[0])
		}
	}
	region := map[int]int{}
	for _, sw := range aff.Switches { // ascending
		r, ok := region[find(sw)]
		if !ok {
			r = len(switches)
			region[find(sw)] = r
			switches, classes = append(switches, nil), append(classes, nil)
		}
		switches[r] = append(switches[r], sw)
	}
	for pos, ci := range aff.Classes {
		if sws := aff.SwitchesOf(pos); len(sws) > 0 {
			r := region[find(sws[0])]
			classes[r] = append(classes[r], ci)
		}
	}
	return switches, classes
}

// singleComponentTarget returns the target that moves only the idx-th
// region of sc's diff to its final tables (regions) — a diff the
// partition cannot split on the multi-region workloads, whose footprint
// leaves every other region's classes out — and the region's classes.
func singleComponentTarget(t *testing.T, sc *config.Scenario, idx int) (*config.Config, []int) {
	t.Helper()
	switches, classes := regions(sc)
	if idx >= len(switches) {
		t.Fatalf("scenario has %d regions, want more than %d", len(switches), idx)
	}
	target := sc.Init.Clone()
	for _, sw := range switches[idx] {
		target.SetTable(sw, sc.Final.Table(sw).Clone())
	}
	return target, classes[idx]
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
	target, classes := singleComponentTarget(t, sc, 0)
	if len(classes) < 2 || len(classes) == len(sc.Specs) {
		t.Fatalf("component has %d of %d classes, want a multi-class search that leaves classes out", len(classes), len(sc.Specs))
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
	// Find the gadget's component with the all-class joint search.
	var gadget, feasible *config.Config
	regionSwitches, _ := regions(inf)
	for i := range regionSwitches {
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
