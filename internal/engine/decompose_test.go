package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// TestComponentsPartition: on a 3-region workload with no cross traffic
// the interference graph must fall apart into exactly 3 components that
// partition the units, switches, and classes; one cross class must merge
// two of them.
func TestComponentsPartition(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	e := engineFor(t, sc, grain{})
	comps, err := e.components(e.aff)
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
	eX := engineFor(t, scX, grain{})
	compsX, err := eX.components(eX.aff)
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

// TestDecomposedSolveOrderMetamorphic: the order in which components are
// solved — whichever goroutine picks them up, whatever permutation the
// queue feeds — must never change the composed plan.
func TestDecomposedSolveOrderMetamorphic(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	base, err := synthesize(t, sc, grain{})
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
		var plan *plan
		atProcs(1, func() { plan, err = synthesize(t, sc, grain{}) })
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
		var plan *plan
		atProcs(8, func() { plan, err = synthesize(t, sc, grain{}) })
		if err != nil {
			t.Fatal(err)
		}
		if plan.String() != base.String() {
			t.Fatalf("concurrent solve changed the composed plan:\n got %s\nwant %s", plan, base)
		}
	}
}

// rewritingTarget is base with class cl's second hop rewriting the
// packet's type on the way to the third: a target the footprint pass
// cannot read.
func rewritingTarget(t *testing.T, topo *topology.Topology, base *config.Config, cl config.Class) *config.Config {
	t.Helper()
	p, err := config.PathOf(base, topo, cl)
	if err != nil || len(p) < 3 {
		t.Fatalf("class %v: path %v (%v), want three hops or more", cl, p, err)
	}
	on, _ := topo.PortToward(p[1], p[2])
	out := base.Clone()
	var tbl network.Table
	for _, r := range base.Table(p[1]) {
		if r.Match != cl.Pattern() {
			tbl = append(tbl, r)
		}
	}
	tbl = append(tbl, network.Rule{Priority: 10, Match: cl.Pattern(), Actions: []network.Action{network.SetField(network.FieldTyp, 9), network.Forward(on)}})
	out.SetTable(p[1], tbl)
	return out
}

// installFootprints is the footprint pass as it was before it read tables
// instead of installing them: each (unit, class) probe applies the unit's
// table to the class's structure, reads the delta, and the switch's chain
// is reverted when the next switch begins. TestFootprintsWithoutInstall
// holds the read-only pass to it.
func installFootprints(e *Engine, aff *Affected) (fps, ends []int, _ error) {
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
			if !slices.Contains(aff.SwitchesOf(pos), u.sw) {
				continue
			}
			if e.twoSimple {
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
	rewriting.Final = rewritingTarget(t, rewriting.Topo, rewriting.Final, rewriting.Specs[1].Class)
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
		for _, g := range []grain{{}, {twoSimple: true}} {
			what := fmt.Sprintf("%s/2simple=%v", name, g.twoSimple)
			eRead, eInst := engineFor(t, sc, g), engineFor(t, sc, g)
			fps, ends, err := eRead.unitFootprints(eRead.aff)
			wantFps, wantEnds, wantErr := installFootprints(eInst, eInst.aff)
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
			for ci, k := range eRead.ks {
				if _, moved := k.Base(); moved != 0 || k.HoldsLog() {
					t.Fatalf("%s: class %d holds %d tables or an undo log after the pass", what, ci, moved)
				}
			}
		}
	}
}

// TestFaultStatsCommittedComponents: a decomposed search canceled after
// its first component reports exactly that component as committed, a
// completed one all of them, and a joint one its one component.
func TestFaultStatsCommittedComponents(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testAfterComponent = func(i int) {
		if i == 0 {
			cancel()
		}
	}
	defer func() { testAfterComponent = nil }()
	e := begin(t, ctx, sc, grain{}, Ablation{})
	var committed []int
	var err error
	atProcs(1, func() { _, _, committed, err = e.Search(true, true, nil) }) // the hook runs between components searched one at a time
	e.Release()
	if err == nil {
		t.Fatal("canceled decomposed search reported success")
	}
	if !slices.Equal(committed, []int{0}) {
		t.Fatalf("committed components after cancel = %v, want [0]", committed)
	}
	testAfterComponent = nil
	e = engineFor(t, sc, grain{})
	_, _, committed, err = e.Search(true, true, nil)
	e.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(committed, []int{0, 1, 2}) {
		t.Fatalf("committed components after success = %v, want [0 1 2]", committed)
	}

	// A joint search is a one-component run, and reports as one.
	e = engineFor(t, sc, grain{joint: true})
	defer e.Release()
	if _, _, committed, err = e.Search(false, true, nil); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Components != 1 || len(st.ComponentElapsed) != 1 || !slices.Equal(committed, []int{0}) {
		t.Fatalf("joint run: Components %d, ComponentElapsed %v, committed %v; want 1, one entry, [0]",
			st.Components, st.ComponentElapsed, committed)
	}
}
