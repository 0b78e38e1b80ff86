package engine

import (
	"fmt"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// BenchmarkOrderingAnalysis measures the passes that run after the search
// on a plan with the served traffic's shape — many classes over a few
// hundred switches (14 diamonds on a 400-switch small-world graph), not
// Figure 8(g)'s single diamond: one op is removeWaits plus buildDAG over
// the careful plan, on an engine with session-pooled scratch, as every
// request after a session's first runs them. CI gates allocs/op
// (.github/alloc-budgets.txt): what remains is per plan — the output
// steps, the DAG's predecessor lists, blocks of affected vectors — so
// search buffers, maps or vectors allocated per step again multiply it.
func BenchmarkOrderingAnalysis(b *testing.B) {
	sc, err := config.Diamonds(topology.SmallWorld(400, 4, 0.3, 400), config.DiamondOptions{
		Pairs: 14, Property: config.Reachability, Seed: 400 * 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := synthesize(b, sc, grain{keepWaits: true})
	if err != nil {
		b.Fatal(err)
	}
	shell := newEngineShell(sc, grain{})
	units, aff := shell.units, shell.aff
	scr := scratchPool.Get().(*engineScratch)
	defer scratchPool.Put(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngineShellWith(sc, Ablation{}, units, scr)
		e.aff = aff
		steps := e.removeWaits(plan.Steps)
		dag := e.buildDAG(steps)
		if countWaits(steps) >= countWaits(plan.Steps) || dag.NumNodes() != len(units) {
			b.Fatalf("%d of %d waits kept, %d DAG nodes for %d units",
				countWaits(steps), countWaits(plan.Steps), dag.NumNodes(), len(units))
		}
	}
}

// BenchmarkOrderingAnalysisMixed is the same pair of passes on what a
// serve-large-mixed request hands them: the careful plans that move one
// diamond of the 800-switch mixed tenant onto its other branch and back,
// a few steps each under 26 classes. Most classes never reach a step's
// switch, so what this measures is how little of the tenant a step's
// liveness question visits. CI gates allocs/op
// (.github/alloc-budgets.txt).
func BenchmarkOrderingAnalysisMixed(b *testing.B) {
	base, forth, _ := mixedTenant(b)
	target, err := base.Apply(base.Init, forth)
	if err != nil {
		b.Fatal(err)
	}
	type plan struct {
		sc    *config.Scenario
		aff   *Affected
		units []unit
		steps []Step
	}
	var plans []plan
	for _, ends := range [][2]*config.Config{{base.Init, target}, {target, base.Init}} {
		sc := &config.Scenario{Name: base.Name, Topo: base.Topo, Init: ends[0], Final: ends[1], Specs: base.Specs}
		p, err := synthesize(b, sc, grain{keepWaits: true})
		if err != nil {
			b.Fatal(err)
		}
		shell := newEngineShell(sc, grain{})
		plans = append(plans, plan{sc, shell.aff, shell.units, p.Steps})
	}
	scr := scratchPool.Get().(*engineScratch)
	defer scratchPool.Put(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			e := newEngineShellWith(p.sc, Ablation{}, p.units, scr)
			e.aff = p.aff
			if dag := e.buildDAG(e.removeWaits(p.steps)); dag.NumNodes() != len(p.units) {
				b.Fatalf("%d DAG nodes for %d units", dag.NumNodes(), len(p.units))
			}
		}
	}
}

// mixedTenant builds the largest serve-large-mixed tenant shape — 8
// regions x 2 diamonds, link classes and one infeasible gadget region on
// an 800-switch degree-6 small-world graph — as a stream base, with the
// delta that moves one diamond onto its other branch and the one that
// moves it back.
func mixedTenant(tb testing.TB) (base *config.StreamBase, forth, back *config.StreamDelta) {
	const n = 800
	topo := topology.SmallWorld(n, 6, 0.3, n)
	var sc *config.Scenario
	for regions := 8; sc == nil; regions-- {
		if regions == 0 {
			tb.Fatalf("cannot place any region on small-world-%d", n)
		}
		sc, _ = config.MultiRegion(topo, config.MultiRegionOptions{
			Regions: regions, PairsPerRegion: 2, InfeasibleRegions: 1,
			Property: config.Reachability, Seed: n,
		})
	}
	// The scenario spelled as a stream header: its links, its hosts, and
	// every class on its initial path; the first diamond class whose final
	// path differs is the one moved.
	h := config.StreamHeader{Name: fmt.Sprintf("mixed-%d", n), Topology: config.TopologyFile{Switches: n}}
	for sw := 0; sw < sc.Topo.NumSwitches(); sw++ {
		for _, l := range sc.Topo.Neighbors(sw) {
			if l.Peer > sw {
				h.Topology.Links = append(h.Topology.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, host := range sc.Topo.Hosts() {
		h.Topology.Hosts = append(h.Topology.Hosts, config.HostFile{ID: host.ID, Switch: host.Switch})
	}
	for _, cs := range sc.Specs {
		init, err := config.PathOf(sc.Init, sc.Topo, cs.Class)
		if err != nil {
			tb.Fatal(err)
		}
		h.Classes = append(h.Classes, config.StreamClass{Name: cs.Class.Name, Src: cs.Class.SrcHost, Dst: cs.Class.DstHost, Path: init, Spec: cs.Formula.String()})
		final, err := config.PathOf(sc.Final, sc.Topo, cs.Class)
		if err != nil {
			tb.Fatal(err)
		}
		var reg, pair int
		if k, _ := fmt.Sscanf(cs.Class.Name, "r%dp%d", &reg, &pair); forth == nil && k == 2 && !slices.Equal(init, final) {
			forth = &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: final}}}
			back = &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: init}}}
		}
	}
	if forth == nil {
		tb.Fatal("no diamond class to move")
	}
	base, err := h.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return base, forth, back
}
