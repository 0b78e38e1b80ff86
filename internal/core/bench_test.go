package core

import (
	"fmt"
	"math/bits"
	"runtime"
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
	opts := Options{NoWaitRemoval: true}
	plan, err := Synthesize(sc, opts)
	if err != nil {
		b.Fatal(err)
	}
	units, err := computeUnits(nil, sc, config.Diff(sc.Init, sc.Final), false, false)
	if err != nil {
		b.Fatal(err)
	}
	scr := scratchPool.Get().(*engineScratch)
	defer scratchPool.Put(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngineShellWith(sc, opts, Ablation{}, units, scr)
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
	opts := Options{NoWaitRemoval: true}
	type plan struct {
		sc    *config.Scenario
		units []unit
		steps []Step
	}
	var plans []plan
	for _, ends := range [][2]*config.Config{{base.Init, target}, {target, base.Init}} {
		sc := &config.Scenario{Name: base.Name, Topo: base.Topo, Init: ends[0], Final: ends[1], Specs: base.Specs}
		p, err := Synthesize(sc, opts)
		if err != nil {
			b.Fatal(err)
		}
		units, err := computeUnits(nil, sc, config.Diff(sc.Init, sc.Final), false, false)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan{sc, units, p.Steps})
	}
	scr := scratchPool.Get().(*engineScratch)
	defer scratchPool.Put(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			e := newEngineShellWith(p.sc, opts, Ablation{}, p.units, scr)
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
func mixedTenant(b *testing.B) (base *config.StreamBase, forth, back *config.StreamDelta) {
	const n = 800
	topo := topology.SmallWorld(n, 6, 0.3, n)
	var sc *config.Scenario
	for regions := 8; sc == nil; regions-- {
		if regions == 0 {
			b.Fatalf("cannot place any region on small-world-%d", n)
		}
		sc, _ = config.MultiRegion(topo, config.MultiRegionOptions{
			Regions: regions, PairsPerRegion: 2, InfeasibleRegions: 1,
			Property: config.Reachability, Seed: n,
		})
	}
	h := config.StreamHeader{Name: "mixed-800", Topology: config.TopologyFile{Switches: n}}
	for sw := 0; sw < n; sw++ {
		for _, l := range topo.Neighbors(sw) {
			if l.Peer > sw {
				h.Topology.Links = append(h.Topology.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, host := range topo.Hosts() {
		h.Topology.Hosts = append(h.Topology.Hosts, config.HostFile{ID: host.ID, Switch: host.Switch})
	}
	for _, cs := range sc.Specs {
		init, err := config.PathOf(sc.Init, topo, cs.Class)
		if err != nil {
			b.Fatal(err)
		}
		h.Classes = append(h.Classes, config.StreamClass{Name: cs.Class.Name, Src: cs.Class.SrcHost, Dst: cs.Class.DstHost, Path: init, Spec: cs.Formula.String()})
		final, err := config.PathOf(sc.Final, topo, cs.Class)
		if err != nil {
			b.Fatal(err)
		}
		var reg, pair int
		if k, _ := fmt.Sscanf(cs.Class.Name, "r%dp%d", &reg, &pair); k == 2 && forth == nil && !slices.Equal(init, final) {
			forth = &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: final}}}
			back = &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: init}}}
		}
	}
	if forth == nil {
		b.Fatal("no diamond class to move")
	}
	base, err := h.Build()
	if err != nil {
		b.Fatal(err)
	}
	return base, forth, back
}

// BenchmarkStreamApply is what a served request pays to name its target:
// one diamond of the 800-switch mixed tenant moved onto its other branch.
// The target shares with the current configuration every table the delta
// left alone, so allocations follow the two paths' length — a table, its
// digest memo and a rule per hop — and the bytes are those plus one table
// header per switch; CI gates both (.github/alloc-budgets.txt). A deep
// copy of the configuration is two allocations per rule of the network.
func BenchmarkStreamApply(b *testing.B) {
	base, forth, _ := mixedTenant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Apply(base.Init, forth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceKey is the plan-cache key of a warm session's next
// request on the same tenant: the current configuration's hash is
// memoized, and of the target — cloned from it by the request's delta —
// only the tables the delta produced are canonicalized and hashed; the
// digests of the others travel with the tables. CI gates allocs/op and
// B/op: sorting or re-encoding every table of the network shows in both.
func BenchmarkInstanceKey(b *testing.B) {
	base, forth, back := mixedTenant(b)
	s, err := NewSession(base.Topo, base.Init, base.Specs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.EnableCache()
	s.instanceKey(base.Init) // the first request's: every table hashed once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		target, err := base.Apply(s.cur, forth)
		if err != nil {
			b.Fatal(err)
		}
		forth, back = back, forth
		b.StartTimer()
		s.instanceKey(target)
		s.noteAdvance(target)
		s.cur = target
	}
}

// BenchmarkPlanCacheEntry reads what one cached plan holds, on the churn
// reproducer's tenant (13 diamonds on a 400-switch small-world graph, as
// BenchmarkPoolEvictRestore in internal/server): a session walks a
// Gray-code sequence of single-diamond flips, which revisits no
// configuration, so every request stores one plan of about a dozen steps.
// B/entry is the heap in use with the cache attached less the heap once
// it is dropped — so a table an entry shares with the session's
// configuration costs the entry nothing, and one only the entry still
// holds does — over the entries stored. A daemon's plan caches are most of
// its live heap and re-marked by every collection; CI gates the reading
// (.github/alloc-budgets.txt).
func BenchmarkPlanCacheEntry(b *testing.B) {
	const entries = 512
	sc, err := config.Diamonds(topology.SmallWorld(400, 4, 0.3, 29), config.DiamondOptions{
		Pairs: 13, Property: config.Reachability, Seed: 29,
	})
	if err != nil {
		b.Fatal(err)
	}
	var moving []config.Class
	for _, cs := range sc.Specs {
		if len(classesSeeing([]config.ClassSpec{cs}, sc.Init, sc.Final)) > 0 {
			moving = append(moving, cs.Class)
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var total, steps float64
	for i := 0; i < b.N; i++ {
		s, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cache := s.EnableCache()
		onFinal := make([]bool, len(moving))
		for n := 1; n <= entries; n++ {
			pi := bits.TrailingZeros(uint(n)) % len(moving)
			onFinal[pi] = !onFinal[pi]
			to := sc.Init
			if onFinal[pi] {
				to = sc.Final
			}
			plan, err := s.Synthesize(moveClasses(s.Current(), to, moving[pi:pi+1]))
			if err != nil {
				b.Fatal(err)
			}
			steps += float64(len(plan.Steps))
		}
		if cache.Len() != entries {
			b.Fatalf("%d entries after %d distinct requests", cache.Len(), entries)
		}
		with := live()
		s.SetCache(nil)
		cache = nil
		if without := live(); with > without {
			total += float64(with - without)
		}
		runtime.KeepAlive(s)
	}
	b.ReportMetric(total/float64(b.N)/entries, "B/entry")
	b.ReportMetric(steps/float64(b.N)/entries, "steps/entry")
}

// BenchmarkSessionMissMixed is the search path of a served
// serve-large-mixed request: one op moves one diamond of the 800-switch
// mixed tenant onto its other branch and back, on a warm session with no
// plan cache, so both syntheses are misses — verification, footprints,
// search, composition, wait removal, DAG build and resync. Both targets are
// named and the session primed before the timer starts, after a
// collection: the heap then has room for the op, and no collection empties
// the engine scratch pool between the priming round and the timed one — a
// single op, as CI runs it, would otherwise read the scratch's first fill
// (~275 KB) instead of the miss. CI gates allocs/op and B/op
// (.github/alloc-budgets.txt): what a miss allocates beyond its answer — a
// working copy of the steps or the units per request — shows in B/op.
func BenchmarkSessionMissMixed(b *testing.B) {
	base, forth, _ := mixedTenant(b)
	there, err := base.Apply(base.Init, forth)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(base.Topo, base.Init, base.Specs, Options{NoPlanCache: true})
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		for _, to := range []*config.Config{there, base.Init} {
			if _, err := s.Synthesize(to); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ { // the structures' undo logs and free lists reach their size
		round()
	}
	runtime.GC()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
