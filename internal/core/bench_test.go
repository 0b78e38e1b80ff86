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
	units, err := computeUnits(nil, sc, config.Diff(sc.Init, sc.Final), nil, false, false)
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
		units, err := computeUnits(nil, sc, config.Diff(sc.Init, sc.Final), nil, false, false)
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
func mixedTenant(tb testing.TB) (base *config.StreamBase, forth, back *config.StreamDelta) {
	return mixedTenantSized(tb, 800)
}

// mixedTenantSized is mixedTenant on n switches, n 800 or more: switches
// 800 and up form a line of four-switch segments, each carrying one
// background class end to end. The tenant, and the deltas, are
// mixedTenant's on the first 800; the background is state no delta names,
// so what a request costs must not grow with it.
func mixedTenantSized(tb testing.TB, n int) (base *config.StreamBase, forth, back *config.StreamDelta) {
	const core = 800
	topo := topology.SmallWorld(core, 6, 0.3, core)
	var sc *config.Scenario
	for regions := 8; sc == nil; regions-- {
		if regions == 0 {
			tb.Fatalf("cannot place any region on small-world-%d", core)
		}
		sc, _ = config.MultiRegion(topo, config.MultiRegionOptions{
			Regions: regions, PairsPerRegion: 2, InfeasibleRegions: 1,
			Property: config.Reachability, Seed: core,
		})
	}
	h, moves := streamHeaderOf(tb, fmt.Sprintf("mixed-%d", n), n, sc)
	for _, m := range moves {
		var reg, pair int
		if k, _ := fmt.Sscanf(m.forth.Reroute[0].Class, "r%dp%d", &reg, &pair); k == 2 {
			forth, back = m.forth, m.back
			break
		}
	}
	if forth == nil {
		tb.Fatal("no diamond class to move")
	}
	for sw := core; sw+3 < n; sw += 4 {
		path := []int{sw, sw + 1, sw + 2, sw + 3}
		h.Topology.Links = append(h.Topology.Links, [2]int{sw, sw + 1}, [2]int{sw + 1, sw + 2}, [2]int{sw + 2, sw + 3})
		if sw > core {
			h.Topology.Links = append(h.Topology.Links, [2]int{sw - 1, sw})
		}
		src, dst := 1_000_000+sw, 1_000_000+sw+3
		h.Topology.Hosts = append(h.Topology.Hosts, config.HostFile{ID: src, Switch: sw}, config.HostFile{ID: dst, Switch: sw + 3})
		h.Classes = append(h.Classes, config.StreamClass{
			Name: fmt.Sprintf("bg%d", sw), Src: src, Dst: dst, Path: path,
			Spec: fmt.Sprintf("sw=%d -> F sw=%d", sw, sw+3),
		})
	}
	base, err := h.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return base, forth, back
}

// classMove is the pair of deltas that moves one class of a scenario from
// its initial path to its final one and back.
type classMove struct{ forth, back *config.StreamDelta }

// streamHeaderOf spells sc as a stream header on n switches (n at least
// sc's): its links, its hosts, and every class on its initial path. The
// moves are those of the classes whose final path differs, in class order.
func streamHeaderOf(tb testing.TB, name string, n int, sc *config.Scenario) (config.StreamHeader, []classMove) {
	tb.Helper()
	h := config.StreamHeader{Name: name, Topology: config.TopologyFile{Switches: n}}
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
	var moves []classMove
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
		if !slices.Equal(init, final) {
			moves = append(moves, classMove{
				forth: &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: final}}},
				back:  &config.StreamDelta{Reroute: []config.Reroute{{Class: cs.Class.Name, Path: init}}},
			})
		}
	}
	return h, moves
}

// preambleSizes are the tenant sizes the preamble benchmarks run at: the
// spine's largest tenant, and it with as many switches again of
// background classes.
var preambleSizes = []int{800, 1600}

// BenchmarkStreamApply is what a served request pays to name its target:
// one diamond of the mixed tenant moved onto its other branch. The target
// shares with the current configuration every chunk the delta left alone,
// so allocations follow the two paths' length — a table, its digest memo
// and a rule per hop — and the bytes are those, the chunks the paths
// touch, and the chunk table; CI gates both (.github/alloc-budgets.txt),
// at both sizes with one ceiling. A copy of a pointer per switch is 6.4 KB
// at 800 switches and twice that at 1600; a deep copy of the
// configuration is two allocations per rule of the network.
func BenchmarkStreamApply(b *testing.B) {
	for _, n := range preambleSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base, forth, _ := mixedTenantSized(b, n)
			// A tenant's first request fills the memos of the chunks it
			// reads (the patterns each holds); every later one reads them.
			if _, err := base.Apply(base.Init, forth); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := base.Apply(base.Init, forth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstanceKey is the plan-cache key of a warm session's next
// request on the same tenant: the current configuration's digest is
// memoized on it, and the target — cloned from it by the request's delta —
// rehashes only the chunks the delta wrote, canonicalizing only the tables
// it produced, and then the chunk table's (index, digest) pairs, the one
// term that grows with the network. The targets are built a batch at a
// time with the timer stopped, so the reading is the key, not the
// stopping. CI gates allocs/op and B/op: sorting or re-encoding every
// table of the network shows in both.
func BenchmarkInstanceKey(b *testing.B) {
	const batch = 256
	for _, n := range preambleSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base, forth, _ := mixedTenantSized(b, n)
			s := newSessionShell(base.Topo, base.Init, base.Specs, Options{}, SessionResources{})
			s.EnableCache()
			s.instanceKey(base.Init) // the first request's: every table hashed once
			targets := make([]*config.Config, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					b.StopTimer()
					for j := range targets {
						t, err := base.Apply(s.cur, forth)
						if err != nil {
							b.Fatal(err)
						}
						targets[j] = t
					}
					b.StartTimer()
				}
				s.instanceKey(targets[i%batch])
			}
		})
	}
}

// BenchmarkPlanCacheEntry reads what one cached plan holds, on the churn
// reproducer's tenant (13 diamonds on a 400-switch small-world graph, as
// BenchmarkPoolEvictRestore in internal/server): a session walks a
// Gray-code sequence of single-diamond flips, which revisits no
// configuration, so every request stores one plan of about a dozen steps.
// Each target is built as the daemon builds it, by StreamBase.Apply of the
// flip's delta to the current configuration, so its rerouted switches get
// tables no other configuration holds; once the session has moved on, an
// entry that keeps one of them is all that keeps it alive. B/entry is the
// heap in use with the cache attached less the heap once it is dropped,
// over the entries stored. A daemon's plan caches are most of its live
// heap and re-marked by every collection; CI gates the reading
// (.github/alloc-budgets.txt).
func BenchmarkPlanCacheEntry(b *testing.B) {
	const entries = 512
	sc, err := config.Diamonds(topology.SmallWorld(400, 4, 0.3, 29), config.DiamondOptions{
		Pairs: 13, Property: config.Reachability, Seed: 29,
	})
	if err != nil {
		b.Fatal(err)
	}
	h, moves := streamHeaderOf(b, "churn", sc.Topo.NumSwitches(), sc)
	base, err := h.Build()
	if err != nil {
		b.Fatal(err)
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
		s, err := NewSession(base.Topo, base.Init, base.Specs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cache := s.EnableCache()
		onFinal := make([]bool, len(moves))
		for n := 1; n <= entries; n++ {
			pi := bits.TrailingZeros(uint(n)) % len(moves)
			onFinal[pi] = !onFinal[pi]
			d := moves[pi].back
			if onFinal[pi] {
				d = moves[pi].forth
			}
			to, err := base.Apply(s.Current(), d)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := s.Synthesize(to)
			if err != nil {
				b.Fatal(err)
			}
			steps += float64(len(plan.Steps))
		}
		if cache.Stats().Entries != entries {
			b.Fatalf("%d entries after %d distinct requests", cache.Stats().Entries, entries)
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
// plan cache, so both syntheses are misses — footprints, search,
// composition, wait removal, DAG build and resync. Both targets are
// named and the session primed before the timer starts, after a
// collection: the heap then has room for the op, and no collection empties
// the engine scratch pool between the priming round and the timed one — a
// single op, as CI runs it, would otherwise read the scratch's first fill
// (~275 KB) instead of the miss. CI gates allocs/op and B/op
// (.github/alloc-budgets.txt): what a miss allocates beyond its answer — a
// working copy of the steps or the units per request — shows in B/op. It
// gates checks/op too, the checker verdicts the op computes (Stats.Checks,
// a function of the input): a target check before every search shows
// there.
func BenchmarkSessionMissMixed(b *testing.B) {
	base, forth, _ := mixedTenant(b)
	there, err := base.Apply(base.Init, forth)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(base.Topo, base.Init, base.Specs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	checks := 0
	round := func() {
		for _, to := range []*config.Config{there, base.Init} {
			plan, err := s.Synthesize(to)
			if err != nil {
				b.Fatal(err)
			}
			checks += plan.Stats.Checks
		}
	}
	for i := 0; i < 4; i++ { // the structures' undo logs and free lists reach their size
		round()
	}
	runtime.GC()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	checks = 0
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
}
