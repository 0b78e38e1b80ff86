package core

import (
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
	units, err := computeUnits(sc, config.Diff(sc.Init, sc.Final), false, false)
	if err != nil {
		b.Fatal(err)
	}
	scr := scratchPool.Get().(*engineScratch)
	defer scratchPool.Put(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEngineShellWith(sc, opts, units, scr)
		steps := e.removeWaits(plan.Steps)
		dag := e.buildDAG(steps)
		if countWaits(steps) >= countWaits(plan.Steps) || dag.NumNodes() != len(units) {
			b.Fatalf("%d of %d waits kept, %d DAG nodes for %d units",
				countWaits(steps), countWaits(plan.Steps), dag.NumNodes(), len(units))
		}
	}
}
