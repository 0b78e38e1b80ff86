package bench

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"netupdate"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/topology"
)

// TestBackendsParallelConformance: every Backend row, driven through the
// core.SessionResources.Factory seam exactly as the figures drive it,
// with the components of a diff searched one at a time and four at once
// (GOMAXPROCS sizes the scheduler), must agree on feasibility for every
// scenario — with its own other run and with every other row — and
// produce valid plans. The scenarios are core's conformance set — the
// three Figure 1 examples, two generated diamond workloads, and the
// infeasible double-diamond gadget at switch, rule and 2-simple
// granularity — plus a three-region workload, which every row must solve
// as three components. NetPlumber produces no counterexamples, so the exhaustive
// infeasible searches are restricted to the backends that can learn.
func TestBackendsParallelConformance(t *testing.T) {
	type testCase struct {
		name string
		sc   *config.Scenario
		opts core.Options
	}
	diamonds := func(n int, topoSeed int64, prop config.Property, seed int64) *config.Scenario {
		sc, err := config.Diamonds(topology.SmallWorld(n, 4, 0.3, topoSeed),
			config.DiamondOptions{Pairs: 2, Property: prop, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	scInf, err := config.Infeasible(topology.SmallWorld(40, 4, 0.3, 21), config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	regions, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 3, PairsPerRegion: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []testCase{
		{name: "fig1-red-green", sc: config.Fig1RedGreen()},
		{name: "fig1-red-blue", sc: config.Fig1RedBlue()},
		{name: "fig1-waypoint", sc: config.Fig1RedBlueWaypoint()},
		{name: "diamond-60-reach", sc: diamonds(60, 60, config.Reachability, 5)},
		{name: "diamond-80-waypoint", sc: diamonds(80, 9, config.Waypointing, 4)},
		{name: "infeasible-switch", sc: scInf},
		{name: "infeasible-rules", sc: scInf, opts: core.Options{RuleGranularity: true}},
		{name: "infeasible-2simple", sc: scInf, opts: core.Options{TwoSimple: true}},
		{name: "multi-region", sc: regions},
	}
	for _, c := range cases {
		rowFeasible := map[bool]string{} // verdict -> first row that reached it
		for _, b := range Backends {
			if b.Name == NetPlumberLike.Name && !c.sc.Feasible {
				continue // exhaustive proof of impossibility: too slow without cex learning
			}
			if (b.Name == Batch.Name || b.Name == NuSMVLike.Name) && len(c.sc.UpdatingSwitches()) > 16 {
				continue // batch backends relabel everything per check; keep CI fast
			}
			name := c.name + "/" + b.Name
			var feasible [2]bool
			for i, workers := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(workers)
				plan, err := core.SynthesizeWith(context.Background(), c.sc, c.opts, core.SessionResources{Factory: b.New})
				runtime.GOMAXPROCS(prev)
				if err != nil && !errors.Is(err, core.ErrNoOrdering) {
					t.Fatalf("%s/%d workers: %v", name, workers, err)
				}
				feasible[i] = err == nil
				if err == nil {
					verifyConfigs(t, name, c.sc, plan)
					if c.sc == regions && plan.Stats.Components != 3 {
						t.Fatalf("%s/%d workers: Components = %d, want 3", name, workers, plan.Stats.Components)
					}
				}
			}
			if feasible[0] != feasible[1] {
				t.Fatalf("%s: concurrent feasible=%v, one at a time=%v", name, feasible[1], feasible[0])
			}
			rowFeasible[feasible[0]] = b.Name
		}
		if len(rowFeasible) != 1 {
			t.Fatalf("%s: rows disagree on feasibility: %v", c.name, rowFeasible)
		}
	}
}

// verifyConfigs checks a plan against code that shares nothing with the
// backend that produced it: the plan reaches the scenario's final
// configuration and every prefix of its updates satisfies every class
// specification (netupdate.Verify builds structure and checker afresh).
func verifyConfigs(t *testing.T, name string, sc *config.Scenario, plan *core.Plan) {
	t.Helper()
	cfgs := plan.Configs(sc.Init)
	if d := config.Diff(cfgs[len(cfgs)-1], sc.Final); len(d) != 0 {
		t.Fatalf("%s: plan does not reach the final configuration; differs on %v", name, d)
	}
	for i, cfg := range cfgs {
		if ok, cex, err := netupdate.Verify(sc.Topo, cfg, sc.Specs); !ok {
			t.Fatalf("%s: configuration after %d updates violates the spec: %v %v (plan %v)", name, i, cex, err, plan)
		}
	}
}
