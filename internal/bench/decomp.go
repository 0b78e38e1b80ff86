package bench

import (
	"fmt"
	"runtime"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/topology"
)

// MultiRegionWorkload builds the decomposition workload on a small-world
// topology of n switches: regions independent diamond groups of
// pairsPerRegion diamonds each, plus cross coupling classes. Placement
// retries with fewer regions on cramped topologies, mirroring placePairs.
func MultiRegionWorkload(n, regions, pairsPerRegion, cross int, prop config.Property, seed int64) (*config.Scenario, error) {
	// Degree-6 small-world: the link classes that chain a region's pairs
	// (and couple regions) pivot on free neighbors of already-claimed
	// switches, which degree-4 graphs run out of; degree 6 places the
	// full workload reliably from ~160 switches up.
	topo := topology.SmallWorld(n, 6, 0.3, seed)
	for r := regions; r >= 1; r-- {
		c := cross
		if r < 2 {
			c = 0
		}
		sc, err := config.MultiRegion(topo, config.MultiRegionOptions{
			Regions: r, PairsPerRegion: pairsPerRegion, CrossClasses: c,
			Property: prop, Seed: seed,
		})
		if err == nil {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("bench: cannot place any region on small-world-%d", n)
}

// DecompCompare measures interference-partitioned synthesis against the
// joint search on MultiRegion workloads: wall-clock and heap allocations
// per synthesis over a warm session flip-flopping between the two
// endpoint configurations (construction amortizes away, so the columns
// isolate search + footprint + resync work), at the component counts the
// workload actually produced. The joint column iterates every class on
// every unit application of one big search; the decomposed column pays
// the footprint pre-pass once and then runs one small search per
// independent region over only that region's classes.
func DecompCompare(sizes []int, regions int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Decomposition: joint search vs interference-partitioned search",
		Note:  fmt.Sprintf("small-world reachability multi-region workloads (2 diamonds/region), %d regions requested, warm session", regions),
		Header: []string{"workload", "units", "classes", "components",
			"joint(ms)", "decomp(ms)", "speedup", "joint(allocs)", "decomp(allocs)"},
	}
	const reps = 10
	for _, n := range sizes {
		sc, err := MultiRegionWorkload(n, regions, 2, 0, config.Reachability, int64(n)*13)
		if err != nil {
			return nil, err
		}
		jointMS, jointAllocs, _, err := timeStream(sc, core.Options{Timeout: timeout, NoDecomposition: true}, reps)
		if err != nil {
			return nil, err
		}
		decompMS, decompAllocs, components, err := timeStream(sc, core.Options{Timeout: timeout}, reps)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("multiregion-%d", n), len(sc.UpdatingSwitches()), len(sc.Specs), components,
			jointMS, decompMS, fmt.Sprintf("%.2fx", jointMS/decompMS),
			jointAllocs, decompAllocs)
	}
	return t, nil
}

// timeStream opens a warm session, primes it with one round trip, then
// serves reps round trips (init -> final -> init), returning mean
// milliseconds and heap allocations per synthesis plus the component
// count of the last run.
func timeStream(sc *config.Scenario, opts core.Options, reps int) (float64, int64, int, error) {
	s, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := s.Synthesize(sc.Final); err != nil {
		return 0, 0, 0, err
	}
	if _, err := s.Synthesize(sc.Init); err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	components := 0
	for i := 0; i < reps; i++ {
		plan, err := s.Synthesize(sc.Final)
		if err != nil {
			return 0, 0, 0, err
		}
		components = plan.Stats.Components
		if _, err := s.Synthesize(sc.Init); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(2 * reps)
	return elapsed.Seconds() * 1000 / n, int64(m1.Mallocs-m0.Mallocs) / int64(2*reps), components, nil
}
