// Command experiments regenerates the paper's evaluation figures (Section
// 6) using the benchmark harness:
//
//	experiments -fig all            # everything, small scale
//	experiments -fig 7 -scale full  # Figure 7(a-c) at paper scale
//	experiments -fig 8g -scale full
//	experiments -fig stream -json   # warm-session vs cold synthesis
//
// Available figures: 2a, 2b, 7, 7df, 8g, 8h, 8i, checker, ablation,
// stream, decomp, server, dag, repair, cache, snapshot, obs, all.
// "-fig server" compares warm multi-tenant pool serving against cold
// per-request synthesis. "-fig cache" serves identical flapping traffic
// with and without the verification-first plan cache, reporting the
// fast-path speedup and hit rate.
// "-fig dag" compares central wait-based execution of a synthesized plan
// against decentralized execution of its dependency DAG, by update size.
// "-fig repair" compares warm-session repair after a mid-execution crash
// against cold resynthesis from the same partially-committed state.
// "-fig snapshot" compares cold session rebuild against binary-snapshot
// restore (the pool's eviction-resume decision) by workload size, and
// reports sharded serving throughput through the netupdatelb router by
// replica count.
// "-fig obs" serves the warm rolling stream with tracing off and on and
// reports the observability overhead (ms, allocs, and spans per
// synthesis) — the figure behind BENCH_10.json's ≤5% tracing bound.
// The -scale flag selects problem sizes: "small" finishes
// in seconds, "medium" in minutes, "full" approaches the paper's sizes
// (up to 1500 switches for 8g) and can take much longer.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"netupdate/internal/bench"
)

type scale struct {
	fig7Sizes      []int
	fig7dfSizes    []int
	fig8gSizes     []int
	fig8hSizes     []int
	fig8iSizes     []int
	checkerSize    int
	ablationSize   int
	streamSizes    []int
	streamSteps    int
	decompSizes    []int
	decompRegion   int
	serverTenants  []int
	serverSwitches int
	serverSteps    int
	dagSWSizes     []int
	dagFTSizes     []int
	repairSizes    []int
	cacheTenants   []int
	cacheSwitches  int
	cacheCycles    int
	snapSizes      []int
	snapRegions    int
	shardReplicas  []int
	shardTenants   int
	shardSwitches  int
	shardSteps     int
	timeout        time.Duration
}

var scales = map[string]scale{
	"small": {
		fig7Sizes:   []int{30, 60, 90},
		fig7dfSizes: []int{30, 60},
		fig8gSizes:  []int{40, 80},
		fig8hSizes:  []int{40, 80},
		fig8iSizes:  []int{40, 80},
		checkerSize: 60, ablationSize: 60,
		streamSizes:    []int{40, 80},
		streamSteps:    8,
		decompSizes:    []int{240, 320},
		decompRegion:   6,
		serverTenants:  []int{4, 8},
		serverSwitches: 40,
		serverSteps:    8,
		dagSWSizes:     []int{160, 240, 320},
		dagFTSizes:     []int{45, 80, 125},
		repairSizes:    []int{160, 240, 320},
		cacheTenants:   []int{2, 4},
		cacheSwitches:  40,
		cacheCycles:    8,
		snapSizes:      []int{240, 480},
		snapRegions:    6,
		shardReplicas:  []int{1, 2},
		shardTenants:   6,
		shardSwitches:  40,
		shardSteps:     6,
		timeout:        time.Minute,
	},
	"medium": {
		fig7Sizes:   []int{50, 100, 200, 300},
		fig7dfSizes: []int{50, 100, 200},
		fig8gSizes:  []int{100, 200, 400},
		fig8hSizes:  []int{100, 200, 400},
		fig8iSizes:  []int{100, 200},
		checkerSize: 200, ablationSize: 150,
		streamSizes:    []int{80, 160},
		streamSteps:    12,
		decompSizes:    []int{320, 400},
		decompRegion:   8,
		serverTenants:  []int{8, 16},
		serverSwitches: 60,
		serverSteps:    10,
		dagSWSizes:     []int{160, 240, 320, 400},
		dagFTSizes:     []int{45, 80, 125, 180},
		repairSizes:    []int{240, 320, 400},
		cacheTenants:   []int{4, 8},
		cacheSwitches:  60,
		cacheCycles:    10,
		snapSizes:      []int{240, 480, 960},
		snapRegions:    6,
		shardReplicas:  []int{1, 2, 4},
		shardTenants:   8,
		shardSwitches:  60,
		shardSteps:     8,
		timeout:        5 * time.Minute,
	},
	"full": {
		fig7Sizes:   []int{100, 200, 400, 600},
		fig7dfSizes: []int{100, 200, 400, 600},
		fig8gSizes:  []int{200, 400, 800, 1200, 1500},
		fig8hSizes:  []int{200, 400, 800},
		fig8iSizes:  []int{200, 400, 800},
		checkerSize: 400, ablationSize: 300,
		streamSizes:    []int{200, 400},
		streamSteps:    16,
		decompSizes:    []int{400, 560},
		decompRegion:   10,
		serverTenants:  []int{16, 32},
		serverSwitches: 80,
		serverSteps:    12,
		dagSWSizes:     []int{160, 240, 320, 400, 480},
		dagFTSizes:     []int{80, 125, 180, 245},
		repairSizes:    []int{320, 400, 480, 560},
		cacheTenants:   []int{8, 16},
		cacheSwitches:  80,
		cacheCycles:    16,
		snapSizes:      []int{480, 960, 1440},
		snapRegions:    6,
		shardReplicas:  []int{1, 2, 4},
		shardTenants:   16,
		shardSwitches:  80,
		shardSteps:     10,
		timeout:        10 * time.Minute,
	},
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 2a|2b|7|7df|8g|8h|8i|checker|ablation|stream|decomp|server|dag|repair|cache|snapshot|obs|all")
		scaleFl = flag.String("scale", "small", "problem scale: small|medium|full")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables (for run-over-run diffing)")
	)
	flag.Parse()
	sc, ok := scales[*scaleFl]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleFl)
		os.Exit(2)
	}
	tables, err := run(*fig, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := bench.NewReport(tables).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
}

// run executes the requested figures and returns their tables; output
// formatting (text or JSON) is the caller's concern.
func run(fig string, sc scale) ([]*bench.Table, error) {
	all := fig == "all"
	var out []*bench.Table
	add := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		out = append(out, t)
		return nil
	}
	if all || fig == "2a" {
		if err := add(bench.Fig2a()); err != nil {
			return nil, err
		}
	}
	if all || fig == "2b" {
		if err := add(bench.Fig2b()); err != nil {
			return nil, err
		}
	}
	if all || fig == "7" {
		checkers := []bench.Backend{bench.Incremental, bench.Batch, bench.NuSMVLike}
		for _, fam := range []bench.Family{bench.FamilyZoo, bench.FamilyFatTree, bench.FamilySmallWorld} {
			t, _, err := bench.Fig7(fam, sc.fig7Sizes, checkers, sc.timeout)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	if all || fig == "7df" {
		for _, fam := range []bench.Family{bench.FamilyZoo, bench.FamilyFatTree, bench.FamilySmallWorld} {
			t, _, err := bench.Fig7Rule(fam, sc.fig7dfSizes, sc.timeout)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	if all || fig == "8g" {
		t, waits, err := bench.Fig8g(sc.fig8gSizes, sc.timeout)
		if err != nil {
			return nil, err
		}
		out = append(out, t, waits)
	}
	if all || fig == "8h" {
		t, err := bench.Fig8h(sc.fig8hSizes, sc.timeout)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if all || fig == "8i" {
		t, waits, err := bench.Fig8i(sc.fig8iSizes, sc.timeout)
		if err != nil {
			return nil, err
		}
		out = append(out, t, waits)
	}
	if all || fig == "checker" {
		if err := add(bench.CheckerOnly(sc.checkerSize)); err != nil {
			return nil, err
		}
	}
	if all || fig == "ablation" {
		if err := add(bench.Ablation(sc.ablationSize, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "stream" {
		if err := add(bench.RollingStreamCompare(sc.streamSizes, sc.streamSteps, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "decomp" {
		if err := add(bench.DecompCompare(sc.decompSizes, sc.decompRegion, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "server" {
		if err := add(bench.ServerCompare(sc.serverTenants, sc.serverSwitches, sc.serverSteps, 4)); err != nil {
			return nil, err
		}
	}
	if all || fig == "dag" {
		if err := add(bench.DAGCompare(sc.dagSWSizes, sc.dagFTSizes, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "repair" {
		if err := add(bench.RepairCompare(sc.repairSizes, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "obs" {
		if err := add(bench.ObsOverheadCompare(sc.streamSizes, sc.streamSteps, sc.timeout)); err != nil {
			return nil, err
		}
	}
	if all || fig == "cache" {
		if err := add(bench.CacheCompare(sc.cacheTenants, sc.cacheSwitches, sc.cacheCycles, 4)); err != nil {
			return nil, err
		}
	}
	if all || fig == "snapshot" {
		if err := add(bench.SnapshotRestoreCompare(sc.snapSizes, sc.snapRegions, sc.timeout)); err != nil {
			return nil, err
		}
		if err := add(bench.ShardCompare(sc.shardReplicas, sc.shardTenants, sc.shardSwitches, sc.shardSteps, 4)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
