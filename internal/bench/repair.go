package bench

import (
	"fmt"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// RepairCompare measures warm-session repair against cold resynthesis
// from the same crash state. For each multi-region workload a plan is
// synthesized and its execution "crashes" halfway — the first half of
// the plan's DAG nodes committed (a sequential prefix is always
// dependency-closed). The warm path calls Session.Repair on the session
// that produced the plan: its per-class structures rebind to the crash
// configuration diff-proportionally and the search resumes with every
// checker cache hot. The cold path rebuilds everything from scratch at
// the crash configuration (what a controller without repair support
// would do: construct a fresh engine and synthesize). Both must produce
// the identical plan — the search is deterministic — so the speedup is
// pure warm-state advantage.
func RepairCompare(sizes []int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Warm-session repair vs cold resynthesis from the crash state",
		Note:  "multi-region reachability workloads, crash after half the plan's DAG nodes; best of 3",
		Header: []string{"workload", "units", "committed",
			"repair(ms)", "cold(ms)", "speedup", "exec(ms)", "match"},
	}
	for _, n := range sizes {
		topo := topology.SmallWorld(n, 6, 0.3, int64(n)*13)
		if err := repairRow(t, fmt.Sprintf("smallworld-%d", n), topo, dagRegions(n), timeout); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// repairRow measures one workload. Placement retries with fewer regions
// on cramped topologies, mirroring dagRow.
func repairRow(t *Table, name string, topo *topology.Topology, regions int, timeout time.Duration) error {
	var sc *config.Scenario
	var err error
	for r := regions; r >= 1; r-- {
		sc, err = config.MultiRegion(topo, config.MultiRegionOptions{
			Regions: r, PairsPerRegion: 2,
			Property: config.Reachability, Seed: int64(topo.NumSwitches()) * 11,
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("bench: cannot place any region on %s", name)
	}
	opts := core.Options{Timeout: timeout}

	const iters = 3
	var warmBest, coldBest time.Duration
	var units, committed int
	var execMS float64
	match := true
	for it := 0; it < iters; it++ {
		// Warm: a session synthesizes the plan (not timed), the execution
		// crashes after the first half of the DAG nodes, Repair is timed.
		// A fresh session per iteration keeps the repair's start state
		// identical across iterations.
		sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, opts)
		if err != nil {
			return err
		}
		plan, err := sess.Synthesize(sc.Final)
		if err != nil {
			return err
		}
		ups := plan.Updates()
		prefix := make([]int, len(ups)/2)
		for i := range prefix {
			prefix[i] = i
		}
		units, committed = len(ups), len(prefix)

		start := time.Now()
		rep, err := sess.Repair(prefix, nil)
		warm := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench: repair %s: %w", name, err)
		}

		// Cold: rebuild the whole engine at the crash configuration and
		// synthesize to the same target.
		crash := plan.ConfigAfter(sc.Init, prefix)
		crashSc := &config.Scenario{
			Name: sc.Name + "-crash", Topo: sc.Topo,
			Init: crash, Final: sc.Final, Specs: sc.Specs,
		}
		start = time.Now()
		cold, err := core.Synthesize(crashSc, opts)
		coldDur := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench: cold resynthesis %s: %w", name, err)
		}
		if rep.String() != cold.String() {
			match = false
		}
		// Execute the repair plan's DAG once from the crash state (not
		// timed: this is the simulated rollout, not synthesis) and take
		// the last node commit from the per-node timeline — the real
		// time-to-repaired the figure previously could not report.
		if it == 0 {
			var classes []config.Class
			for _, cs := range sc.Specs {
				classes = append(classes, cs.Class)
			}
			res := sim.RunPlanDAG(sc.Topo, crash, rep, classes,
				sim.Params{Duration: 3 * time.Second, ProbeInterval: 2 * time.Millisecond})
			if res.Stalled || res.Lost > 0 {
				return fmt.Errorf("bench: repair execution %s: stalled=%v lost=%d",
					name, res.Stalled, res.Lost)
			}
			_, execMS = timelineStats(res.NodeTimeline)
		}
		if it == 0 || warm < warmBest {
			warmBest = warm
		}
		if it == 0 || coldDur < coldBest {
			coldBest = coldDur
		}
	}
	wms := warmBest.Seconds() * 1000
	cms := coldBest.Seconds() * 1000
	matchStr := "yes"
	if !match {
		matchStr = "NO"
	}
	t.Add(name, units, committed, wms, cms,
		fmt.Sprintf("%.2fx", cms/wms), execMS, matchStr)
	return nil
}
