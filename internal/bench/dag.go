package bench

import (
	"fmt"
	"sort"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// DAGCompare measures decentralized DAG execution against the central
// wait-based controller schedule: the same synthesized plan is executed
// once as the sequential command list (one install at a time, flushes
// blocking on drain) and once as its dependency DAG (every switch commits
// as soon as its predecessors' acks are visible), and the completion
// times are compared. Workloads are multi-region small-world and fat-tree
// scenarios whose region count grows with the topology, so the update
// size axis also widens the DAG — the decentralized gap should grow with
// it. Both executions must deliver every probe (loss would mean the DAG
// admitted an order the checker did not).
func DAGCompare(swSizes, ftSizes []int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Decentralized DAG execution vs central controller schedule",
		Note: fmt.Sprintf("multi-region reachability workloads; install %v/switch, ack %v, jitter-free",
			sim.DefaultUpdateLatency, sim.DefaultAckLatency),
		Header: []string{"workload", "units", "waits", "dag",
			"central(ms)", "decentral(ms)", "p50commit(ms)", "speedup", "lost"},
	}
	for _, n := range swSizes {
		topo := topology.SmallWorld(n, 6, 0.3, int64(n)*13)
		if err := dagRow(t, fmt.Sprintf("smallworld-%d", n), topo, dagRegions(n), timeout); err != nil {
			return nil, err
		}
	}
	for _, n := range ftSizes {
		topo, _ := topology.FatTreeForSize(n)
		if err := dagRow(t, fmt.Sprintf("fattree-%d", topo.NumSwitches()), topo, dagRegions(n), timeout); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// dagRegions sizes the region count — the DAG-width driver — with the
// topology, clamped to at least two so every row has parallelism to find.
func dagRegions(n int) int {
	r := n / 40
	if r < 2 {
		r = 2
	}
	return r
}

// dagRow synthesizes one multi-region workload on topo and adds its
// central-vs-decentralized measurement. Placement retries with fewer
// regions on cramped topologies, mirroring MultiRegionWorkload.
func dagRow(t *Table, name string, topo *topology.Topology, regions int, timeout time.Duration) error {
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
	plan, err := core.Synthesize(sc, core.Options{Timeout: timeout})
	if err != nil {
		return err
	}
	var classes []config.Class
	for _, cs := range sc.Specs {
		classes = append(classes, cs.Class)
	}
	// Completion dominates well before the default 6 s window; a shorter,
	// sparser probe load keeps the figure cheap without changing the
	// schedule (commands never depend on probe events, only drains do).
	p := sim.Params{Duration: 3 * time.Second, ProbeInterval: 2 * time.Millisecond}
	central := sim.Run(sc.Topo, sc.Init, plan.Commands(), classes, p)
	decen := sim.RunPlanDAG(sc.Topo, sc.Init, plan, classes, p)
	// Completion measured from command start: both runs idle through the
	// same warm-up window, which would otherwise dilute the ratio.
	cms := (central.CompleteAt - sim.DefaultCommandStart).Seconds() * 1000
	dms := (decen.CompleteAt - sim.DefaultCommandStart).Seconds() * 1000
	// The per-node timeline shows the shape of the decentralized rollout,
	// not just its end: the median commit lands well before the final one
	// because independent regions converge concurrently.
	p50, _ := timelineStats(decen.NodeTimeline)
	t.Add(name, len(plan.Updates()), plan.Stats.WaitsAfter,
		fmt.Sprintf("%dx%d", plan.Stats.DAGDepth, plan.Stats.DAGWidth),
		cms, dms, p50, fmt.Sprintf("%.2fx", cms/dms),
		central.Lost+decen.Lost)
	return nil
}

// timelineStats summarizes a DAG run's per-node commit timeline: the
// median and final commit offsets from command start, in milliseconds.
// Nodes that never committed (CommitAt < 0) are excluded.
func timelineStats(tl []sim.NodeTiming) (p50ms, lastMS float64) {
	var commits []time.Duration
	for _, nt := range tl {
		if nt.CommitAt >= 0 {
			commits = append(commits, nt.CommitAt-sim.DefaultCommandStart)
		}
	}
	if len(commits) == 0 {
		return 0, 0
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
	toMS := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	return toMS(commits[len(commits)/2]), toMS(commits[len(commits)-1])
}
