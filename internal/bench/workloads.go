package bench

import (
	"fmt"
	"io"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// Family identifies a topology dataset from the evaluation.
type Family string

// The three topology families of Figure 7.
const (
	FamilyZoo        Family = "topology-zoo"
	FamilyFatTree    Family = "fattree"
	FamilySmallWorld Family = "small-world"
)

// BuildTopology constructs a topology of roughly n switches from the
// family (deterministic for a given n).
func BuildTopology(f Family, n int) (*topology.Topology, error) {
	switch f {
	case FamilyZoo:
		return topology.WAN(fmt.Sprintf("zoo-like-%d", n), n, int64(0xBEEF+n)), nil
	case FamilyFatTree:
		t, _ := topology.FatTreeForSize(n)
		return t, nil
	case FamilySmallWorld:
		return topology.SmallWorld(n, 4, 0.3, int64(0xCAFE+n)), nil
	}
	return nil, fmt.Errorf("bench: unknown family %q", f)
}

// DiamondWorkload builds the standard evaluation workload on a topology
// of about n switches: disjoint diamonds whose pair count scales with the
// topology so that larger instances update more switches.
func DiamondWorkload(f Family, n int, prop config.Property, seed int64) (*config.Scenario, error) {
	return DiamondWorkloadBG(f, n, prop, seed, 0)
}

// DiamondWorkloadBG is DiamondWorkload with extra background routing
// flows inflating the rule tables (for the rule-granularity sweeps).
func DiamondWorkloadBG(f Family, n int, prop config.Property, seed int64, background int) (*config.Scenario, error) {
	topo, err := BuildTopology(f, n)
	if err != nil {
		return nil, err
	}
	var sc *config.Scenario
	err = placePairs(f, n, func(pairs int) error {
		var perr error
		sc, perr = config.Diamonds(topo, config.DiamondOptions{
			Pairs: pairs, Property: prop, Seed: seed, BackgroundFlows: background,
		})
		return perr
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// placePairs sizes the diamond count for an n-switch topology of family f
// (n/30, clamped to [1, 40]) and calls build with decreasing pair counts
// until placement succeeds: dense topologies occasionally cannot fit
// every diamond, and retrying smaller beats failing the sweep. Every
// harness workload shares this sizing so the figures stay comparable.
func placePairs(f Family, n int, build func(pairs int) error) error {
	pairs := n / 30
	if pairs < 1 {
		pairs = 1
	}
	if pairs > 40 {
		pairs = 40
	}
	for ; pairs >= 1; pairs-- {
		if build(pairs) == nil {
			return nil
		}
	}
	return fmt.Errorf("bench: cannot place any diamond on %s-%d", f, n)
}

// InfeasibleWorkload builds the Figure 8(h)/(i) workload: double-diamond
// gadgets with no switch-granularity solution.
func InfeasibleWorkload(n int, prop config.Property, gadgets int, seed int64) (*config.Scenario, error) {
	topo := topology.SmallWorld(n, 4, 0.3, int64(0xD00D+n))
	for ; gadgets >= 1; gadgets-- {
		sc, err := config.Infeasible(topo, config.InfeasibleOptions{
			Gadgets: gadgets, Property: prop, Seed: seed,
			BackgroundFlows: n / 2,
		})
		if err == nil {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("bench: cannot place any gadget on small-world-%d", n)
}

// StreamWorkload is a precomputed rolling-update walk: one topology, one
// set of class specifications, and the sequence of target configurations,
// so the warm (session) and cold (per-call) runners drive the identical
// stream.
type StreamWorkload struct {
	Topo    *topology.Topology
	Init    *config.Config
	Specs   []config.ClassSpec
	Targets []*config.Config
}

// BuildStreamWorkload carves the standard diamond workload into a
// topology of roughly n switches and random-walks it for the given number
// of steps (one diamond flipped per step). Sizing and the retry-smaller
// placement loop are shared with DiamondWorkload (placePairs), so the
// stream benchmark stays comparable to the synthesis benchmarks.
func BuildStreamWorkload(f Family, n, steps int, prop config.Property, seed int64) (*StreamWorkload, error) {
	topo, err := BuildTopology(f, n)
	if err != nil {
		return nil, err
	}
	var s *config.RollingStream
	if err := placePairs(f, n, func(pairs int) error {
		var perr error
		s, perr = config.RollingUpdates(topo, config.RollingOptions{
			Pairs: pairs, Property: prop, Seed: seed, Steps: steps, FlipsPerStep: 1,
		})
		return perr
	}); err != nil {
		return nil, err
	}
	w := &StreamWorkload{Topo: s.Topo(), Init: s.Init(), Specs: s.Specs()}
	for {
		tgt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		w.Targets = append(w.Targets, tgt)
	}
	return w, nil
}

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
