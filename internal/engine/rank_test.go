package engine

import (
	"io"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// crossesAny reports whether some rule cfg holds on one of the switches
// matches pkt (on any in-port): the classes destinationRank must trace.
func crossesAny(cfg *config.Config, switches []int, pkt network.Packet) bool {
	for _, sw := range switches {
		for _, r := range cfg.Table(sw) {
			if headerMatches(r.Match, pkt) {
				return true
			}
		}
	}
	return false
}

// everyClassRank is destinationRank as it was before it learned which
// classes a diff can forward: every class traced, every switch of every
// path ranked.
func everyClassRank(sc *config.Scenario) map[int]int {
	rank := map[int]int{}
	for _, cs := range sc.Specs {
		path, err := config.PathOf(sc.Final, sc.Topo, cs.Class)
		if err != nil {
			continue
		}
		for i, sw := range path {
			r := len(path) - 1 - i
			if old, ok := rank[sw]; !ok || r < old {
				rank[sw] = r
			}
		}
	}
	return rank
}

// TestDestinationRankTracesOnlyMovedClasses: the ranks of the diff's
// switches — the only ones ever looked up — are those the every-class
// version assigns, on the golden shapes, on partial diffs of a rolling
// stream (most classes stay put and must not be traced, yet a switch they
// share with a moved class keeps the smaller rank), and with a wildcard
// rule on a diff switch, which every class matches. The unit lists built
// from them agree at switch, rule and 2-simple granularity.
func TestDestinationRankTracesOnlyMovedClasses(t *testing.T) {
	var scenarios []*config.Scenario
	for _, build := range []func() (*config.Scenario, error){
		func() (*config.Scenario, error) {
			return config.Diamonds(topology.SmallWorld(60, 4, 0.3, 60), config.DiamondOptions{Pairs: 2, Property: config.Reachability, Seed: 60 * 7})
		},
		func() (*config.Scenario, error) {
			return config.MultiRegion(topology.SmallWorld(120, 6, 0.3, 120), config.MultiRegionOptions{Regions: 3, PairsPerRegion: 2, Property: config.Reachability, Seed: 120})
		},
		func() (*config.Scenario, error) {
			return config.Diamonds(topology.SmallWorld(150, 4, 0.3, 9), config.DiamondOptions{Pairs: 2, Property: config.Waypointing, Seed: 9, BackgroundFlows: 6})
		},
	} {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	stream, err := config.RollingUpdates(topology.SmallWorld(50, 4, 0.3, 61), config.RollingOptions{
		Pairs: 3, Property: config.Reachability, Seed: 61, Steps: 6, FlipsPerStep: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for prev := stream.Init(); ; {
		tgt, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, &config.Scenario{Topo: stream.Topo(), Init: prev, Final: tgt, Specs: stream.Specs()})
		prev = tgt
	}
	// A wildcard rule below the class rules on a switch of the last diff:
	// every class matches it there, none is forwarded by it.
	last := scenarios[len(scenarios)-1]
	wild := last.Final.Clone()
	wild.AddRule(config.Diff(last.Init, last.Final)[0], network.Rule{Priority: 1, Match: network.AnyPacket(), Actions: []network.Action{network.Forward(1)}})
	scenarios = append(scenarios, &config.Scenario{Topo: last.Topo, Init: last.Init, Final: wild, Specs: last.Specs})

	traced, skipped := 0, 0
	for si, sc := range scenarios {
		diff := config.Diff(sc.Init, sc.Final)
		if len(diff) == 0 {
			t.Fatalf("scenario %d: empty diff", si)
		}
		want := everyClassRank(sc)
		got := destinationRank(sc, diff, newFlowIndex(sc.Specs))
		for i, sw := range diff {
			w, ok := want[sw]
			if !ok {
				w = lateRank
			}
			if got[i] != w {
				t.Fatalf("scenario %d: sw%d ranks %d, every-class rank %d", si, sw, got[i], w)
			}
		}
		for _, cs := range sc.Specs {
			if crossesAny(sc.Final, diff, cs.Class.Packet()) {
				traced++
			} else {
				skipped++
			}
		}
		for _, g := range []struct{ rules, twoSimple bool }{{false, false}, {true, false}, {false, true}} {
			units := computeUnits(nil, sc, diff, newFlowIndex(sc.Specs), g.rules, g.twoSimple)
			for _, u := range units {
				w, ok := want[u.sw]
				if !ok {
					w = lateRank
				}
				// The rank is the switch's, plus whole bands of lateRank for
				// finalize steps and rule removals.
				if u.rank%lateRank != w%lateRank || (!u.isRule && u.requires < 0 && u.rank != w) {
					t.Fatalf("scenario %d, %+v: %v ranks %d, its switch %d", si, g, u, u.rank, w)
				}
			}
		}
	}
	if traced == 0 || skipped == 0 {
		t.Fatalf("%d classes traced, %d skipped: the scenarios exercise one side only", traced, skipped)
	}
}

// TestFlowIndexFindsEveryMatchingClass: the classes the index returns for
// a rule's pattern are those headerMatches admits, found by a pass over
// every class — for patterns that fix both hosts, leave one or both open,
// or fix the packet type, on classes that share a flow.
func TestFlowIndexFindsEveryMatchingClass(t *testing.T) {
	var specs []config.ClassSpec
	for _, f := range [][2]int{{3, 1}, {1, 2}, {3, 1}, {2, 2}, {1, 3}, {3, 2}, {1, 2}} {
		specs = append(specs, config.ClassSpec{Class: config.Class{SrcHost: f[0], DstHost: f[1]}})
	}
	ix := newFlowIndex(specs)
	w := network.Wildcard
	for _, pat := range []network.Pattern{
		network.MatchFlow(1, 2), network.MatchFlow(3, 1), network.MatchFlow(4, 4),
		{Src: 1, Dst: w, Typ: w}, {Src: w, Dst: 2, Typ: w}, network.AnyPacket(),
		{Src: 1, Dst: 2, Typ: 0}, {Src: 1, Dst: 2, Typ: 7}, {InPort: 2, Src: 3, Dst: 1, Typ: w},
	} {
		var want []int
		for ci, cs := range specs {
			if headerMatches(pat, cs.Class.Packet()) {
				want = append(want, ci)
			}
		}
		got := ix.appendMatching(nil, pat)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: the index finds classes %v, a pass over every class %v", pat, got, want)
		}
	}
}
