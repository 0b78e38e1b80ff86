package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// TestCloneChainsDiffAndHash is the property the request path rests on
// since configurations share tables: over random chains of clones and
// mutations — rules added, removed and put back (equal tables in another
// order), classes removed, tables installed from a sibling — Diff lists
// what a sweep over every switch finds, two configurations hash alike
// exactly when they differ nowhere, and no memoized table digest outlives
// a mutation of its switch.
func TestCloneChainsDiffAndHash(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	const switches = 12
	rule := func() network.Rule {
		return network.Rule{
			Priority: 1 + r.Intn(2),
			Match:    network.MatchFlow(r.Intn(3), r.Intn(2)),
			Actions:  []network.Action{network.Forward(topology.Port(1 + r.Intn(2)))},
		}
	}
	pool := []*config.Config{config.New()}
	equalPairs, differingPairs := 0, 0
	for iter := 0; iter < 400; iter++ {
		c := pool[r.Intn(len(pool))].Clone()
		for n := 1 + r.Intn(3); n > 0; n-- {
			sw := r.Intn(switches)
			switch r.Intn(6) {
			case 0, 1:
				c.AddRule(sw, rule())
			case 2:
				if tbl := c.Table(sw); len(tbl) > 0 {
					c.RemoveRule(sw, tbl[r.Intn(len(tbl))])
				}
			case 3: // out and back in: an equal table, in another order
				if tbl := c.Table(sw); len(tbl) > 1 {
					c.RemoveRule(sw, tbl[0])
					c.AddRule(sw, tbl[0])
				}
			case 4:
				config.RemoveClassRules(c, config.Class{SrcHost: r.Intn(3), DstHost: r.Intn(2)})
			case 5:
				c.SetTable(sw, pool[r.Intn(len(pool))].Table(r.Intn(switches)))
			}
		}
		hashConfig(c) // memoizes every digest c holds; its clones inherit them
		pool = append(pool, c)
	}
	hashes := make([]cfgHash, len(pool))
	for i, c := range pool {
		hashes[i] = hashConfig(c)
		for sw := 0; sw < c.Span(); sw++ {
			if c.TableDigest(sw) != c.Table(sw).Digest() {
				t.Fatalf("config %d: sw%d carries the digest of another table", i, sw)
			}
		}
	}
	for i, a := range pool {
		for j, b := range pool[:i] {
			var want []int
			for sw := 0; sw < switches; sw++ {
				if !a.Table(sw).Equal(b.Table(sw)) {
					want = append(want, sw)
				}
			}
			if got := config.Diff(a, b); !slices.Equal(got, want) {
				t.Fatalf("configs %d, %d: Diff = %v, a sweep finds %v", i, j, got, want)
			}
			if (hashes[i] == hashes[j]) != (len(want) == 0) {
				t.Fatalf("configs %d, %d differ on %v, hashes equal: %v", i, j, want, hashes[i] == hashes[j])
			}
			if len(want) == 0 {
				equalPairs++
			} else {
				differingPairs++
			}
		}
	}
	if equalPairs < 10 || differingPairs < 10 {
		t.Fatalf("%d equal pairs and %d differing: the walk tests one side only", equalPairs, differingPairs)
	}
}

// TestSharedConfigurationHashedConcurrently: a configuration handed to a
// session is read-only, and a library caller may hand one to several
// sessions; the digest memo a hash fills in is then written from several
// goroutines. Sessions over the same initial and target objects key their
// caches at once; under -race this is the memo's concurrency rule.
func TestSharedConfigurationHashedConcurrently(t *testing.T) {
	stream, targets := rollingTargets(t, 31, 3, 3, 2)
	want := hashConfig(targets[0].Clone())
	var wg sync.WaitGroup
	keys := make([]string, 6)
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			s.EnableCache()
			for _, tgt := range targets {
				if _, err := s.Synthesize(tgt); err != nil {
					t.Error(err)
					return
				}
			}
			keys[g] = s.instanceKey(targets[0])
		}()
	}
	wg.Wait()
	for g := range keys {
		if keys[g] != keys[0] {
			t.Fatalf("session %d keys the instance differently", g)
		}
	}
	if got := hashConfig(targets[0]); got != want {
		t.Fatal("the shared target hashes differently from its unshared clone")
	}
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
	stream, targets := rollingTargets(t, 61, 3, 6, 1)
	prev := stream.Init()
	for _, tgt := range targets {
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
		got := destinationRank(sc, diff, nil)
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
			units, err := computeUnits(nil, sc, diff, nil, g.rules, g.twoSimple)
			if err != nil {
				t.Fatal(err)
			}
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

// TestRestoreAdoptsTheCallersConfiguration: a session resumed from a
// parked handle is bound — and every class structure it builds, then or
// later — to the configuration object the parked session held, so the
// holder's check is a pointer comparison and the next request diffs
// against tables it shares, and writes the image the parked session would
// have; restored from bytes, a session is where the image says, on a
// decoded copy. The committed images of all three versions.
func TestRestoreAdoptsTheCallersConfiguration(t *testing.T) {
	for _, seed := range loadFuzzSeeds(t) {
		restore := func() *Session {
			s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, seed.img)
			if err != nil {
				t.Fatalf("%s: %v", seed.name, err)
			}
			slotsAtCurrent(t, seed.name, s)
			if s.Current() == seed.target || len(config.Diff(s.Current(), seed.target)) != 0 {
				t.Fatalf("%s: restored from bytes, the session is not on a copy of the image's configuration", seed.name)
			}
			return s
		}
		decoded := restore()
		at := Resume(seed.base.Topo, seed.base.Specs, Options{}, decoded.Park(), SessionResources{})
		if at.Current() != decoded.Current() || slotsAtCurrent(t, seed.name, at) != 0 {
			t.Fatalf("%s: resumed on a copy of the handle's configuration, or with classes built", seed.name)
		}
		if seed.version == snapVersion {
			if again, err := at.Snapshot(); err != nil || !bytes.Equal(again, seed.img) {
				t.Fatalf("%s: a resumed session writes another image (err %v)", seed.name, err)
			}
		}
		// The adopted session serves what one on a decoded copy serves.
		want, werr := restore().Synthesize(seed.base.Init)
		got, gerr := at.Synthesize(seed.base.Init)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || (werr == nil && got.String() != want.String()) {
			t.Fatalf("%s: adopted session answers\n%v (%v), a decoded one\n%v (%v)", seed.name, got, gerr, want, werr)
		}
		if slotsAtCurrent(t, seed.name, at) == 0 {
			t.Fatalf("%s: the adopted session answered with no class built", seed.name)
		}
	}
}
