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
