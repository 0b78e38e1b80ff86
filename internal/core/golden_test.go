package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// planDigest fingerprints everything an executor receives: every step
// with its table, rule by rule in order, and the dependency DAG.
func planDigest(p *Plan) string {
	h := sha256.New()
	for _, st := range p.Steps {
		fmt.Fprintf(h, "%s|%v\n", st, st.Table)
	}
	dag, _ := json.Marshal(p.DAG)
	h.Write(dag)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// goldenPlans pins, per shape and emitting path, the digest of the plan
// commit f8470f1 produced. The DAG is what a decentralized executor ships
// and the waits are what a sequential one pays, so no change to the
// passes around the search may move a byte of either: every value here
// was computed at that commit, before the ordering analysis, the loop
// check and the rebind relabel were made incremental, and must only ever
// be changed by a PR that means to change plans.
var goldenPlans = map[string]string{
	"small-world-40/joint":        "381086ca972a642e",
	"small-world-40/decomposed":   "381086ca972a642e",
	"small-world-40/back":         "94569961d1bd3a1b",
	"small-world-40/repair":       "2b8fff0bf8aa721d",
	"small-world-60/joint":        "beb58eb4439ded8c",
	"small-world-60/decomposed":   "44f3dbdef8d2de17",
	"small-world-60/back":         "503cef5c57bd2197",
	"small-world-60/repair":       "4aae48e9e3a40ef9",
	"multi-region-120/joint":      "d7463409d69e0c03",
	"multi-region-120/decomposed": "c7ae56eeba19781d",
	"multi-region-120/back":       "1230d6cd4920bfe8",
	"multi-region-120/repair":     "86a35ef5b549d7c5",
}

// TestPlanIdentityGolden drives the benchmark's smoke-size shapes — the
// serve-small tenant, the small one-shot file, the multi-region tenant —
// through every path that emits a plan and compares each plan with the
// pinned digest: the joint search, the decomposed search, a warm session's
// search, a plan-cache hit (which must re-emit the search's plan), the
// repair of a half-committed plan, and a search on a session restored
// from a snapshot (which must emit what the original session emits).
func TestPlanIdentityGolden(t *testing.T) {
	shapes := []struct {
		name  string
		build func() (*config.Scenario, error)
	}{
		{"small-world-40", func() (*config.Scenario, error) {
			return config.Diamonds(topology.SmallWorld(40, 4, 0.3, 40), config.DiamondOptions{
				Pairs: 1, Property: config.Reachability, Seed: 40 * 7,
			})
		}},
		{"small-world-60", func() (*config.Scenario, error) {
			return config.Diamonds(topology.SmallWorld(60, 4, 0.3, 60), config.DiamondOptions{
				Pairs: 2, Property: config.Reachability, Seed: 60 * 7,
			})
		}},
		{"multi-region-120", func() (*config.Scenario, error) {
			return config.MultiRegion(topology.SmallWorld(120, 6, 0.3, 120), config.MultiRegionOptions{
				Regions: 3, PairsPerRegion: 2, Property: config.Reachability, Seed: 120,
			})
		}},
	}
	for _, sh := range shapes {
		sc, err := sh.build()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		check := func(path string, p *Plan) string {
			t.Helper()
			got := planDigest(p)
			if want := goldenPlans[sh.name+"/"+path]; got != want {
				t.Errorf("%s/%s: plan digest %s, pinned %s (%d steps, %d waits)", sh.name, path, got, want, len(p.Steps), p.Waits())
			}
			return got
		}
		opts := Options{}
		joint := opts
		joint.NoDecomposition = true
		p, err := Synthesize(sc, joint)
		if err != nil {
			t.Fatalf("%s/joint: %v", sh.name, err)
		}
		check("joint", p)
		if p, err = Synthesize(sc, opts); err != nil {
			t.Fatalf("%s/decomposed: %v", sh.name, err)
		}
		forth := check("decomposed", p)
		if sh.name == "multi-region-120" && p.Stats.Components < 3 {
			t.Errorf("%s: %d components, want the decomposed path", sh.name, p.Stats.Components)
		}

		// A warm session: search, search back, then the first instance
		// again — a cache hit.
		s, err := NewSession(sc.Topo, sc.Init, sc.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableCache()
		if p, err = s.Synthesize(sc.Final); err != nil {
			t.Fatalf("%s/warm: %v", sh.name, err)
		}
		if got := planDigest(p); got != forth {
			t.Errorf("%s: warm session emits %s, one-shot %s", sh.name, got, forth)
		}
		if p, err = s.Synthesize(sc.Init); err != nil {
			t.Fatalf("%s/back: %v", sh.name, err)
		}
		back := check("back", p)
		if p, err = s.Synthesize(sc.Final); err != nil {
			t.Fatalf("%s/hit: %v", sh.name, err)
		}
		if got := planDigest(p); !p.Stats.CacheHit || got != forth {
			t.Errorf("%s: repeat instance: cache hit %v, digest %s, the search's %s", sh.name, p.Stats.CacheHit, got, forth)
		}

		// Post-restore: the session at Final, snapshotted and restored,
		// must emit the original session's plan back to Init.
		img, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RestoreSession(sc.Topo, sc.Specs, opts, img)
		if err != nil {
			t.Fatalf("%s/restore: %v", sh.name, err)
		}
		if p, err = rs.Synthesize(sc.Init); err != nil {
			t.Fatalf("%s/post-restore: %v", sh.name, err)
		}
		if got := planDigest(p); got != back {
			t.Errorf("%s: restored session emits %s, the original %s", sh.name, got, back)
		}

		// Repair: the first half of the plan's updates committed (a prefix
		// of the plan order is closed under the DAG's edges), then the
		// switch died.
		rp, err := NewSession(sc.Topo, sc.Init, sc.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p, err = rp.Synthesize(sc.Final); err != nil {
			t.Fatal(err)
		}
		committed := make([]int, len(p.Updates())/2)
		for i := range committed {
			committed[i] = i
		}
		if p, err = rp.Repair(committed, nil); err != nil {
			t.Fatalf("%s/repair: %v", sh.name, err)
		}
		check("repair", p)
	}
}
