package core

import (
	"crypto/sha256"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
)

// cfgHash and hashConfig name the configuration digest the plan-cache key
// is made of (config.Config.Digest).
type cfgHash = [sha256.Size]byte

func hashConfig(cfg *config.Config) cfgHash { return cfg.Digest() }

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

// TestPreambleWorkFollowsTheDiff: what a warm request pays before its
// search — naming the target (StreamBase.Apply), diffing it, keying the
// plan cache (both digests) and ranking the diff's switches — visits the
// same switch slots and hashes the same bytes on the mixed tenant and on
// it with 800 more switches of background classes, for the same delta.
// Only the per-chunk term, a scan of the chunk table, may grow. A pass
// over every switch — a pointer per switch copied, a table digest read
// per switch, a class's rules looked for on every switch — doubles the
// first two.
func TestPreambleWorkFollowsTheDiff(t *testing.T) {
	var work [2]config.Work
	var units [2]int
	for i, n := range preambleSizes {
		base, forth, back := mixedTenantSized(t, n)
		cur := base.Init
		cur.Digest()
		// One round trip first: the chunks of the current configuration
		// memoize their digests and patterns on a tenant's first requests.
		for _, d := range []*config.StreamDelta{forth, back} {
			next, err := base.Apply(cur, d)
			if err != nil {
				t.Fatal(err)
			}
			next.Digest()
			cur = next
		}
		config.CountWork(&work[i])
		target, err := base.Apply(cur, forth)
		if err != nil {
			config.CountWork(nil)
			t.Fatal(err)
		}
		diff := config.Diff(cur, target)
		cur.Digest()
		target.Digest()
		config.CountWork(nil)
		u, err := computeUnits(nil, &config.Scenario{Topo: base.Topo, Init: cur, Final: target, Specs: base.Specs}, diff, newFlowIndex(base.Specs), false, false)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = len(u)
	}
	t.Logf("n=%d: %+v; n=%d: %+v", preambleSizes[0], work[0], preambleSizes[1], work[1])
	if units[0] != units[1] || units[0] == 0 {
		t.Fatalf("the delta is %d units at n=%d and %d at n=%d", units[0], preambleSizes[0], units[1], preambleSizes[1])
	}
	if work[0].Slots != work[1].Slots || work[0].Hashed != work[1].Hashed || work[0].Slots == 0 || work[0].Hashed == 0 {
		t.Fatalf("slots visited %d -> %d, bytes hashed %d -> %d: the preamble grows with the network", work[0].Slots, work[1].Slots, work[0].Hashed, work[1].Hashed)
	}
	if work[1].Chunks <= work[0].Chunks {
		t.Fatalf("chunk-table entries %d -> %d: the count misses the per-chunk term", work[0].Chunks, work[1].Chunks)
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
