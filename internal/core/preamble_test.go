package core

import (
	"crypto/sha256"
	"testing"

	"netupdate/internal/config"
)

// cfgHash and hashConfig name the configuration digest the plan-cache key
// is made of (config.Config.Digest).
type cfgHash = [sha256.Size]byte

func hashConfig(cfg *config.Config) cfgHash { return cfg.Digest() }

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
		units[i] = len(diff) // a unit per diff switch, at switch granularity
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
