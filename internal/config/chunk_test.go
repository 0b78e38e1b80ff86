package config

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// flatDigest recomputes Config.Digest from the tables alone — no chunk,
// no memo — by its definition: per chunk-sized run of switches, a SHA-256
// over the (slot, canonical form) pairs of its non-empty tables, and over
// those, the (run index, run digest) pairs of the non-empty runs.
func flatDigest(c *Config) [sha256.Size]byte {
	var top []byte
	for ci := 0; ci<<chunkBits < c.Span(); ci++ {
		var run []byte
		for i := range chunkSize {
			if tbl := c.Table(ci<<chunkBits + i); len(tbl) > 0 {
				run = tbl.Canonical().AppendCanonical(append(run, byte(i)))
			}
		}
		if len(run) > 0 {
			d := sha256.Sum256(run)
			top = binary.AppendUvarint(top, uint64(ci))
			top = append(top, d[:]...)
		}
	}
	return sha256.Sum256(top)
}

// removeByScan is RemoveClassRules as a pass over every switch.
func removeByScan(c *Config, cl Class) {
	pat := cl.Pattern()
	for sw := 0; sw < c.Span(); sw++ {
		tbl := c.Table(sw)
		var out network.Table
		for _, r := range tbl {
			if r.Match != pat {
				out = append(out, r)
			}
		}
		if len(out) != len(tbl) {
			c.SetTable(sw, out)
		}
	}
}

// TestChunkedConfigMatchesFlat: over random sequences of SetTable,
// AddRule, RemoveRule, RemoveClassRules and Clone on configurations
// spanning several chunks — parents mutated after they were cloned, clones
// mutated, tables installed from a relative, chunks emptied — Digest is
// the flat recomputation's, Diff is what comparing every switch finds,
// RemoveClassRules leaves what removing by a pass over every switch
// leaves, and digests are equal exactly when Diff is empty.
func TestChunkedConfigMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const switches = 5*chunkSize + 3
	rule := func() network.Rule {
		return fwdRule(1+r.Intn(2), network.MatchFlow(r.Intn(4), r.Intn(2)), topology.Port(1+r.Intn(2)))
	}
	pool := []*Config{New(), NewSized(switches)}
	for iter := 0; iter < 600; iter++ {
		// Mostly a clone of a relative; sometimes a relative itself, written
		// in place after it was cloned.
		c := pool[r.Intn(len(pool))]
		if r.Intn(4) > 0 {
			c = c.Clone()
			pool = append(pool, c)
		}
		if r.Intn(3) == 0 {
			c.Digest() // a memo its clones carry and its next write drops
		}
		for n := 1 + r.Intn(4); n > 0; n-- {
			sw := r.Intn(switches)
			switch r.Intn(7) {
			case 0, 1:
				c.AddRule(sw, rule())
			case 2:
				if tbl := c.Table(sw); len(tbl) > 0 {
					c.RemoveRule(sw, tbl[r.Intn(len(tbl))])
				}
			case 3:
				cl := Class{SrcHost: r.Intn(4), DstHost: r.Intn(2)}
				want := c.Clone()
				removeByScan(want, cl)
				RemoveClassRules(c, cl)
				for s := 0; s < switches; s++ {
					if !slices.EqualFunc(c.Table(s), want.Table(s), network.Rule.Equal) {
						t.Fatalf("iter %d: RemoveClassRules(%v) leaves sw%d %v, a scan %v", iter, cl, s, c.Table(s), want.Table(s))
					}
				}
			case 4:
				c.SetTable(sw, pool[r.Intn(len(pool))].Table(r.Intn(switches)))
			case 5: // empty a whole chunk
				for s := sw &^ chunkMask; s < (sw|chunkMask)+1; s++ {
					c.SetTable(s, nil)
				}
			case 6: // out and back in: an equal table, in another order
				if tbl := c.Table(sw); len(tbl) > 1 {
					c.RemoveRule(sw, tbl[0])
					c.AddRule(sw, tbl[0])
				}
			}
		}
	}
	digests := make([][sha256.Size]byte, len(pool))
	for i, c := range pool {
		if digests[i] = c.Digest(); digests[i] != flatDigest(c) {
			t.Fatalf("config %d: Digest is not the flat recomputation's", i)
		}
	}
	equal, differing := 0, 0
	for i, a := range pool {
		for j, b := range pool[:i] {
			want := sweepDiff(a, b)
			if got := Diff(a, b); !slices.Equal(got, want) {
				t.Fatalf("configs %d, %d: Diff = %v, a sweep finds %v", i, j, got, want)
			}
			if (digests[i] == digests[j]) != (len(want) == 0) {
				t.Fatalf("configs %d, %d differ on %v, digests equal: %v", i, j, want, digests[i] == digests[j])
			}
			if len(want) == 0 {
				equal++
			} else {
				differing++
			}
		}
	}
	if equal < 10 || differing < 10 {
		t.Fatalf("%d equal pairs and %d differing: the walk tests one side only", equal, differing)
	}
}

// TestDigestIsCanonical: the digest is of the (switch, table) set and of
// nothing else — not the Span New or NewSized gave, not the order rules
// went in, not switches past the last table, not a chunk that held tables
// once and holds none now.
func TestDigestIsCanonical(t *testing.T) {
	ra, rb := fwdRule(1, network.MatchFlow(1, 2), 1), fwdRule(2, network.MatchFlow(3, 4), 2)
	a := New()
	a.AddRule(3, ra)
	a.AddRule(3, rb)
	a.AddRule(2*chunkSize+1, ra)

	b := NewSized(4 * chunkSize) // wider span, rules in the other order
	b.AddRule(2*chunkSize+1, ra)
	b.AddRule(3, rb)
	b.AddRule(3, ra)

	c := a.Clone() // a chunk filled and emptied again, and a trailing empty switch
	c.AddRule(chunkSize+5, rb)
	c.AddRule(6*chunkSize, ra)
	c.SetTable(chunkSize+5, nil)
	c.RemoveRule(6*chunkSize, ra)

	want := a.Digest()
	for name, x := range map[string]*Config{"NewSized, other order": b, "emptied chunk and trailing switch": c} {
		if len(Diff(a, x)) != 0 {
			t.Fatalf("%s: differs from the original on %v", name, Diff(a, x))
		}
		if x.Digest() != want {
			t.Fatalf("%s: digest differs", name)
		}
	}
	if New().Digest() != NewSized(3*chunkSize).Digest() {
		t.Fatal("empty configurations of two spans digest differently")
	}
	d := a.Clone()
	d.AddRule(3, rb) // the same rule twice is another table
	if d.Digest() == want {
		t.Fatal("a table with a rule added digests like the original")
	}
}

// TestSharedConfigurationClonedAndDigestedConcurrently: a read-only
// configuration is cloned and digested from several goroutines at once —
// Clone writes its receiver's token, Digest fills the memos of the
// configuration and its chunks — and every clone, mutated on its own
// goroutine, leaves the original and the other clones as they were. Run
// under -race.
func TestSharedConfigurationClonedAndDigestedConcurrently(t *testing.T) {
	base := NewSized(4 * chunkSize)
	for sw := 0; sw < base.Span(); sw += 3 {
		base.AddRule(sw, fwdRule(1, network.MatchFlow(sw%5, 1), 1))
	}
	shared := base.Clone() // undigested: the goroutines race to fill its memos
	want := flatDigest(shared)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if shared.Digest() != want {
					t.Error("the shared configuration's digest changed")
					return
				}
				c := shared.Clone()
				sw := (g*7 + i) % c.Span()
				c.AddRule(sw, fwdRule(9, network.MatchFlow(g, i), 2))
				RemoveClassRules(c, Class{SrcHost: sw % 5, DstHost: 1})
				if c.Digest() != flatDigest(c) {
					t.Error("a clone's digest is not its tables'")
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared.Digest() != want || flatDigest(shared) != want || len(Diff(shared, base)) != 0 {
		t.Fatal("the clones wrote where the shared configuration reads")
	}
}

// TestRemoveClassRulesOnCrowdedChunk: a chunk whose rules use more
// flows than its Bloom filter tells apart, some with host ids too wide to
// pack, still finds every class it holds, through the memo a shared chunk
// answers from.
func TestRemoveClassRulesOnCrowdedChunk(t *testing.T) {
	host := func(i int) int { // a few ids no word packs two of
		if i%10 == 9 {
			return -i << 40
		}
		return i
	}
	base := New()
	for i := 0; i < 120; i++ {
		base.AddRule(i%chunkSize, fwdRule(1, network.MatchFlow(host(i), i%7), 1))
	}
	shared := base.Clone()
	for i := 0; i < 120; i++ {
		cl := Class{SrcHost: host(i), DstHost: i % 7}
		got, want := shared.Clone(), shared.Clone()
		RemoveClassRules(got, cl)
		removeByScan(want, cl)
		if d := Diff(got, want); len(d) != 0 || got.NumRules() != 119 {
			t.Fatalf("class %v: RemoveClassRules leaves %d rules, differing from a scan on %v", cl, got.NumRules(), d)
		}
	}
}
