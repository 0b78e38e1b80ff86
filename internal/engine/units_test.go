package engine

import (
	"strings"
	"testing"
)

// TestBitsetMultiWord exercises set/get/key/matchesPattern across the
// word boundary of a 3-word bitset.
func TestBitsetMultiWord(t *testing.T) {
	b := newBitset(190)
	if len(b) != 3 {
		t.Fatalf("190 bits should take 3 words, got %d", len(b))
	}
	for _, i := range []int{0, 63, 64, 127, 128, 189} {
		if b.get(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		c := b.set(i)
		if !c.get(i) {
			t.Fatalf("bit %d lost after set", i)
		}
		if b.get(i) {
			t.Fatalf("set mutated the receiver at bit %d", i)
		}
		if c.count() != 1 {
			t.Fatalf("count after one set = %d", c.count())
		}
		if c.key() == b.key() {
			t.Fatalf("bit %d: key does not distinguish the bitsets", i)
		}
		if c.hash() == b.hash() || !c.equal(c) || c.equal(b) {
			t.Fatalf("bit %d: hash/equal inconsistent", i)
		}
	}
	// Bits in different words must land in different key bytes.
	x, y := b.set(1), b.set(65)
	if x.key() == y.key() {
		t.Fatal("keys collide across words")
	}
	if len(x.key()) != 24 {
		t.Fatalf("key length = %d, want 24", len(x.key()))
	}
}

// TestBitsetEmpty: a zero-capacity bitset is a valid value for every
// operation (a scenario with no differing switches produces one).
func TestBitsetEmpty(t *testing.T) {
	b := newBitset(0)
	if len(b) != 0 || b.count() != 0 {
		t.Fatalf("empty bitset: len=%d count=%d", len(b), b.count())
	}
	if b.key() != "" {
		t.Fatalf("empty key = %q", b.key())
	}
	if !b.equal(newBitset(0)) {
		t.Fatal("empty bitsets must be equal")
	}
	if !b.matchesPattern(newBitset(0), newBitset(0)) {
		t.Fatal("empty pattern must match the empty bitset")
	}
	s := newBitsetSet()
	if !s.add(b) || s.add(b) || !s.has(b) {
		t.Fatal("empty bitset must be insertable exactly once")
	}
}

// TestBitsetMatchesPatternMultiWord: patterns constrain only relevant
// bits, independently in every word.
func TestBitsetMatchesPatternMultiWord(t *testing.T) {
	cfg := newBitset(130).set(0).set(70).set(129)
	relevant := newBitset(130).set(0).set(70).set(100)
	value := newBitset(130).set(0).set(70)
	if !cfg.matchesPattern(relevant, value) {
		t.Fatal("cfg agrees on bits 0, 70, 100; must match")
	}
	if !cfg.set(99).matchesPattern(relevant, value) {
		t.Fatal("bit 99 is irrelevant; must still match")
	}
	if cfg.set(100).matchesPattern(relevant, value) {
		t.Fatal("bit 100 contradicts the pattern; must not match")
	}
	without70 := newBitset(130).set(0).set(129)
	if without70.matchesPattern(relevant, value) {
		t.Fatal("bit 70 unset contradicts the pattern; must not match")
	}
}

// TestBitsetSet: membership semantics of the single-owner hash set,
// including same-hash chains and multi-word keys.
func TestBitsetSet(t *testing.T) {
	s := newBitsetSet()
	var members []bitset
	base := newBitset(130)
	for i := 0; i < 130; i++ {
		members = append(members, base.set(i))
	}
	for _, m := range members {
		if s.has(m) {
			t.Fatal("member present before insertion")
		}
		if !s.add(m) {
			t.Fatal("first add must report new")
		}
		if s.add(m) {
			t.Fatal("second add must report existing")
		}
	}
	if s.len() != len(members) {
		t.Fatalf("len = %d, want %d", s.len(), len(members))
	}
	for _, m := range members {
		if !s.has(m) {
			t.Fatal("member lost")
		}
	}
	if s.has(base) {
		t.Fatal("empty mask never inserted")
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	if b.get(129) {
		t.Fatal("fresh bitset must be empty")
	}
	c := b.set(129).set(0)
	if !c.get(129) || !c.get(0) || b.get(0) {
		t.Fatal("set must be persistent")
	}
	if c.count() != 2 {
		t.Fatalf("count = %d", c.count())
	}
	if b.key() == c.key() {
		t.Fatal("keys must differ")
	}
	rel := newBitset(130).set(0).set(5)
	val := newBitset(130).set(0)
	if !c.matchesPattern(rel, val) {
		t.Fatal("c has 0 set and 5 unset; should match pattern")
	}
	d := c.set(5)
	if d.matchesPattern(rel, val) {
		t.Fatal("d has 5 set; should not match")
	}
}

// The bitmask and set helpers only the tests read: the search's paths use
// hash and equal (visited.go).

// key renders the bitmask as a comparable string.
func (b bitset) key() string {
	var sb strings.Builder
	sb.Grow(8 * len(b))
	for _, w := range b {
		for j := 0; j < 8; j++ {
			sb.WriteByte(byte(w >> (8 * uint(j))))
		}
	}
	return sb.String()
}

// has reports membership.
func (s *bitsetSet) has(b bitset) bool {
	for _, e := range s.m[b.hash()] {
		if e.equal(b) {
			return true
		}
	}
	return false
}

func (s *bitsetSet) len() int {
	n := 0
	for _, bucket := range s.m {
		n += len(bucket)
	}
	return n
}
