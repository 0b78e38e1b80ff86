package core

// The visited set V of Figure 4 used to be a map[string]bool keyed by a
// stringified bitmask, which cost two allocations per DFS node (the byte
// buffer and the string copy) on the hottest path of the search. It is an
// open hash set over the bitmasks themselves: configurations hash by
// content and compare by word equality, so membership tests allocate
// nothing.

// hash returns a 64-bit FNV-1a hash of the bitmask words.
func (b bitset) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range b {
		h ^= w
		h *= prime64
	}
	return h
}

// equal reports word-wise equality; bitsets in one search share a length.
func (b bitset) equal(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// bitsetSet is a single-owner hash set of bitmasks (the per-DFS visited
// set). Buckets chain the rare hash collisions.
type bitsetSet struct {
	m map[uint64][]bitset
}

func newBitsetSet() *bitsetSet { return &bitsetSet{m: map[uint64][]bitset{}} }

// reset empties the set, keeping the map's buckets so a pooled set costs
// nothing to reuse across session runs.
func (s *bitsetSet) reset() { clear(s.m) }

// has reports membership.
func (s *bitsetSet) has(b bitset) bool {
	for _, e := range s.m[b.hash()] {
		if e.equal(b) {
			return true
		}
	}
	return false
}

// add inserts b, reporting whether it was newly added.
func (s *bitsetSet) add(b bitset) bool {
	h := b.hash()
	for _, e := range s.m[h] {
		if e.equal(b) {
			return false
		}
	}
	s.m[h] = append(s.m[h], b)
	return true
}

func (s *bitsetSet) len() int {
	n := 0
	for _, bucket := range s.m {
		n += len(bucket)
	}
	return n
}
