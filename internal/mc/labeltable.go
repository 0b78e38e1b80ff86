package mc

import (
	"sync"
	"sync/atomic"

	"netupdate/internal/ltl"
)

// LabelID is the dense identifier of an interned label set. Two labels are
// equal iff their IDs are equal, so the incremental checker's stopping
// condition — "did this state's label change?" — is a single integer
// compare. The zero table starts empty; -1 marks "not yet labeled".
type LabelID int32

// noLabel is the sentinel for states that have not been labeled yet.
const noLabel LabelID = -1

// LabelTable hash-conses sorted valuation sets. Every label a checker ever
// computes is interned exactly once; per-state labels become []LabelID and
// undo tokens shrink to (state, LabelID) pairs. A table is shared by
// every checker of one formula (label sets are structure-independent:
// they are sets of closure valuations, see Warmth), each of which carries
// only a slice of IDs.
//
// Concurrency: Intern takes a read-lock on the hit path and the write lock
// only when a genuinely new label appears; lookups by ID are wait-free via
// an atomically published snapshot of the ID->label slice. Interned labels
// are immutable, so a reader holding a valid ID always finds its label in
// any snapshot taken after the ID was handed out.
type LabelTable struct {
	mu     sync.RWMutex
	lookup map[uint64][]LabelID // hash -> candidate ids, guarded by mu
	byID   [][]ltl.Valuation    // id -> sorted label, guarded by mu for writes
	snap   atomic.Pointer[[][]ltl.Valuation]
}

// NewLabelTable returns an empty table.
func NewLabelTable() *LabelTable {
	t := &LabelTable{lookup: map[uint64][]LabelID{}}
	empty := [][]ltl.Valuation{}
	t.snap.Store(&empty)
	return t
}

// Len returns the number of distinct labels interned so far.
func (t *LabelTable) Len() int { return len(*t.snap.Load()) }

// Label returns the sorted valuation set of an interned label. The result
// is shared and must not be mutated.
func (t *LabelTable) Label(id LabelID) []ltl.Valuation {
	return (*t.snap.Load())[id]
}

// snapshot returns the current id->label view for repeated lookups; valid
// for every ID obtained before the call.
func (t *LabelTable) snapshot() [][]ltl.Valuation {
	return *t.snap.Load()
}

// Intern returns the ID of the sorted label vs, adding it to the table if
// it has not been seen before. fresh reports whether this call created the
// entry. vs is copied when inserted, so callers may reuse their buffer.
func (t *LabelTable) Intern(vs []ltl.Valuation) (id LabelID, fresh bool) {
	h := hashLabel(vs)
	t.mu.RLock()
	id, ok := t.find(h, vs)
	t.mu.RUnlock()
	if ok {
		return id, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.find(h, vs); ok {
		return id, false
	}
	cp := make([]ltl.Valuation, len(vs))
	copy(cp, vs)
	t.byID = append(t.byID, cp)
	// Publish the grown view. Old snapshots keep indexing the same
	// backing array (append only ever writes past their length), so
	// concurrent Label calls are race-free.
	view := t.byID
	t.snap.Store(&view)
	id = LabelID(len(t.byID) - 1)
	t.lookup[h] = append(t.lookup[h], id)
	return id, true
}

// find looks vs up under the caller's lock.
func (t *LabelTable) find(h uint64, vs []ltl.Valuation) (LabelID, bool) {
	for _, id := range t.lookup[h] {
		if valuationsEqual(t.byID[id], vs) {
			return id, true
		}
	}
	return 0, false
}

func valuationsEqual(a, b []ltl.Valuation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashLabel is FNV-1a over the valuation words.
func hashLabel(vs []ltl.Valuation) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vs {
		h = (h ^ v[0]) * prime
		h = (h ^ v[1]) * prime
	}
	return h
}
