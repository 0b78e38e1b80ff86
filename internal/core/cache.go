package core

// Verification-first plan cache (ROADMAP item 4). Production controller
// streams are highly repetitive — rolling updates revisit the same config
// diffs, failures flap A→B→A — yet the search pays a full DFS even when a
// byte-identical instance was solved moments ago. The paper's own
// asymmetry is that *verifying* an update sequence through the
// incremental checker is far cheaper than *searching* for one, so the
// cache stores, per instance, the synthesized plan (with its dependency
// DAG) and on a repeat replays it step by step through the session's warm
// checkers: every intermediate configuration is model-checked again
// before the plan is handed out, so a hit is exactly as sound as a fresh
// synthesis and a poisoned or stale entry is detected, evicted, and the
// run falls back to the ordinary DFS.
//
// An instance is keyed by a strong fingerprint of everything that
// determines the search: the context (topology, per-class LTL
// specifications, and the plan-shape options) and the base and target
// configurations (per switch, ascending, the digest of the table's
// canonical form). Key equality therefore implies
// the two runs see byte-identical unit lists — computeUnits is a
// deterministic function of the (base, target) diff — which is also what
// makes the second layer sound: the learned state of Section 4.2
// (wrong-configuration patterns, SAT early-termination constraints, the
// dead-configuration set) is unit-indexed, so it is persisted per
// instance and preloaded into a repeat search when no plan is available,
// and an instance once proven infeasible (ErrNoOrdering) is memoized and
// fails fast. Entries are LRU-evicted at a fixed bound; Snapshot/Restore
// serialize the whole cache to JSON for the -learn-file flag and the
// pool's cross-tenant persistence.
import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"container/list"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// DefaultPlanCacheEntries bounds a plan cache that was not given an
// explicit capacity: entries hold cloned plans, so the bound keeps a
// long-lived session's memory proportional to the working set of
// distinct instances, not the stream length.
const DefaultPlanCacheEntries = 4096

// Harvest caps: learned state beyond these bounds is dropped rather than
// cached, keeping entry size bounded by the useful prefix (patterns and
// constraints are most valuable early in a repeat search).
const (
	maxPatternHarvest = 1024
	maxConsHarvest    = 1024
	maxDeadHarvest    = 2048
)

// PlanCache is a bounded, LRU-evicted store of synthesis results keyed by
// instance fingerprint. It is safe for concurrent use, so one cache can
// back every tenant of a server pool that shares a learning fingerprint.
// Entries are immutable once inserted: lookups hand out pointers that
// stay valid (and correct) even if the entry is evicted concurrently.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry

	hits           atomic.Int64
	misses         atomic.Int64
	verifyFailures atomic.Int64
	evictions      atomic.Int64
}

// NewPlanCache returns a cache bounded to max entries (<=0 selects
// DefaultPlanCacheEntries).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultPlanCacheEntries
	}
	return &PlanCache{
		max:     max,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// cacheEntry is one memoized instance: either a plan (steps + DAG) to
// replay-verify, or an infeasibility memo, each with the learned state
// harvested from the run that produced it.
type cacheEntry struct {
	key        string
	infeasible bool
	steps      []Step
	dag        *PlanDAG
	components int
	learn      learnedState
}

func (e *cacheEntry) hasPlan() bool { return !e.infeasible }

// learnedState is the persistent form of the Section 4.2 pruning
// structures of one run (engine.wrong, cons and the dead configurations),
// unit-indexed and therefore only meaningful for the identical instance.
type learnedState struct {
	patterns []pattern
	cons     []cexCons
	dead     []bitset
}

func (ls *learnedState) empty() bool {
	return len(ls.patterns) == 0 && len(ls.cons) == 0 && len(ls.dead) == 0
}

// cexCons is one recorded SAT early-termination constraint: the unit ids
// applied and unapplied in the counterexample configuration (the inputs
// of earlyTerm.addCexConstraint).
type cexCons struct {
	applied   []int
	unapplied []int
}

// PlanCacheStats is a point-in-time snapshot of the cache counters.
type PlanCacheStats struct {
	Hits           int64
	Misses         int64
	VerifyFailures int64
	Evictions      int64
	Entries        int
}

// Stats returns the current counters and entry count.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		VerifyFailures: c.verifyFailures.Load(),
		Evictions:      c.evictions.Load(),
		Entries:        n,
	}
}

// Len returns the number of cached instances.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// lookup returns the entry for key (refreshing its LRU position) or nil.
func (c *PlanCache) lookup(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

func (c *PlanCache) noteHit()  { c.hits.Add(1) }
func (c *PlanCache) noteMiss() { c.misses.Add(1) }

// evictPoisoned drops an entry whose replay-verification failed. The
// failure is counted apart from capacity evictions: a nonzero counter
// means the cache saw a stale or corrupted plan and the fast path fell
// back to search.
func (c *PlanCache) evictPoisoned(key string) {
	c.verifyFailures.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// store inserts (or replaces) the entry for key and evicts from the LRU
// tail past the capacity bound.
func (c *PlanCache) store(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[ent.key]; ok {
		el.Value = ent
		c.lru.MoveToFront(el)
		return
	}
	c.entries[ent.key] = c.lru.PushFront(ent)
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// storePlan memoizes a successful run: the steps and DAG are cloned in,
// so the caller's plan stays mutable without poisoning the cache.
func (c *PlanCache) storePlan(key string, steps []Step, dag *PlanDAG, components int, ls learnedState) {
	c.store(&cacheEntry{
		key:        key,
		steps:      cloneSteps(steps),
		dag:        dag.clone(),
		components: components,
		learn:      ls,
	})
}

// storeInfeasible memoizes a proven ErrNoOrdering instance with the
// learned state that proves it, so a repeat fails fast and a repair-mode
// re-search (which must run the fallback ladder, not fail) starts primed.
func (c *PlanCache) storeInfeasible(key string, ls learnedState) {
	c.store(&cacheEntry{key: key, infeasible: true, learn: ls})
}

func cloneSteps(steps []Step) []Step {
	if steps == nil {
		return nil
	}
	out := make([]Step, len(steps))
	for i, st := range steps {
		out[i] = st
		out[i].Table = st.Table.Clone()
	}
	return out
}

// clone deep-copies a DAG so cached and handed-out plans never alias.
func (d *PlanDAG) clone() *PlanDAG {
	if d == nil {
		return nil
	}
	out := &PlanDAG{Depth: d.Depth, Width: d.Width}
	out.Preds = cloneIntLists(d.Preds)
	out.Drain = cloneIntLists(d.Drain)
	return out
}

func cloneIntLists(in [][]int) [][]int {
	if in == nil {
		return nil
	}
	out := make([][]int, len(in))
	for i, l := range in {
		if l != nil {
			out[i] = append([]int(nil), l...)
		}
	}
	return out
}

// --- instance fingerprinting ---

// hashWriter wraps a hash with alloc-free integer/string encoding.
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *hashWriter) writeInt(v int) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
	w.h.Write(w.buf[:])
}

func (w *hashWriter) writeString(s string) {
	w.writeInt(len(s))
	w.h.Write([]byte(s))
}

// ContextFingerprint digests everything fixed for a session that shapes
// which plan the search returns: the topology, the per-class
// specifications, and the options tagged plan-shaping in Options. It
// walks all three, so whoever builds many sessions over one context — a
// pool restoring an evicted tenant on every request — computes it once
// and hands it over in SessionResources.ContextFP.
func ContextFingerprint(topo *topology.Topology, specs []config.ClassSpec, opts Options) []byte {
	w := &hashWriter{h: sha256.New()}
	w.writeInt(topo.NumSwitches())
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		for _, l := range topo.Neighbors(sw) {
			if l.Peer > sw {
				w.writeInt(sw)
				w.writeInt(l.Peer)
			}
		}
	}
	hosts := topo.Hosts()
	w.writeInt(len(hosts))
	for _, h := range hosts {
		w.writeInt(h.ID)
		w.writeInt(h.Switch)
	}
	w.writeInt(len(specs))
	for _, cs := range specs {
		w.writeInt(cs.Class.SrcHost)
		w.writeInt(cs.Class.DstHost)
		w.writeString(cs.Formula.String())
	}
	opts.writeFingerprint(w)
	return w.h.Sum(nil)
}

// cfgHash is a memoized configuration digest.
type cfgHash [sha256.Size]byte

// hashConfig digests a full configuration: the (switch, table digest)
// pairs of its non-empty tables, ascending. A table's digest is of its
// canonical form (network.Table.Digest), so configurations equal under
// table equality hash identically regardless of rule insertion order, and
// it is memoized with the table (config.Config.TableDigest): hashing a
// target canonicalizes the tables its delta produced and reads the rest.
func hashConfig(cfg *config.Config) cfgHash {
	h := sha256.New()
	var pair [8 + sha256.Size]byte
	for sw := 0; sw < cfg.Span(); sw++ {
		if len(cfg.Table(sw)) == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(pair[:8], uint64(sw))
		d := cfg.TableDigest(sw)
		copy(pair[8:], d[:])
		h.Write(pair[:])
	}
	var out cfgHash
	h.Sum(out[:0])
	return out
}

// instanceKey combines the session context fingerprint with the base and
// target configuration hashes. The base hash is memoized by pointer
// identity — configurations handed to a session are immutable by
// contract, and on success the target pointer becomes the next base — so
// a steady-state stream hashes one configuration per request, and of that
// one only the tables the request's delta produced.
func (s *Session) instanceKey(final *config.Config) string {
	if s.hashedCur != s.cur {
		s.hashedCur, s.curHash = s.cur, hashConfig(s.cur)
	}
	tgtHash := hashConfig(final)
	h := sha256.New()
	h.Write(s.contextFP())
	h.Write(s.curHash[:])
	h.Write(tgtHash[:])
	key := string(h.Sum(nil))
	// Pre-memoize the target hash under its pointer: on success the
	// session advances to final and the next request reuses it.
	s.pendingCfg, s.pendingHash = final, tgtHash
	return key
}

// contextFP returns the session's context fingerprint, computing it on
// first use when SessionResources supplied none.
func (s *Session) contextFP() []byte {
	if s.ctxFP == nil {
		s.ctxFP = ContextFingerprint(s.topo, s.specs, s.opts)
	}
	return s.ctxFP
}

// noteAdvance moves the memoized base hash when the session's current
// configuration advances to the target of a successful synthesis.
func (s *Session) noteAdvance(final *config.Config) {
	if s.pendingCfg == final {
		s.hashedCur, s.curHash = final, s.pendingHash
	}
}

// --- engine harvest & preload ---

// armLearnRecording arms the engine's dead-configuration sink so the
// search records what markDead proves, in DFS order. Collect mode is the
// exception: its leaves report "not found" to keep the enumeration going,
// so what it marks dead is not a proof.
func (e *engine) armLearnRecording() {
	if !e.opts.MinimizeCompletionTime {
		e.recordDeadCap = maxDeadHarvest
	}
}

// harvestLearning snapshots the run's learned state in persistable form.
func (e *engine) harvestLearning() learnedState {
	return learnedState{
		patterns: append([]pattern(nil), e.wrong[:min(len(e.wrong), maxPatternHarvest)]...),
		cons:     append([]cexCons(nil), e.cons[:min(len(e.cons), maxConsHarvest)]...),
		dead:     append([]bitset(nil), e.recordDead...),
	}
}

// preloadLearning seeds a fresh engine with an identical instance's
// persisted learned state: patterns and dead configurations prune
// subtrees the prior run proved fruitless, and the recorded constraints
// replay through the SAT solver — if they are jointly unsatisfiable the
// search is over before it starts. Entries whose bitset width or unit
// ids do not match the engine's unit list (a corrupted snapshot) are
// skipped: pruning from mismatched state would be unsound.
func (e *engine) preloadLearning(ls *learnedState) (unsat bool) {
	words := len(newBitset(len(e.units)))
	for _, p := range ls.patterns {
		if len(p.relevant) != words || len(p.value) != words {
			continue
		}
		e.wrong = append(e.wrong, p)
	}
	for _, c := range ls.cons {
		if !unitIDsValid(c.applied, len(e.units)) || !unitIDsValid(c.unapplied, len(e.units)) {
			continue
		}
		e.cons = append(e.cons, c)
		if !e.opts.NoEarlyTermination && !unsat {
			e.stats.SATCalls++
			if !e.et.addCexConstraint(c.applied, c.unapplied) {
				unsat = true
			}
		}
	}
	for _, d := range ls.dead {
		if len(d) != words {
			continue
		}
		e.visited.add(d)
	}
	if unsat {
		e.stats.EarlyTerminate = true
	}
	return unsat
}

func unitIDsValid(ids []int, n int) bool {
	for _, id := range ids {
		if id < 0 || id >= n {
			return false
		}
	}
	return true
}

// --- replay-verify ---

// replayCached re-verifies a cached plan against the attached warm
// structures: a structural pass first confirms the steps actually
// transform the current configuration into final (every switch of diff,
// the request's config.Diff, covered; every touched switch ending at its
// final table), then every update step is applied through applyAndCheck —
// the same model-checked apply the search uses — so each intermediate
// configuration is checked against every class specification. Any
// failure reverts everything and reports false; the session falls back to
// the ordinary search. On success the warm structures are left at the
// final configuration (exactly like a search) and the frames that undo
// the replay are returned.
func (e *engine) replayCached(ent *cacheEntry, final *config.Config, diff []int) ([]frame, bool) {
	lastTbl := map[int]int{} // switch -> index of its last update step
	for i := range ent.steps {
		if !ent.steps[i].Wait {
			lastTbl[ent.steps[i].Switch] = i
		}
	}
	for _, sw := range diff {
		i, ok := lastTbl[sw]
		if !ok || !ent.steps[i].Table.Equal(final.Table(sw)) {
			return nil, false
		}
	}
	for sw, i := range lastTbl {
		if !ent.steps[i].Table.Equal(final.Table(sw)) {
			return nil, false
		}
	}
	var frames []frame
	for i := range ent.steps {
		st := &ent.steps[i]
		if st.Wait {
			continue
		}
		fs, failed, _, err := e.applyAndCheck(st.Switch, st.Table)
		frames = append(frames, fs...)
		if err != nil || failed {
			e.revert(frames)
			return nil, false
		}
	}
	return frames, true
}

// --- snapshot (persistence) ---

// PlanCacheSnapshot is the JSON-serializable image of a plan cache, in
// LRU order (most recent first). It backs the -learn-file flag and the
// pool's SaveLearning/LoadLearning.
type PlanCacheSnapshot struct {
	Entries []PlanCacheEntrySnapshot `json:"entries"`
}

// PlanCacheEntrySnapshot is one persisted instance.
type PlanCacheEntrySnapshot struct {
	Key        string            `json:"key"` // hex sha256 instance fingerprint
	Infeasible bool              `json:"infeasible,omitempty"`
	Steps      []Step            `json:"steps,omitempty"`
	DAG        *PlanDAG          `json:"dag,omitempty"`
	Components int               `json:"components,omitempty"`
	Patterns   []PatternSnapshot `json:"patterns,omitempty"`
	Cons       []ConsSnapshot    `json:"cons,omitempty"`
	Dead       [][]uint64        `json:"dead,omitempty"`
}

// PatternSnapshot is a persisted wrong-configuration pattern (bitset
// words, little-endian unit order).
type PatternSnapshot struct {
	Relevant []uint64 `json:"relevant"`
	Value    []uint64 `json:"value"`
}

// ConsSnapshot is a persisted SAT early-termination constraint.
type ConsSnapshot struct {
	Applied   []int `json:"applied,omitempty"`
	Unapplied []int `json:"unapplied,omitempty"`
}

// Snapshot captures the cache contents for persistence. Counters are not
// part of the snapshot: a restored cache starts cold on stats.
func (c *PlanCache) Snapshot() *PlanCacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &PlanCacheSnapshot{}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		es := PlanCacheEntrySnapshot{
			Key:        hex.EncodeToString([]byte(ent.key)),
			Infeasible: ent.infeasible,
			Steps:      ent.steps,
			DAG:        ent.dag,
			Components: ent.components,
		}
		for _, p := range ent.learn.patterns {
			es.Patterns = append(es.Patterns, PatternSnapshot{
				Relevant: p.relevant, Value: p.value,
			})
		}
		for _, cc := range ent.learn.cons {
			es.Cons = append(es.Cons, ConsSnapshot{Applied: cc.applied, Unapplied: cc.unapplied})
		}
		for _, d := range ent.learn.dead {
			es.Dead = append(es.Dead, d)
		}
		snap.Entries = append(snap.Entries, es)
	}
	return snap
}

// Restore loads a snapshot into the cache, replacing nothing that is
// already present (existing entries win — they are fresher). Entries are
// inserted oldest-first so the snapshot's LRU order is preserved.
func (c *PlanCache) Restore(snap *PlanCacheSnapshot) error {
	if snap == nil {
		return nil
	}
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		es := &snap.Entries[i]
		key, err := hex.DecodeString(es.Key)
		if err != nil {
			return fmt.Errorf("core: plan cache snapshot entry %d: bad key: %v", i, err)
		}
		if len(key) != sha256.Size {
			return fmt.Errorf("core: plan cache snapshot entry %d: key is %d bytes, want %d", i, len(key), sha256.Size)
		}
		if !es.Infeasible && len(es.Steps) == 0 && len(es.Patterns) == 0 &&
			len(es.Cons) == 0 && len(es.Dead) == 0 {
			continue // nothing usable
		}
		ent := &cacheEntry{
			key:        string(key),
			infeasible: es.Infeasible,
			steps:      es.Steps,
			dag:        es.DAG,
			components: es.Components,
		}
		if !ent.infeasible && ent.dag == nil {
			// A snapshot missing its DAG still replays; executing the
			// steps in sequence is always a valid (if conservative) order.
			ent.dag = chainDAG(ent.steps)
		}
		for _, p := range es.Patterns {
			ent.learn.patterns = append(ent.learn.patterns, pattern{
				relevant: p.Relevant, value: p.Value,
			})
		}
		for _, cc := range es.Cons {
			ent.learn.cons = append(ent.learn.cons, cexCons{applied: cc.Applied, unapplied: cc.Unapplied})
		}
		for _, d := range es.Dead {
			ent.learn.dead = append(ent.learn.dead, d)
		}
		c.mu.Lock()
		if _, exists := c.entries[ent.key]; !exists {
			c.entries[ent.key] = c.lru.PushFront(ent)
			for c.lru.Len() > c.max {
				tail := c.lru.Back()
				c.lru.Remove(tail)
				delete(c.entries, tail.Value.(*cacheEntry).key)
			}
		}
		c.mu.Unlock()
	}
	return nil
}
