package core

// Verification-first plan cache. Production controller
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
// the two runs see byte-identical unit lists — the engine derives them
// deterministically from the (base, target) diff — so an instance once
// proven infeasible (ErrNoOrdering) is memoized and fails fast. The
// Section 4.2 pruning state (wrong-configuration patterns, SAT
// early-termination constraints, the visited set) lives and dies with one
// search; the cache holds plans and verdicts, nothing else. A cached plan
// is an order, not a copy of the network: a hit is asked for by the
// request's own target, whose digest is in the key, so a step that
// installs the target's table keeps a mark and takes the table from the
// request (cacheEntry). Entries are LRU-evicted at a fixed bound; a
// session image's cache section carries the whole cache (EmbedCache,
// decodeCache).
import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
	"sync/atomic"

	"container/list"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// DefaultPlanCacheEntries bounds a plan cache that was not given an
// explicit capacity, which keeps a long-lived session's memory
// proportional to the working set of distinct instances, not the stream
// length. It is set from how far back hits reach (the hit distance,
// Stats.CacheHitDistance): where tenants flap, 99.9 % of hits are at
// distance 0 or 1; where evictions churn, repeats scatter, 94 % within
// 512 entries and all within 1 024. An entry is about 700 B, so a full
// store is about 360 KB.
const DefaultPlanCacheEntries = 512

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

	// stored counts the entries inserted so far, restored ones included;
	// each entry keeps its ordinal (cacheEntry.seq), so a hit knows how
	// many entries were stored after its own (PlanCache.noteHit).
	stored atomic.Int64

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
// replay-verify, or an infeasibility memo. A pool's stores hold thousands
// of them for as long as the process lives, so an entry keeps the order the
// plan gives and none of the network it orders: a step is a switch, a
// wait bit and a target mark. A hit is asked for by the request whose
// target's digest is in the key, so a marked step installs that request's
// own table (final.Table(sw)) and the entry pins no configuration's
// tables. Only a step whose table the target does not hold — a 2-simple
// intermediate, a rule-granularity step's partial table — keeps one,
// shared with the plan it came from (Step.Table is read-only). An entry
// that does not fit the request that looks it up fails replay whatever it
// holds. The rule a rule-granularity step adds or removes sits in a side
// list, and the DAG's edge lists are one flat array; plan expands it.
type cacheEntry struct {
	key        string
	infeasible bool
	components int32
	// depth and width are the DAG's.
	depth, width int32
	// seq is the entry's ordinal among the cache's stores (PlanCache.stored).
	seq   int64
	steps []cachedStep
	// rules holds the rule-granularity detail of the steps that carry one,
	// ascending by step.
	rules []cachedRule
	// dag lists, per update step in order: the number of its predecessors,
	// the predecessors, the number of its drain edges, the drain edges.
	dag []int32
}

// cachedStep is a wait barrier, or the installation of a table on sw: the
// request target's own where target is set, table otherwise.
type cachedStep struct {
	table  network.Table
	sw     int32
	wait   bool
	target bool
}

// tableFor is the table the step installs on a request to final.
func (st *cachedStep) tableFor(final *config.Config) network.Table {
	if st.target {
		return final.Table(int(st.sw))
	}
	return st.table
}

// cachedRule is Step's IsRule/RuleAdd/Rule for step number step.
type cachedRule struct {
	step int32
	add  bool
	rule network.Rule
}

// newPlanEntry packs a plan to the target final. A step that installs
// final's table on its switch, rule for rule, is marked and keeps no
// table; any other step shares its table with the plan.
func newPlanEntry(key string, steps []Step, dag *PlanDAG, final *config.Config, components int) *cacheEntry {
	ent := &cacheEntry{
		key:        key,
		components: int32(components),
		steps:      make([]cachedStep, len(steps)),
	}
	nRules := 0
	for i := range steps {
		if steps[i].IsRule {
			nRules++
		}
	}
	if nRules > 0 {
		ent.rules = make([]cachedRule, 0, nRules)
	}
	for i := range steps {
		st := &steps[i]
		if st.Wait {
			ent.steps[i].wait = true
			continue
		}
		if slices.EqualFunc(st.Table, final.Table(st.Switch), network.Rule.Equal) {
			ent.steps[i] = cachedStep{sw: int32(st.Switch), target: true}
		} else {
			ent.steps[i] = cachedStep{table: st.Table, sw: int32(st.Switch)}
		}
		if st.IsRule {
			ent.rules = append(ent.rules, cachedRule{step: int32(i), add: st.RuleAdd, rule: st.Rule})
		}
	}
	if dag != nil {
		ent.depth, ent.width = int32(dag.Depth), int32(dag.Width)
		n := 2 * len(dag.Preds)
		for j := range dag.Preds {
			n += len(dag.Preds[j])
			if j < len(dag.Drain) {
				n += len(dag.Drain[j])
			}
		}
		ent.dag = make([]int32, 0, n)
		for j, preds := range dag.Preds {
			var drain []int
			if j < len(dag.Drain) {
				drain = dag.Drain[j]
			}
			for _, list := range [2][]int{preds, drain} {
				ent.dag = append(ent.dag, int32(len(list)))
				for _, p := range list {
					ent.dag = append(ent.dag, int32(p))
				}
			}
		}
	}
	return ent
}

// plan expands the entry into the plan it answers a request to final
// with: a marked step installs final's table, and any other the entry's,
// both read-only (Step.Table); the steps and the DAG's edge lists are the
// caller's own.
func (e *cacheEntry) plan(final *config.Config) ([]Step, *PlanDAG) {
	steps := make([]Step, len(e.steps))
	ri := 0
	for i := range e.steps {
		cs := &e.steps[i]
		if cs.wait {
			steps[i].Wait = true
			continue
		}
		steps[i] = Step{Switch: int(cs.sw), Table: cs.tableFor(final)}
		if ri < len(e.rules) && int(e.rules[ri].step) == i {
			steps[i].IsRule, steps[i].RuleAdd, steps[i].Rule = true, e.rules[ri].add, e.rules[ri].rule
			ri++
		}
	}
	nodes, edges := 0, 0
	for at := 0; at < len(e.dag); at += 1 + int(e.dag[at]) {
		nodes++
		edges += int(e.dag[at])
	}
	nodes /= 2
	dag := &PlanDAG{
		Preds: make([][]int, nodes), Drain: make([][]int, nodes),
		Depth: int(e.depth), Width: int(e.width),
	}
	flat, at := make([]int, 0, edges), 0
	for j := 0; j < nodes; j++ {
		for _, lists := range [2][][]int{dag.Preds, dag.Drain} {
			n := int(e.dag[at])
			if n > 0 {
				from := len(flat)
				for _, p := range e.dag[at+1 : at+1+n] {
					flat = append(flat, int(p))
				}
				lists[j] = flat[from:len(flat):len(flat)]
			}
			at += 1 + n
		}
	}
	return steps, dag
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

// noteHit counts a hit on ent and returns its distance: the entries
// stored after ent and before the hit.
func (c *PlanCache) noteHit(ent *cacheEntry) int {
	c.hits.Add(1)
	return int(c.stored.Load() - ent.seq)
}

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

// store inserts (or replaces) the entry for key.
func (c *PlanCache) store(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[ent.key]; ok {
		ent.seq = c.stored.Add(1)
		el.Value = ent
		c.lru.MoveToFront(el)
		return
	}
	c.insertLocked(ent)
}

// Merge inserts the entries of other that c lacks, least recently used
// first, so they keep other's order ahead of c's own; an entry c holds
// already wins (it is at least as fresh). Every plan is verified by replay
// before it is served, whichever cache it came from.
func (c *PlanCache) Merge(other *PlanCache) {
	if other == nil || other == c {
		return
	}
	other.mu.Lock()
	ents := make([]*cacheEntry, 0, other.lru.Len())
	for el := other.lru.Back(); el != nil; el = el.Prev() {
		ents = append(ents, el.Value.(*cacheEntry))
	}
	other.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ent := range ents {
		if _, ok := c.entries[ent.key]; !ok {
			own := *ent // seq is the holding cache's
			c.insertLocked(&own)
		}
	}
}

// insertLocked puts ent, whose key c does not hold, at the front and evicts
// from the LRU tail past the capacity bound, counting each eviction.
func (c *PlanCache) insertLocked(ent *cacheEntry) {
	ent.seq = c.stored.Add(1)
	c.entries[ent.key] = c.lru.PushFront(ent)
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// storeInfeasible memoizes a proven ErrNoOrdering instance, so a repeat
// fails fast. A search proves infeasibility only by failing checks, the
// first of which checked the target, so a hit needs no target check.
func (c *PlanCache) storeInfeasible(key string) {
	c.store(&cacheEntry{key: key, infeasible: true})
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
// specifications, and the options (each a bit, writeFingerprint). It
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
	writeFingerprint(w, opts)
	return w.h.Sum(nil)
}

// instanceKey combines the session context fingerprint with the base and
// target configuration digests. Each is memoized on its configuration
// (config.Config.Digest), and a target carries the digest of the
// configuration it was cloned from, so a steady-state stream rehashes per
// request only the chunks and tables its delta wrote.
func (s *Session) instanceKey(final *config.Config) string {
	cur, tgt := s.cur.Digest(), final.Digest()
	var stack [128]byte
	buf := append(append(append(stack[:0], s.contextFP()...), cur[:]...), tgt[:]...)
	key := sha256.Sum256(buf)
	return string(key[:])
}

// contextFP returns the session's context fingerprint, computing it on
// first use when SessionResources supplied none.
func (s *Session) contextFP() []byte {
	if s.ctxFP == nil {
		s.ctxFP = ContextFingerprint(s.topo, s.specs, s.opts)
	}
	return s.ctxFP
}

// --- replay-verify ---

// fits reports whether the entry's steps transform the request's current
// configuration into final: every switch of diff, the request's
// config.Diff, touched and ending at its final table, and no other switch
// touched (a marked step installs final's table, and so ends there by
// construction). A plan that fits is then replayed through the warm
// checkers (engine.Replay) — the model-checked apply the search uses — so
// each intermediate configuration is checked against every class
// specification before the plan is served.
func (e *cacheEntry) fits(final *config.Config, diff []int) bool {
	for _, sw := range diff {
		last := -1 // the switch's last update step
		for i := range e.steps {
			if st := &e.steps[i]; !st.wait && int(st.sw) == sw {
				last = i
			}
		}
		if last < 0 {
			return false
		}
		if st := &e.steps[last]; !st.target && !st.table.Equal(final.Table(sw)) {
			return false
		}
	}
	for i := range e.steps {
		if st := &e.steps[i]; !st.wait {
			if _, ok := slices.BinarySearch(diff, int(st.sw)); !ok {
				return false
			}
		}
	}
	return true
}
