package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// flapWalk materializes the flapping stream the cache is built for: the
// session bounces between the initial configuration and a handful of
// targets, so every instance after the first cycle is a byte-identical
// repeat.
func flapWalk(t *testing.T, seed int64, cycles int) (*config.RollingStream, []*config.Config) {
	t.Helper()
	stream, targets := rollingTargets(t, seed, 2, 2, 1)
	walk := []*config.Config{}
	for c := 0; c < cycles; c++ {
		walk = append(walk, targets[0], stream.Init())
	}
	return stream, walk
}

// TestCacheHitByteIdentical: a session with the plan cache attached must return plans byte-identical to an
// uncached session on every step of a flapping walk, serve every repeat
// instance from the fast path (CacheHit), and keep honest counters.
func TestCacheHitByteIdentical(t *testing.T) {
	stream, walk := flapWalk(t, 23, 3)
	opts := Options{}
	cached, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := cached.EnableCache()
	if cache == nil {
		t.Fatal("EnableCache returned nil")
	}
	plain, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for n, tgt := range walk {
		got, err := cached.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: cached: %v", n, err)
		}
		want, err := plain.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: plain: %v", n, err)
		}
		if got.String() != want.String() {
			t.Fatalf("step %d: cached plan diverged:\ncached %s\nfresh  %s",
				n, got.String(), want.String())
		}
		if n >= 2 && !got.Stats.CacheHit {
			t.Fatalf("step %d: repeat instance missed the cache", n)
		}
		if got.Stats.CacheHit {
			hits++
			if got.Stats.CacheVerifyFailed {
				t.Fatalf("step %d: clean hit marked verify-failed", n)
			}
		}
	}
	st := cache.Stats()
	if int(st.Hits) != hits {
		t.Fatalf("cache hits = %d, session saw %d", st.Hits, hits)
	}
	if st.Hits < int64(len(walk)-2) {
		t.Fatalf("hits = %d on a %d-step flap; fast path dead", st.Hits, len(walk))
	}
	if st.Misses != int64(len(walk))-st.Hits {
		t.Fatalf("misses = %d, want %d", st.Misses, int64(len(walk))-st.Hits)
	}
	if st.VerifyFailures != 0 || st.Evictions != 0 {
		t.Fatalf("unexpected failures/evictions: %+v", st)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per flap direction)", st.Entries)
	}
}

// corruptEntries mutates every cached plan entry through fn. Test-only:
// entries are immutable by contract, which is exactly what a poisoning
// test has to violate.
func corruptEntries(c *PlanCache, fn func(*cacheEntry)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if !ent.infeasible {
			fn(ent)
			n++
		}
	}
	return n
}

// TestCachePoisonedReplayFallsBack: Fig. 1 red→green has exactly one
// valid update order (C2 before A1, TestFig1RedGreenOrder), so reversing
// the cached steps yields an entry that still reaches the final
// configuration but violates the spec mid-replay. The replay must catch
// it, evict the entry, fall back to the full DFS, and return the correct
// plan.
func TestCachePoisonedReplayFallsBack(t *testing.T) {
	sc := config.Fig1RedGreen()
	cache := NewPlanCache(0)
	synth := func() *Plan {
		t.Helper()
		sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetCache(cache)
		plan, err := sess.Synthesize(sc.Final)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	want := synth() // miss: stored
	if want.Stats.CacheHit {
		t.Fatal("first synthesis cannot be a hit")
	}
	// Reverse the update steps in place: same switches, same final
	// tables, wrong order.
	n := corruptEntries(cache, func(ent *cacheEntry) {
		var ups []int
		for i := range ent.steps {
			if !ent.steps[i].wait {
				ups = append(ups, i)
			}
		}
		for i, j := 0, len(ups)-1; i < j; i, j = i+1, j-1 {
			ent.steps[ups[i]], ent.steps[ups[j]] = ent.steps[ups[j]], ent.steps[ups[i]]
		}
	})
	if n != 1 {
		t.Fatalf("corrupted %d entries, want 1", n)
	}
	got := synth() // poisoned: replay fails, DFS fallback, re-stored
	if !got.Stats.CacheVerifyFailed {
		t.Fatal("poisoned replay not flagged")
	}
	if got.Stats.CacheHit {
		t.Fatal("poisoned replay counted as a hit")
	}
	if got.String() != want.String() {
		t.Fatalf("fallback plan diverged:\ngot  %s\nwant %s", got.String(), want.String())
	}
	st := cache.Stats()
	if st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", st.VerifyFailures)
	}
	// The fallback re-stored a clean entry: the next run is a clean hit.
	clean := synth()
	if !clean.Stats.CacheHit || clean.Stats.CacheVerifyFailed {
		t.Fatalf("post-fallback run not a clean hit: %+v", clean.Stats)
	}
	if clean.String() != want.String() {
		t.Fatalf("post-fallback hit diverged:\ngot  %s\nwant %s", clean.String(), want.String())
	}
}

// TestCacheTruncatedEntryFallsBack: an entry whose steps no longer cover
// the diff (truncated snapshot, wrong plan for the key) must fail the
// structural pre-pass — before any checker work — and fall back.
func TestCacheTruncatedEntryFallsBack(t *testing.T) {
	sc := config.Fig1RedGreen()
	cache := NewPlanCache(0)
	sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetCache(cache)
	want, err := sess.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	corruptEntries(cache, func(ent *cacheEntry) { ent.steps = ent.steps[:1] })
	sess2, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess2.SetCache(cache)
	got, err := sess2.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.CacheVerifyFailed || got.Stats.CacheHit {
		t.Fatalf("truncated entry not rejected: %+v", got.Stats)
	}
	if got.String() != want.String() {
		t.Fatalf("fallback plan diverged:\ngot  %s\nwant %s", got.String(), want.String())
	}
	if cache.Stats().VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", cache.Stats().VerifyFailures)
	}
}

// hexStream is the three-class fuzz context as a stream base, with its
// reroute of class a and a second reroute of it that touches fewer
// switches.
func hexStream(t *testing.T) (base *config.StreamBase, forth, other *config.StreamDelta) {
	t.Helper()
	ctx := fuzzContexts[1]
	var h config.StreamHeader
	forth, other = &config.StreamDelta{}, &config.StreamDelta{}
	for _, v := range []struct {
		doc string
		to  any
	}{{ctx.header, &h}, {ctx.reroute, forth}, {`{"reroute":[{"class":"a","path":[0,1,4,5]}]}`, other}} {
		if err := json.Unmarshal([]byte(v.doc), v.to); err != nil {
			t.Fatal(err)
		}
	}
	base, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	return base, forth, other
}

// TestCacheEntryHoldsTheOrder: an entry keeps the order a plan gives, not
// the network it orders. A whole-table step is a target mark with no
// table, and a hit installs the table of the request's own target — each
// target is built by StreamBase.Apply, as the daemon builds them, so two
// equal targets hold different slices. An entry stored under the key of
// a request it does not fit fails replay and is searched afresh; and the
// tables a target does not hold (2-simple merges, rule-granularity
// partial tables) stay in the entry, shared with the plan, and still hit.
func TestCacheEntryHoldsTheOrder(t *testing.T) {
	base, forth, other := hexStream(t)
	apply := func(d *config.StreamDelta) *config.Config {
		t.Helper()
		cfg, err := base.Apply(base.Init, d)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	synth := func(s *Session, to *config.Config) *Plan {
		t.Helper()
		plan, err := s.Synthesize(to)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	s, err := NewSession(base.Topo, base.Init, base.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := s.EnableCache()
	there := apply(forth)
	key := s.instanceKey(there)
	first := synth(s, there)
	for i, st := range cache.lookup(key).steps {
		if !st.wait && (!st.target || st.table != nil) {
			t.Fatalf("step %d of a whole-table plan: target %v, %d rules held", i, st.target, len(st.table))
		}
	}
	synth(s, base.Init)

	again := apply(forth)
	hit := synth(s, again)
	if !hit.Stats.CacheHit || hit.String() != first.String() {
		t.Fatalf("repeat: hit %v, plan %s, want %s", hit.Stats.CacheHit, hit, first)
	}
	fresh := 0
	for i, st := range hit.Steps {
		if st.Wait {
			continue
		}
		if !st.Table.Same(again.Table(st.Switch)) {
			t.Fatalf("step %d: the hit's table on sw%d is not the request target's", i, st.Switch)
		}
		if len(st.Table) > 0 && !st.Table.Same(there.Table(st.Switch)) {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("the two targets share every table: the identity check shows nothing")
	}
	synth(s, base.Init)

	// A collision: the entry of another request, stored under this key.
	elsewhere := apply(other)
	otherKey := s.instanceKey(elsewhere)
	synth(s, elsewhere)
	synth(s, base.Init)
	wrong := *cache.lookup(otherKey)
	wrong.key = key
	cache.store(&wrong)
	got := synth(s, apply(forth))
	if !got.Stats.CacheVerifyFailed || got.Stats.CacheHit || cache.Stats().VerifyFailures != 1 {
		t.Fatalf("collision: verify failed %v, hit %v, %d verify failures",
			got.Stats.CacheVerifyFailed, got.Stats.CacheHit, cache.Stats().VerifyFailures)
	}
	plain, err := NewSession(base.Topo, base.Init, base.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := synth(plain, apply(forth)); got.String() != want.String() {
		t.Fatalf("collision fallback:\ngot  %s\nwant %s", got, want)
	}

	for _, opts := range []Options{{TwoSimple: true}, {RuleGranularity: true}} {
		s, err := NewSession(base.Topo, base.Init, base.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		cache := s.EnableCache()
		there := apply(forth)
		key := s.instanceKey(there)
		first := synth(s, there)
		held, marked := 0, 0
		for i, st := range cache.lookup(key).steps {
			switch {
			case st.wait:
			case st.target:
				marked++
			case !st.table.Same(first.Steps[i].Table):
				t.Fatalf("%+v: step %d holds a copy of the plan's table", opts, i)
			default:
				held++
			}
		}
		if held == 0 || marked == 0 {
			t.Fatalf("%+v: %d steps hold a table, %d are marked", opts, held, marked)
		}
		synth(s, base.Init)
		hit := synth(s, apply(forth))
		if !hit.Stats.CacheHit || hit.String() != first.String() {
			t.Fatalf("%+v: repeat: hit %v, plan %s, want %s", opts, hit.Stats.CacheHit, hit, first)
		}
		for i, st := range hit.Steps {
			if !slices.EqualFunc(st.Table, first.Steps[i].Table, network.Rule.Equal) {
				t.Fatalf("%+v: step %d: the hit installs another table", opts, i)
			}
		}
	}
}

// TestCacheInfeasibleMemo: an instance proven ErrNoOrdering is memoized —
// the repeat fails fast, reports CacheHit, and runs no search. The memo
// is keyed by granularity: sessions of the same scenario at 2-simple and
// rule granularity attached to the same store search instead of answering
// "impossible" from it.
func TestCacheInfeasibleMemo(t *testing.T) {
	topo := topology.SmallWorld(30, 4, 0.3, 7)
	sc, err := config.Infeasible(topo, config.InfeasibleOptions{Gadgets: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := sess.EnableCache()
	if _, err := sess.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}
	first := sess.LastStats()
	if first.CacheHit {
		t.Fatal("first failure cannot be a hit")
	}
	if _, err := sess.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("repeat err = %v, want ErrNoOrdering", err)
	}
	repeat := sess.LastStats()
	if !repeat.CacheHit {
		t.Fatal("repeat infeasibility missed the memo")
	}
	// A memo hit runs no search, and so no target check either.
	if repeat.Backtracks != 0 || repeat.CexLearned != 0 || repeat.SATCalls != 0 {
		t.Fatalf("memoized failure still searched: %+v", repeat)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 entry", st)
	}
	for _, c := range []struct {
		name     string
		opts     Options
		wantPlan bool
	}{
		{"2-simple", Options{TwoSimple: true}, true},
		// Whether rule granularity solves this instance is the search's
		// business; answering from the switch-granularity memo is not.
		{"rules", Options{RuleGranularity: true}, false},
	} {
		other, err := NewSession(sc.Topo, sc.Init, sc.Specs, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		other.SetCache(cache)
		plan, err := other.Synthesize(sc.Final)
		if st := other.LastStats(); st.CacheHit {
			t.Fatalf("%s: answered from the switch-granularity memo (err %v)", c.name, err)
		}
		if err != nil && (c.wantPlan || !errors.Is(err, ErrNoOrdering)) {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err == nil {
			verifyPlan(t, sc, plan)
		}
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v: another granularity hit the memo", st)
	}
}

// TestCacheSnapshotRoundTrip: a cache embedded in an image (EmbedCache)
// and restored with it hands a cold process the warm process's fast path.
// The section decodes to the entries it was written from: written again it
// is the same bytes, and each entry's DAG has the depth and width it had.
// The first request of each granularity against the restored cache is a
// verified hit with the plan a search gives, tables, rule details and DAG
// included, and the infeasibility memo still fails fast.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	seeds := loadFuzzSeeds(t)
	seed := seeds[len(seeds)-1]
	cache := warmCache(t, seed)
	addOwnTables(t, seed, cache)
	img, err := EmbedCache(seed.img, cache)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, img)
	if err != nil {
		t.Fatal(err)
	}
	restored := s.Cache()
	if restored == nil || restored.Stats().Entries != cache.Stats().Entries {
		t.Fatalf("restored %v, want %d entries", restored, cache.Stats().Entries)
	}
	if !bytes.Equal(restored.encode(), cache.encode()) {
		t.Fatal("the restored cache writes another section")
	}
	for a, b := cache.lru.Front(), restored.lru.Front(); a != nil; a, b = a.Next(), b.Next() {
		x, y := a.Value.(*cacheEntry), b.Value.(*cacheEntry)
		if x.key != y.key || x.depth != y.depth || x.width != y.width {
			t.Fatalf("entry %x restored as %x, depth %d width %d, want depth %d width %d", x.key, y.key, y.depth, y.width, x.depth, x.width)
		}
	}

	for _, opts := range []Options{{}, {TwoSimple: true}, {RuleGranularity: true}} {
		fresh, err := NewSession(seed.base.Topo, seed.base.Init, seed.base.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Synthesize(seed.target)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewSession(seed.base.Topo, seed.base.Init, seed.base.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold.SetCache(restored)
		got, err := cold.Synthesize(seed.target)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Stats.CacheHit || got.String() != want.String() || !reflect.DeepEqual(got.DAG, want.DAG) {
			t.Fatalf("%+v: hit %v, plan\n%s\nwant\n%s", opts, got.Stats.CacheHit, got, want)
		}
		for i, st := range got.Steps {
			w := want.Steps[i]
			if !slices.EqualFunc(st.Table, w.Table, network.Rule.Equal) || st.IsRule != w.IsRule || st.RuleAdd != w.RuleAdd || !st.Rule.Equal(w.Rule) {
				t.Fatalf("%+v: step %d restored as %+v, want %+v", opts, i, st, w)
			}
		}
	}

	sc, err := config.Infeasible(topology.SmallWorld(30, 4, 0.3, 7), config.InfeasibleOptions{Gadgets: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	icold, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	icold.SetCache(restored)
	if _, err := icold.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) || !icold.LastStats().CacheHit {
		t.Fatalf("restored memo: err = %v, hit %v; want ErrNoOrdering from the cache", err, icold.LastStats().CacheHit)
	}
}

// TestCacheSectionRefusesAnUnappliableRule: a cache section whose plan for
// the flap-back first installs, on a switch of the request's diff, a table
// whose rules set header field 9 — a field no packet has, whose replay
// would panic — is dropped whole, as the configuration's decoder refuses
// such a rule: the session restores with no cache and both requests are
// searched. The same section setting field 0 is kept, so the field is
// what is refused.
func TestCacheSectionRefusesAnUnappliableRule(t *testing.T) {
	seeds := loadFuzzSeeds(t)
	seed := seeds[len(seeds)-1]
	for _, field := range []network.FieldID{9, 0} {
		img, err := embedCacheSection(seed.img, poisonedSection(t, seed, field))
		if err != nil {
			t.Fatal(err)
		}
		s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, img)
		if err != nil {
			t.Fatal(err)
		}
		if kept := s.Cache() != nil; kept != (field < network.NumFields) {
			t.Fatalf("field %d: section kept %v", field, kept)
		}
		for _, to := range []*config.Config{seed.base.Init, seed.target} {
			if _, err := s.Synthesize(to); err != nil {
				t.Fatalf("field %d: %v", field, err)
			}
			if s.LastStats().CacheHit {
				t.Fatalf("field %d: answered from the cache", field)
			}
		}
	}
}

// TestCacheSectionIsTakenWhole: a cache section that fails any check of
// the decoder is dropped whole and the image restores with no cache; the
// section it was damaged from restores every entry. The damage is done to
// a copy of one entry, a rule-granularity plan, with the cache's other
// entries beside it, or to the section's bytes.
func TestCacheSectionIsTakenWhole(t *testing.T) {
	seeds := loadFuzzSeeds(t)
	seed := seeds[len(seeds)-1]
	cache := warmCache(t, seed)
	addOwnTables(t, seed, cache)
	var ruled *cacheEntry
	for el := cache.lru.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); len(ent.rules) > 1 {
			ruled = ent
		}
	}
	if ruled == nil {
		t.Fatal("no rule-granularity entry")
	}
	damaged := func(damage func(*cacheEntry)) []byte {
		c := NewPlanCache(0)
		for el := cache.lru.Back(); el != nil; el = el.Prev() {
			ent := *el.Value.(*cacheEntry)
			if el.Value == ruled {
				ent.steps, ent.rules, ent.dag = slices.Clone(ent.steps), slices.Clone(ent.rules), slices.Clone(ent.dag)
				damage(&ent)
			}
			c.store(&ent)
		}
		return c.encode()
	}
	memo := NewPlanCache(0)
	memo.storeInfeasible(ruled.key)
	one := memo.encode()[1:]
	intact := damaged(func(*cacheEntry) {})
	for name, sec := range map[string][]byte{
		"switch-out-of-range": damaged(func(e *cacheEntry) { e.steps[0].sw = int32(seed.base.Topo.NumSwitches()) }),
		"edge-to-itself":      damaged(func(e *cacheEntry) { e.dag = append([]int32{1, 0}, e.dag[1:]...) }),
		"edge-forward":        damaged(func(e *cacheEntry) { e.dag = append([]int32{1, 1}, e.dag[1:]...) }),
		"rule-detail-on-a-wait": damaged(func(e *cacheEntry) {
			e.steps = append(e.steps, cachedStep{wait: true})
			e.rules = append(e.rules, cachedRule{step: int32(len(e.steps) - 1), rule: e.rules[0].rule})
		}),
		"rule-details-out-of-order": damaged(func(e *cacheEntry) { e.rules[0], e.rules[1] = e.rules[1], e.rules[0] }),
		"rule-detail-twice":         damaged(func(e *cacheEntry) { e.rules[1].step = e.rules[0].step }),
		"trailing-byte":             append(slices.Clone(intact), 0),
		"truncated":                 intact[:len(intact)-1],
		"entry-twice":               append(append([]byte{2}, one...), one...),
		"unknown-kind":              append(append([]byte{1}, one[:len(one)-1]...), 2),
	} {
		for _, sec := range [][]byte{sec, intact} {
			img, err := embedCacheSection(seed.img, sec)
			if err != nil {
				t.Fatal(err)
			}
			s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, img)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := s.Cache(); (got != nil) != bytes.Equal(sec, intact) || (got != nil && got.Stats().Entries != cache.Stats().Entries) {
				t.Fatalf("%s: restored cache %v", name, got)
			}
		}
	}
}

// TestPlanCacheMerge: a cache merged into a full one goes through the
// same insertion as a store. An entry both hold keeps the receiver's, the
// merged ones enter ahead of the receiver's in their own LRU order, and
// every entry pushed out past the bound is counted in Stats().Evictions.
func TestPlanCacheMerge(t *testing.T) {
	key := func(b byte) string {
		k := make([]byte, 32)
		k[0] = b
		return string(k)
	}
	store, other := NewPlanCache(4), NewPlanCache(0)
	for b := byte(0); b < 4; b++ {
		store.storeInfeasible(key(b))
	}
	for b := byte(2); b < 6; b++ {
		other.storeInfeasible(key(b))
	}
	held := store.entries[key(2)].Value
	store.Merge(other)
	if st := store.Stats(); st.Entries != 4 || st.Evictions != 2 {
		t.Fatalf("after the merge: %+v, want 4 entries and 2 evictions", st)
	}
	var order []byte
	for el := store.lru.Front(); el != nil; el = el.Next() {
		order = append(order, el.Value.(*cacheEntry).key[0])
	}
	if !slices.Equal(order, []byte{5, 4, 3, 2}) {
		t.Fatalf("LRU order %v, want [5 4 3 2]", order)
	}
	if store.entries[key(2)].Value != held {
		t.Fatal("the merged cache's entry replaced the receiver's")
	}
}

// TestCacheEvictionBound: the cache never exceeds its capacity and counts
// capacity evictions apart from poisonings.
func TestCacheEvictionBound(t *testing.T) {
	c := NewPlanCache(2)
	key := func(b byte) string {
		k := make([]byte, 32)
		k[0] = b
		return string(k)
	}
	for b := byte(0); b < 5; b++ {
		c.storeInfeasible(key(b))
	}
	if c.Stats().Entries != 2 {
		t.Fatalf("len = %d, want 2", c.Stats().Entries)
	}
	if ev := c.Stats().Evictions; ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	// LRU: the two newest keys survive.
	if c.lookup(key(4)) == nil || c.lookup(key(3)) == nil {
		t.Fatal("newest entries evicted")
	}
	if c.lookup(key(0)) != nil {
		t.Fatal("oldest entry survived")
	}
}
