package core

import (
	"encoding/json"
	"errors"
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
		t.Fatal("EnableCache returned nil without NoPlanCache")
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
		if ent.hasPlan() {
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
	plain, err := NewSession(base.Topo, base.Init, base.Specs, Options{NoPlanCache: true})
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

// TestCacheSnapshotRoundTrip: Snapshot → JSON → Restore must hand a cold
// process the warm process's fast path — the very first request against
// the restored cache is a verified hit with a byte-identical plan, and a
// persisted infeasibility memo still fails fast.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	stream, walk := flapWalk(t, 29, 1)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := sess.EnableCache()
	var plans []*Plan
	for _, tgt := range walk {
		p, err := sess.Synthesize(tgt)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	// Add an infeasibility memo to the mix.
	itopo := topology.SmallWorld(30, 4, 0.3, 7)
	isc, err := config.Infeasible(itopo, config.InfeasibleOptions{Gadgets: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	isess, err := NewSession(isc.Topo, isc.Init, isc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	isess.SetCache(cache)
	if _, err := isess.Synthesize(isc.Final); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}

	raw, err := json.Marshal(cache.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap PlanCacheSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored := NewPlanCache(0)
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != cache.Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), cache.Len())
	}

	cold, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold.SetCache(restored)
	for n, tgt := range walk {
		p, err := cold.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
		if !p.Stats.CacheHit {
			t.Fatalf("step %d: restored cache missed", n)
		}
		if p.String() != plans[n].String() {
			t.Fatalf("step %d: restored plan diverged:\ngot  %s\nwant %s",
				n, p.String(), plans[n].String())
		}
	}
	icold, err := NewSession(isc.Topo, isc.Init, isc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	icold.SetCache(restored)
	if _, err := icold.Synthesize(isc.Final); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("restored memo: err = %v, want ErrNoOrdering", err)
	}
	if !icold.LastStats().CacheHit {
		t.Fatal("restored infeasibility memo missed")
	}

	// Corrupted snapshots are rejected, not half-loaded.
	bad := PlanCacheSnapshot{Entries: []PlanCacheEntrySnapshot{{Key: "zz"}}}
	if err := NewPlanCache(0).Restore(&bad); err == nil {
		t.Fatal("bad key accepted")
	}
	short := PlanCacheSnapshot{Entries: []PlanCacheEntrySnapshot{{Key: "abcd", Infeasible: true}}}
	if err := NewPlanCache(0).Restore(&short); err == nil {
		t.Fatal("short key accepted")
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
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
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

// TestNoPlanCacheOption: Options.NoPlanCache makes cache attachment a
// no-op, so every request pays the full search.
func TestNoPlanCacheOption(t *testing.T) {
	stream, walk := flapWalk(t, 23, 2)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(),
		Options{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := sess.EnableCache(); c != nil {
		t.Fatal("EnableCache must refuse under NoPlanCache")
	}
	sess.SetCache(NewPlanCache(0))
	if sess.Cache() != nil {
		t.Fatal("SetCache must refuse under NoPlanCache")
	}
	for n, tgt := range walk {
		p, err := sess.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
		if p.Stats.CacheHit {
			t.Fatalf("step %d: hit with the cache disabled", n)
		}
	}
}
