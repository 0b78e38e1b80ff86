package server_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"netupdate/internal/server"
)

// TestLearnFileRoundTrip: a pool's learned state survives a restart —
// SaveLearning on the warm pool, LoadLearning into a fresh one, and the
// very first lap of the identical traffic is served from the fast path.
func TestLearnFileRoundTrip(t *testing.T) {
	loads, err := makeFlappingLoads(2, 40, 3, server.OptionsSpec{}, 707)
	if err != nil {
		t.Fatal(err)
	}
	p1 := server.NewPool(server.PoolOptions{Workers: 2})
	if _, err := runLoad(context.Background(), p1, loads); err != nil {
		t.Fatal(err)
	}
	warmEntries := p1.Metric("plan_cache_entries")
	if hits := p1.Metric("plan_cache_hits_total"); hits == 0 || warmEntries == 0 {
		t.Fatalf("warm pool never hit its own cache: %g hits, %g entries", hits, warmEntries)
	}
	var buf bytes.Buffer
	if err := p1.SaveLearning(&buf); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	p2 := server.NewPool(server.PoolOptions{Workers: 2})
	defer p2.Close(context.Background())
	if err := p2.LoadLearning(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := p2.Metric("plan_cache_entries"); got != warmEntries {
		t.Fatalf("restored %g entries, want %g", got, warmEntries)
	}
	if _, err := runLoad(context.Background(), p2, loads); err != nil {
		t.Fatal(err)
	}
	if misses := p2.Metric("plan_cache_misses_total"); misses != 0 {
		t.Fatalf("restored pool missed %g times on identical traffic", misses)
	}
	if hits, bad := p2.Metric("plan_cache_hits_total"), p2.Metric("plan_cache_verify_failures_total"); hits == 0 || bad != 0 {
		t.Fatalf("restored fast path dead: %g hits, %g verify failures", hits, bad)
	}

	// Corrupt and version-mismatched snapshots are rejected.
	if err := p2.LoadLearning(strings.NewReader("{")); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := p2.LoadLearning(strings.NewReader(`{"version":99,"stores":[]}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestCrossTenantLearning: tenants whose specs differ only by name share
// one learning store — the second tenant's first lap is served from the
// plans the first tenant synthesized.
func TestCrossTenantLearning(t *testing.T) {
	loads, err := makeFlappingLoads(1, 40, 2, server.OptionsSpec{}, 808)
	if err != nil {
		t.Fatal(err)
	}
	tl := loads[0]
	p := server.NewPool(server.PoolOptions{Workers: 2})
	defer p.Close(context.Background())

	run := func(name string) *server.TenantStats {
		t.Helper()
		spec := *tl.Spec
		spec.Name = name
		info, err := p.Register(&spec)
		if err != nil {
			t.Fatal(err)
		}
		for di := range tl.Deltas {
			if _, err := p.Synthesize(context.Background(), info.ID, &tl.Deltas[di]); err != nil {
				t.Fatalf("%s delta %d: %v", name, di, err)
			}
		}
		st, err := p.TenantStats(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run("region-a")
	if first.CacheMisses == 0 {
		t.Fatalf("first tenant found a warm cache: %+v", first)
	}
	second := run("region-b")
	if second.CacheMisses != 0 {
		t.Fatalf("second tenant missed %d times; learning not shared across names", second.CacheMisses)
	}
	if second.CacheHits != int64(len(tl.Deltas)) {
		t.Fatalf("second tenant hits = %d, want %d", second.CacheHits, len(tl.Deltas))
	}
	if n := p.Metric("learn_stores"); n != 1 {
		t.Fatalf("learn stores = %g, want 1 (shared)", n)
	}

	// An opted-out tenant never touches the shared store.
	spec := *tl.Spec
	spec.Name = "region-c"
	spec.Options.NoPlanCache = true
	info, err := p.Register(&spec)
	if err != nil {
		t.Fatal(err)
	}
	for di := range tl.Deltas {
		if _, err := p.Synthesize(context.Background(), info.ID, &tl.Deltas[di]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.TenantStats(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("noPlanCache tenant touched the cache: %+v", st)
	}
}
