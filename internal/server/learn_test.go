package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/server"
)

// savedLearning serves loads on a fresh pool and returns its SaveLearning
// image and how many plan-cache entries the image holds.
func savedLearning(tb testing.TB, loads []*tenantLoad) ([]byte, float64) {
	tb.Helper()
	p := server.NewPool(server.PoolOptions{Workers: 2})
	if _, err := runLoad(context.Background(), p, loads); err != nil {
		tb.Fatal(err)
	}
	entries := p.Metric("plan_cache_entries")
	if hits := p.Metric("plan_cache_hits_total"); hits == 0 || entries == 0 {
		tb.Fatalf("warm pool never hit its own cache: %g hits, %g entries", hits, entries)
	}
	var buf bytes.Buffer
	if err := p.SaveLearning(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := p.Close(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), entries
}

// withLegacyFields adds to every cache entry of a learn file the
// wrong-configuration patterns, SAT constraints and dead configurations
// that files written before the plan cache dropped its learned state
// carried. Loaders ignore them.
func withLegacyFields(tb testing.TB, img []byte) []byte {
	tb.Helper()
	var snap map[string]any
	dec := json.NewDecoder(bytes.NewReader(img))
	dec.UseNumber() // rule fields round-trip exactly
	if err := dec.Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	for _, st := range snap["stores"].([]any) {
		cache := st.(map[string]any)["cache"].(map[string]any)
		for _, ent := range cache["entries"].([]any) {
			e := ent.(map[string]any)
			e["patterns"] = []any{map[string]any{"relevant": []any{3}, "value": []any{1}}}
			e["cons"] = []any{map[string]any{"applied": []any{0}, "unapplied": []any{1}}}
			e["dead"] = []any{[]any{1}, []any{3}}
		}
	}
	out, err := json.Marshal(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestLearnFileRoundTrip: a pool's plan cache survives a restart —
// SaveLearning on the warm pool, LoadLearning into a fresh one, and the
// very first lap of the identical traffic is served from the fast path.
// A file that still carries the learned-state fields of older writers
// loads and serves the same.
func TestLearnFileRoundTrip(t *testing.T) {
	loads, err := makeFlappingLoads(2, 40, 3, server.OptionsSpec{}, 707)
	if err != nil {
		t.Fatal(err)
	}
	img, warmEntries := savedLearning(t, loads)

	for _, in := range []struct {
		name string
		img  []byte
	}{{"clean", img}, {"legacy", withLegacyFields(t, img)}} {
		p := server.NewPool(server.PoolOptions{Workers: 2})
		defer p.Close(context.Background())
		if err := p.LoadLearning(bytes.NewReader(in.img)); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if got := p.Metric("plan_cache_entries"); got != warmEntries {
			t.Fatalf("%s: restored %g entries, want %g", in.name, got, warmEntries)
		}
		if _, err := runLoad(context.Background(), p, loads); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if misses := p.Metric("plan_cache_misses_total"); misses != 0 {
			t.Fatalf("%s: restored pool missed %g times on identical traffic", in.name, misses)
		}
		if hits, bad := p.Metric("plan_cache_hits_total"), p.Metric("plan_cache_verify_failures_total"); hits == 0 || bad != 0 {
			t.Fatalf("%s: restored fast path dead: %g hits, %g verify failures", in.name, hits, bad)
		}
	}

	// Corrupt and version-mismatched snapshots are rejected.
	p := server.NewPool(server.PoolOptions{Workers: 1})
	defer p.Close(context.Background())
	if err := p.LoadLearning(strings.NewReader("{")); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := p.LoadLearning(strings.NewReader(`{"version":99,"stores":[]}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

// FuzzLoadLearning: LoadLearning decodes a -learn-file, which a restarted
// process reads from disk, so for any input it must return an error or
// leave a pool that answers its tenants' next deltas with a plan or
// core.ErrNoOrdering — a plan cache can hold no other verdict — at rest,
// and never panic. The seeds are the learn file of a flap tenant and a
// retry tenant (plan entries and infeasibility memos) and the same file
// with the learned-state fields older writers added.
func FuzzLoadLearning(f *testing.F) {
	loads, err := makeFlappingLoads(2, 40, 2, server.OptionsSpec{}, 707)
	if err != nil {
		f.Fatal(err)
	}
	img, _ := savedLearning(f, loads)
	if !bytes.Contains(img, []byte(`"steps"`)) || !bytes.Contains(img, []byte(`"infeasible":true`)) {
		f.Fatalf("seed learn file lacks a plan entry or a memo: %s", img)
	}
	f.Add(img)
	f.Add(withLegacyFields(f, img))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := server.NewPool(server.PoolOptions{Workers: 1})
		defer p.Close(context.Background())
		if p.LoadLearning(bytes.NewReader(data)) != nil {
			return
		}
		for _, tl := range loads {
			info, err := p.Register(tl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := p.Synthesize(context.Background(), info.ID, &tl.Deltas[0])
			if (err != nil || plan == nil) && !errors.Is(err, core.ErrNoOrdering) {
				t.Fatalf("%s: plan %v, err %v", tl.Spec.Name, plan != nil, err)
			}
		}
		if err := p.CheckAtRest(); err != nil {
			t.Fatal(err)
		}
	})
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
