package server_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/server"
)

// TestSnapshotDirRestart: a pool's warm state survives a restart through
// PoolOptions.SnapshotDir. A pool serves a flap load and the first delta
// of its next lap, and is closed; a fresh pool on the same directory
// registers the same tenants, finds each at the configuration the first
// one left it at, consumes its image, and serves the rest of the lap from
// the restored plan caches: not one miss, not one verify failure.
func TestSnapshotDirRestart(t *testing.T) {
	loads, err := makeFlappingLoads(2, 40, 3, server.OptionsSpec{}, 707)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	var lapAndStep, rest []*tenantLoad
	for _, tl := range loads {
		lapAndStep = append(lapAndStep, &tenantLoad{Spec: tl.Spec, Deltas: append(slices.Clone(tl.Deltas), tl.Deltas[0])})
		rest = append(rest, &tenantLoad{Spec: tl.Spec, Deltas: tl.Deltas[1:]})
	}

	first := server.NewPool(server.PoolOptions{Workers: 2, SnapshotDir: dir})
	if _, err := runLoad(ctx, first, lapAndStep); err != nil {
		t.Fatal(err)
	}
	if hits := first.Metric("plan_cache_hits_total"); hits == 0 {
		t.Fatal("warm pool never hit its own cache")
	}
	left := map[string]*config.Config{}
	moved := 0
	for _, tl := range loads {
		id, err := tl.Spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if left[id], err = first.ConfigOf(id); err != nil {
			t.Fatal(err)
		}
		if base, err := tl.Spec.StreamHeader.Build(); err != nil {
			t.Fatal(err)
		} else if len(config.Diff(left[id], base.Init)) != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no tenant left its registered configuration")
	}
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}

	fresh := server.NewPool(server.PoolOptions{Workers: 2, SnapshotDir: dir})
	defer fresh.Close(ctx)
	for _, tl := range loads {
		info, err := fresh.Register(tl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err := fresh.ConfigOf(info.ID); err != nil || len(config.Diff(cur, left[info.ID])) != 0 {
			t.Fatalf("%s: restarted away from where the last process left it (err %v)", tl.Spec.Name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, info.ID+".nuss")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the installed image is still on disk (stat: %v)", tl.Spec.Name, err)
		}
	}
	if _, err := runLoad(ctx, fresh, rest); err != nil {
		t.Fatal(err)
	}
	if misses := fresh.Metric("plan_cache_misses_total"); misses != 0 {
		t.Fatalf("restored pool missed %g times on traffic its predecessor served", misses)
	}
	if hits, bad := fresh.Metric("plan_cache_hits_total"), fresh.Metric("plan_cache_verify_failures_total"); hits == 0 || bad != 0 {
		t.Fatalf("restored fast path dead: %g hits, %g verify failures", hits, bad)
	}
	if rejects := fresh.Metric("snapshot_rejects_total"); rejects != 0 {
		t.Fatalf("%g images refused", rejects)
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

}
