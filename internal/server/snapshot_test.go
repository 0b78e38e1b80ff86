package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/ltl"
)

// reroute builds a one-class delta for the diamond testSpec.
func reroute(path ...int) *config.StreamDelta {
	return &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: path}}}
}

// diamondDeltas is a small rolling workload over the two disjoint paths.
func diamondDeltas() []*config.StreamDelta {
	return []*config.StreamDelta{
		reroute(0, 2, 3), reroute(0, 1, 3), reroute(0, 2, 3), reroute(0, 1, 3),
	}
}

// TestEvictionSnapshotRestoreByteIdentity: a tenant evicted under the
// LRU budget parks its session, and the image exported for the parked
// tenant is the one its warm session wrote just before, byte for byte.
// Resumed, it must produce exactly the plans a never-evicted control
// produces, and the resume must be counted as a snapshot restore, not a
// cold rebuild.
func TestEvictionSnapshotRestoreByteIdentity(t *testing.T) {
	evicting := NewPool(PoolOptions{Workers: 1, MaxSessions: 1})
	control := NewPool(PoolOptions{Workers: 1, MaxSessions: -1})
	ctx := context.Background()

	alpha, err := evicting.Register(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	calpha, err := control.Register(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}

	deltas := diamondDeltas()
	step := func(n int) (evicted, ctl *core.Plan) {
		t.Helper()
		evictedPlan, err := evicting.Synthesize(ctx, alpha.ID, deltas[n])
		if err != nil {
			t.Fatalf("step %d: evicting pool: %v", n, err)
		}
		ctlPlan, err := control.Synthesize(ctx, calpha.ID, deltas[n])
		if err != nil {
			t.Fatalf("step %d: control pool: %v", n, err)
		}
		return evictedPlan, ctlPlan
	}

	for n := 0; n < 2; n++ {
		ep, cp := step(n)
		if ep.String() != cp.String() {
			t.Fatalf("step %d: pools diverge before eviction", n)
		}
	}

	warmImg, err := evicting.SnapshotTenant(ctx, alpha.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A second tenant blows the 1-session budget: alpha is evicted and
	// must park its session.
	if _, err := evicting.Register(testSpec("beta")); err != nil {
		t.Fatal(err)
	}
	st, err := evicting.TenantStats(alpha.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm {
		t.Fatal("alpha still warm after budget eviction")
	}
	evicting.mu.Lock()
	parked := evicting.tenants[alpha.ID].parked
	evicting.mu.Unlock()
	if parked == nil {
		t.Fatal("eviction parked no session")
	}
	if img := evicting.SnapshotAll()[alpha.ID]; !bytes.Equal(img, warmImg) {
		t.Fatalf("the parked tenant exports %d bytes, its warm session wrote %d others", len(img), len(warmImg))
	}

	for n := 2; n < len(deltas); n++ {
		ep, cp := step(n)
		if got, want := ep.String(), cp.String(); got != want {
			t.Fatalf("step %d: evicted tenant diverged from never-evicted control:\nevicted %s\ncontrol %s",
				n, got, want)
		}
	}

	st, err = evicting.TenantStats(alpha.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotRestores != 1 || st.ColdRebuilds != 0 {
		t.Fatalf("resume not served by restore: %+v", st)
	}
	rest, cold, ev := evicting.Metric("snapshot_restores_total"), evicting.Metric("cold_rebuilds_total"), evicting.Metric("evictions_total")
	if rest != 1 || cold != 0 || ev == 0 {
		t.Fatalf("pool counts %g restores, %g cold rebuilds, %g evictions", rest, cold, ev)
	}
	if n := evicting.m.sessionEvict.Count(); float64(n) != ev {
		t.Fatalf("evict histogram observed %d of %g evictions", n, ev)
	}
}

// TestSharedArenaRegistry: tenants with the same topology share one
// arena entry; a different topology adds a second.
func TestSharedArenaRegistry(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	if _, err := p.Register(testSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(testSpec("beta")); err != nil {
		t.Fatal(err)
	}
	if got := p.Metric("shared_arenas"); got != 1 {
		t.Fatalf("same-topology tenants use %g arenas, want 1", got)
	}
	other := testSpec("gamma")
	other.Topology.Links = append(other.Topology.Links, [2]int{1, 2})
	if _, err := p.Register(other); err != nil {
		t.Fatal(err)
	}
	if got := p.Metric("shared_arenas"); got != 2 {
		t.Fatalf("distinct topologies use %g arenas, want 2", got)
	}
}

// TestSnapshotHTTPMigration: the GET/PUT snapshot endpoints move a
// tenant's warm state between two independent pools; the receiver picks
// up the sender's current configuration and serves identical plans.
func TestSnapshotHTTPMigration(t *testing.T) {
	src := NewPool(PoolOptions{Workers: 1})
	dst := NewPool(PoolOptions{Workers: 1})
	srcTS := httptest.NewServer(NewHandler(src))
	dstTS := httptest.NewServer(NewHandler(dst))
	defer srcTS.Close()
	defer dstTS.Close()
	ctx := context.Background()

	info, err := src.Register(testSpec("mig"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := diamondDeltas()
	if _, err := src.Synthesize(ctx, info.ID, deltas[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srcTS.URL + "/v1/tenants/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(img) == 0 {
		t.Fatalf("snapshot export: status %d, %d bytes", resp.StatusCode, len(img))
	}

	if _, err := dst.Register(testSpec("mig")); err != nil {
		t.Fatal(err)
	}
	put := func(body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut,
			dstTS.URL+"/v1/tenants/"+info.ID+"/snapshot", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A corrupted image must be rejected (409) and leave the tenant
	// usable; the genuine image must install.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x20
	if resp := put(bad); resp.StatusCode != http.StatusConflict {
		t.Fatalf("corrupt install: status %d, want 409", resp.StatusCode)
	}
	if resp := put(img); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("install: status %d, want 204", resp.StatusCode)
	}

	srcCur, err := src.ConfigOf(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	dstCur, err := dst.ConfigOf(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if diff := config.Diff(srcCur, dstCur); len(diff) != 0 {
		t.Fatalf("migrated configuration differs on switches %v", diff)
	}
	for _, d := range deltas[1:] {
		sp, err := src.Synthesize(ctx, info.ID, d)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := dst.Synthesize(ctx, info.ID, d)
		if err != nil {
			t.Fatal(err)
		}
		if sp.String() != dp.String() {
			t.Fatal("migrated tenant diverged from its source")
		}
	}
	st, _ := dst.TenantStats(info.ID)
	if st.SnapshotRestores == 0 {
		t.Fatalf("install not counted as a snapshot restore: %+v", st)
	}
	// The image brought the source's plan cache along: the receiver's
	// first flip back to the branch the source had already planned is a
	// hit, as is the return it learned itself.
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("migrated tenant: %d hits, %d misses, want 2 and 1", st.CacheHits, st.CacheMisses)
	}
}

// TestSnapshotAllAndInstall: SnapshotAll captures warm and evicted
// tenants alike; the images restore through InstallSnapshot (the
// -snapshot-dir restart path).
func TestSnapshotAllAndInstall(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, MaxSessions: 1})
	ctx := context.Background()
	a, err := p.Register(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Synthesize(ctx, a.ID, reroute(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	b, err := p.Register(testSpec("beta")) // evicts alpha
	if err != nil {
		t.Fatal(err)
	}
	snaps := p.SnapshotAll()
	if len(snaps[a.ID]) == 0 || len(snaps[b.ID]) == 0 {
		t.Fatalf("SnapshotAll missing tenants: have %d images", len(snaps))
	}

	fresh := NewPool(PoolOptions{Workers: 1})
	for _, spec := range []string{"alpha", "beta"} {
		if _, err := fresh.Register(testSpec(spec)); err != nil {
			t.Fatal(err)
		}
	}
	for id, img := range snaps {
		if err := fresh.InstallSnapshot(ctx, id, img); err != nil {
			t.Fatalf("install %s: %v", id, err)
		}
	}
	oldCur, _ := p.ConfigOf(a.ID)
	newCur, _ := fresh.ConfigOf(a.ID)
	if diff := config.Diff(oldCur, newCur); len(diff) != 0 {
		t.Fatalf("restart lost alpha's position: diff %v", diff)
	}
}

// TestSnapshotAllEvictedCarriesCache: an evicted tenant holds a parked
// handle and no bytes — the plan cache stays in the pool's store — yet the
// image SnapshotAll exports for that tenant embeds the cache, without
// warming the tenant, so a fresh pool it is installed into serves the
// tenant's first repeated delta as a plan-cache hit.
func TestSnapshotAllEvictedCarriesCache(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, MaxSessions: 1})
	ctx := context.Background()
	a, err := p.Register(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	// There and back: the store now knows both directions of the flip.
	for _, d := range diamondDeltas()[:2] {
		if _, err := p.Synthesize(ctx, a.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Register(testSpec("beta")); err != nil { // evicts alpha
		t.Fatal(err)
	}
	img := p.SnapshotAll()[a.ID]
	p.mu.Lock()
	ta := p.tenants[a.ID]
	warm, parked := ta.sess != nil, ta.parked != nil
	p.mu.Unlock()
	if warm || !parked {
		t.Fatalf("after the export alpha is warm %v, parked %v: want parked only", warm, parked)
	}
	sess, err := core.RestoreSession(ta.base.Topo, ta.base.Specs, ta.opts, img)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Cache() == nil || sess.Cache().Stats().Entries == 0 {
		t.Fatal("the image exported for the parked tenant embeds no plan cache")
	}
	fresh := NewPool(PoolOptions{Workers: 1})
	if _, err := fresh.Register(testSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fresh.InstallSnapshot(ctx, a.ID, img); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Synthesize(ctx, a.ID, diamondDeltas()[2]); err != nil {
		t.Fatal(err)
	}
	st, err := fresh.TenantStats(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("first repeated delta on the fresh pool: %d hits, %d misses, want a hit", st.CacheHits, st.CacheMisses)
	}
}

// TestSnapshotEndpointErrors: unknown tenants 404 on both verbs.
func TestSnapshotEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewPool(PoolOptions{})))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/tenants/tdeadbeef/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export status = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/tdeadbeef/snapshot", bytes.NewReader([]byte("x")))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("install status = %d, want 404", resp.StatusCode)
	}
}

// metricsBody fetches /metrics as a string.
func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestSnapshotMetricsExposed: the three new series appear in /metrics.
func TestSnapshotMetricsExposed(t *testing.T) {
	ts := httptest.NewServer(NewHandler(NewPool(PoolOptions{})))
	defer ts.Close()
	body := metricsBody(t, ts.URL)
	for _, want := range []string{
		"netupdate_snapshot_restores_total",
		"netupdate_shared_arenas",
		"netupdate_cold_rebuilds_total",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics missing %s:\n%s", want, body)
		}
	}
}

// specJSON renders a TenantSpec as its registration document.
func specJSON(t *testing.T, spec *TenantSpec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMigrationInstallKeepsCountersConsistent: installing a migrated
// snapshot is a session rebuild served by a restore. It used to bump the
// restore count but not the pool's rebuild count, so the counter
// netupdate_cold_rebuilds_total (rebuilds - restores) read -1 on /metrics
// while the tenant's own stats said 0. No family may go negative, and the
// pool totals are the sums of the tenants' rows.
func TestMigrationInstallKeepsCountersConsistent(t *testing.T) {
	src := NewPool(PoolOptions{Workers: 1})
	dst := NewPool(PoolOptions{Workers: 1})
	dstTS := httptest.NewServer(NewHandler(dst))
	defer dstTS.Close()

	spec := testSpec("migrant")
	info, err := src.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Synthesize(context.Background(), info.ID, flipDelta()); err != nil {
		t.Fatal(err)
	}
	img, err := src.SnapshotTenant(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Register(testSpec("bystander")); err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallSnapshot(context.Background(), info.ID, img); err != nil {
		t.Fatal(err)
	}

	scrape := scrapeMetrics(t, dstTS.URL)
	for series, v := range scrape.samples {
		if v < 0 {
			t.Errorf("%s = %g: negative", series, v)
		}
	}
	for family, want := range map[string]float64{
		"netupdate_session_rebuilds_total":  1,
		"netupdate_snapshot_restores_total": 1,
		"netupdate_cold_rebuilds_total":     0,
	} {
		if got := scrape.samples[family]; got != want {
			t.Errorf("%s = %g, want %g", family, got, want)
		}
	}
	st, err := dst.TenantStats(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilds != 1 || st.SnapshotRestores != 1 || st.ColdRebuilds != 0 {
		t.Errorf("tenant stats = %+v", st)
	}
	for _, p := range []*Pool{src, dst} {
		if err := p.CheckAtRest(); err != nil {
			t.Error(err)
		}
	}
}

// TestInstallSnapshotRejectsAreCounted: an image that does not become a
// tenant's warm state leaves a trace. A version-1 image (the seed commit
// 5a6acb0 wrote for this very tenant shape, one reroute in) still moves
// the tenant to the image's configuration — nothing else carries it
// across processes — over a session built cold: the install succeeds, no
// restore is counted, a cold rebuild and a reject are. So does a
// version-3 image whose cache section is JSON, and its cache is not read.
// A corrupt image is refused as before, leaves the tenant where it was,
// and is counted as a reject only.
func TestInstallSnapshotRejectsAreCounted(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "core", "testdata", "fuzz-seeds", "one-class.nuss"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolOptions{Workers: 1})
	ctx := context.Background()
	info, err := p.Register(testSpec("line"))
	if err != nil {
		t.Fatal(err)
	}
	registered, err := p.ConfigOf(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	families := func() [3]float64 {
		return [3]float64{p.Metric("snapshot_restores_total"), p.Metric("cold_rebuilds_total"), p.Metric("snapshot_rejects_total")}
	}
	before := families()

	if err := p.InstallSnapshot(ctx, info.ID, v1); err != nil {
		t.Fatalf("version-1 image: %v", err)
	}
	if got, want := families(), [3]float64{before[0], before[1] + 1, before[2] + 1}; got != want {
		t.Errorf("after a version-1 image: restores, cold rebuilds, rejects = %v, want %v", got, want)
	}
	moved, err := p.ConfigOf(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(config.Diff(moved, registered)) == 0 {
		t.Fatal("the tenant is still at its registered configuration, not the image's")
	}
	// The image was taken after flipDelta: asking for it again is a no-op
	// plan, and the way back is the plan a tenant that walked there gets.
	walked := NewPool(PoolOptions{Workers: 1})
	if _, err := walked.Register(testSpec("line")); err != nil {
		t.Fatal(err)
	}
	if _, err := walked.Synthesize(ctx, info.ID, flipDelta()); err != nil {
		t.Fatal(err)
	}
	back := &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 1, 3}}}}
	want, err := walked.Synthesize(ctx, info.ID, back)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Synthesize(ctx, info.ID, back)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("plan back from the image's configuration:\n%s\nwant\n%s", got, want)
	}

	v3, err := os.ReadFile(filepath.Join("..", "core", "testdata", "fuzz-seeds", "three-class-v3-cache.nuss"))
	if err != nil {
		t.Fatal(err)
	}
	var hex TenantSpec
	if err := json.Unmarshal([]byte(hexHeader), &hex); err != nil {
		t.Fatal(err)
	}
	h, err := p.Register(&hex)
	if err != nil {
		t.Fatal(err)
	}
	registered, err = p.ConfigOf(h.ID)
	if err != nil {
		t.Fatal(err)
	}
	before, entries := families(), p.Metric("plan_cache_entries")
	if err := p.InstallSnapshot(ctx, h.ID, v3); err != nil {
		t.Fatalf("version-3 image with a JSON cache section: %v", err)
	}
	if got, want := families(), [3]float64{before[0], before[1] + 1, before[2] + 1}; got != want {
		t.Errorf("after a version-3 image: restores, cold rebuilds, rejects = %v, want %v", got, want)
	}
	if got := p.Metric("plan_cache_entries"); got != entries {
		t.Errorf("the version-3 image's cache section was read: %g entries, want %g", got, entries)
	}
	if moved, _ := p.ConfigOf(h.ID); len(config.Diff(moved, registered)) == 0 {
		t.Error("the tenant is still at its registered configuration, not the version-3 image's")
	}

	at, err := p.ConfigOf(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	before = families()
	corrupt := append([]byte(nil), v1...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := p.InstallSnapshot(ctx, info.ID, corrupt); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("corrupt image: err = %v, want ErrBadSnapshot", err)
	}
	if got, want := families(), [3]float64{before[0], before[1], before[2] + 1}; got != want {
		t.Errorf("after a corrupt image: restores, cold rebuilds, rejects = %v, want %v", got, want)
	}
	if after, _ := p.ConfigOf(info.ID); len(config.Diff(after, at)) != 0 {
		t.Error("a refused image moved the tenant")
	}

	// The same for the image exported for an evicted tenant, damaged on
	// its way back: refused and counted as a reject only, the tenant still
	// parked, so its next request resumes.
	small := NewPool(PoolOptions{Workers: 1, MaxSessions: 1})
	a, err := small.Register(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Register(testSpec("beta")); err != nil { // evicts alpha
		t.Fatal(err)
	}
	exported := small.SnapshotAll()[a.ID]
	if exported == nil {
		t.Fatal("no image exported for the evicted tenant")
	}
	exported[len(exported)/2] ^= 0x40
	if err := small.InstallSnapshot(ctx, a.ID, exported); !errors.Is(err, core.ErrBadSnapshot) {
		t.Fatalf("damaged export: err = %v, want ErrBadSnapshot", err)
	}
	if _, err := small.Synthesize(ctx, a.ID, flipDelta()); err != nil {
		t.Fatal(err)
	}
	if got, want := [3]float64{small.Metric("snapshot_restores_total"), small.Metric("cold_rebuilds_total"), small.Metric("snapshot_rejects_total")}, [3]float64{1, 0, 1}; got != want {
		t.Errorf("after a damaged export: restores, cold rebuilds, rejects = %v, want %v", got, want)
	}
	for _, pool := range []*Pool{p, small} {
		if err := pool.CheckAtRest(); err != nil {
			t.Error(err)
		}
	}
}

// hexHeader is the three-class tenant the committed three-class images of
// internal/core/testdata/fuzz-seeds belong to.
const hexHeader = `{"name":"hex","topology":{"switches":6,"links":[[0,1],[1,2],[2,5],[0,3],[3,4],[4,5],[1,4]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":5},{"id":102,"switch":3},{"id":103,"switch":2}]},"classes":[{"name":"a","src":100,"dst":101,"path":[0,1,2,5],"spec":"sw=0 -> F sw=5"},{"name":"b","src":102,"dst":103,"path":[3,4,1,2],"spec":"sw=3 -> F sw=2"},{"name":"c","src":101,"dst":100,"path":[5,4,3,0],"spec":"sw=5 -> ((sw!=0) U ((sw=4) & F sw=0))"}]}`

// TestInstallSnapshotMergeCountsEvictions: the cache an image carries is
// merged into the tenant's store through the store's own insertion, so an
// install into a full store counts every entry it pushes out in
// netupdate_plan_cache_evictions_total, and the entries the store holds
// already stay and are not counted.
func TestInstallSnapshotMergeCountsEvictions(t *testing.T) {
	ctx := context.Background()
	p := NewPool(PoolOptions{Workers: 1})
	info, err := p.Register(testSpec("line"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := testSpec("line").Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(base.Topo, base.Init, base.Specs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const full, overlap, more = core.DefaultPlanCacheEntries, 10, 30
	for _, install := range []struct{ first, n, evicted int }{{0, full, 0}, {full - overlap, more, more - overlap}} {
		before := p.Metric("plan_cache_evictions_total")
		if err := p.InstallSnapshot(ctx, info.ID, withMemos(img, install.first, install.n)); err != nil {
			t.Fatal(err)
		}
		if got := p.Metric("plan_cache_evictions_total") - before; got != float64(install.evicted) {
			t.Errorf("installing memos %d to %d: %g evictions, want %d", install.first, install.first+install.n-1, got, install.evicted)
		}
		if got := p.Metric("plan_cache_entries"); got != full {
			t.Errorf("installing memos %d to %d: %g entries, want %d", install.first, install.first+install.n-1, got, full)
		}
	}
}

// withMemos returns img, an image with an empty cache section, with a
// section of n infeasibility memos under the keys first, first+1, …
// instead, resealed: the count of entries, then per entry its 32-byte key
// and the memo's kind, 1 (core.EmbedCache writes the same layout).
func withMemos(img []byte, first, n int) []byte {
	var sec []byte
	sec = binary.AppendUvarint(sec, uint64(n))
	for k := first; k < first+n; k++ {
		var key [sha256.Size]byte
		binary.BigEndian.PutUint64(key[:], uint64(k))
		sec = append(append(sec, key[:]...), 1)
	}
	out := append(slices.Clone(img[:len(img)-sha256.Size-1]), 1)
	out = append(binary.AppendUvarint(out, uint64(len(sec))), sec...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// TestSnapshotDirRefusedImage: an image under PoolOptions.SnapshotDir
// that does not restore — a plan-cache JSON file of the kind that once
// carried warm state beside the images, or a truncated image — leaves the
// registration served at the header's configuration, is counted as a
// reject, and is removed, so the next process that registers the tenant
// finds nothing there.
func TestSnapshotDirRefusedImage(t *testing.T) {
	ctx := context.Background()
	src := NewPool(PoolOptions{Workers: 1})
	info, err := src.Register(testSpec("line"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Synthesize(ctx, info.ID, flipDelta()); err != nil {
		t.Fatal(err)
	}
	img, err := src.SnapshotTenant(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	learnFile := `{"version":1,"stores":[{"fingerprint":"` + info.ID + `","cache":{"entries":[]}}]}`
	for _, bad := range []struct {
		name string
		img  []byte
	}{{"learn file", []byte(learnFile)}, {"truncated image", img[:len(img)/2]}} {
		dir := t.TempDir()
		path := filepath.Join(dir, info.ID+".nuss")
		if err := os.WriteFile(path, bad.img, 0o644); err != nil {
			t.Fatal(err)
		}
		// registered registers the tenant on a fresh pool over dir, checks
		// that it is at its header's configuration, and returns the pool
		// and the number of images it refused.
		registered := func() (*Pool, float64) {
			p := NewPool(PoolOptions{Workers: 1, SnapshotDir: dir})
			got, err := p.Register(testSpec("line"))
			if err != nil || !got.Created {
				t.Fatalf("%s: register: %+v, %v", bad.name, got, err)
			}
			cur, err := p.ConfigOf(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(config.Diff(cur, p.tenants[info.ID].base.Init)) != 0 {
				t.Fatalf("%s: the tenant left its header's configuration", bad.name)
			}
			return p, p.Metric("snapshot_rejects_total")
		}
		p, rejects := registered()
		if rejects != 1 {
			t.Errorf("%s: %g rejects, want 1", bad.name, rejects)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: the refused image is still on disk (stat: %v)", bad.name, err)
		}
		again, rejects := registered()
		if rejects != 0 {
			t.Errorf("%s: the next registration refused %g images: the first came back", bad.name, rejects)
		}
		for _, pool := range []*Pool{p, again} {
			if err := pool.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// evictAlpha registers alpha — the diamond tenant plus a class the deltas
// never move, on two switches of its own — on a pool with a budget of one
// session, serves n deltas and registers a second tenant, which evicts
// alpha and leaves its session parked.
func evictAlpha(t *testing.T, n int) (*Pool, *tenant) {
	t.Helper()
	p := NewPool(PoolOptions{Workers: 1, MaxSessions: 1})
	spec := testSpec("alpha")
	spec.Topology.Switches = 6
	spec.Topology.Links = append(spec.Topology.Links, [2]int{4, 5})
	spec.Topology.Hosts = append(spec.Topology.Hosts, config.HostFile{ID: 102, Switch: 4}, config.HostFile{ID: 103, Switch: 5})
	spec.Classes = append(spec.Classes, config.StreamClass{Name: "d", Src: 102, Dst: 103, Path: []int{4, 5}, Spec: "sw=4 -> F sw=5"})
	alpha, err := p.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diamondDeltas()[:n] {
		if _, err := p.Synthesize(context.Background(), alpha.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Register(testSpec("beta")); err != nil {
		t.Fatal(err)
	}
	tn := p.tenants[alpha.ID]
	if tn.sess != nil || tn.parked == nil {
		t.Fatalf("alpha not evicted onto a parked handle (warm %v, parked %v)", tn.sess != nil, tn.parked != nil)
	}
	return p, tn
}

// TestRestoreAdoptsTenantConfiguration: the session a pool resumes for an
// evicted tenant is bound to the tenant's own configuration object, not to
// a copy of it — so the handle-is-current check is an identity test, and
// the request that follows diffs its target (cloned from that object)
// against tables it shares, comparing no rule of an untouched switch.
func TestRestoreAdoptsTenantConfiguration(t *testing.T) {
	p, tn := evictAlpha(t, 2)
	sess, err := p.ensureWarm(tn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Current() != tn.cur {
		t.Fatal("restored session is at a copy of the tenant's configuration")
	}
	if rest, cold := p.Metric("snapshot_restores_total"), p.Metric("cold_rebuilds_total"); rest != 1 || cold != 0 {
		t.Fatalf("%g restores, %g cold rebuilds", rest, cold)
	}
	target, err := tn.base.Apply(tn.cur, reroute(0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []int{4, 5} { // the class the delta leaves alone
		if tbl := target.Table(sw); len(tbl) == 0 || !tbl.Same(sess.Current().Table(sw)) {
			t.Fatalf("sw%d: the request's target and the restored session's configuration hold two copies of one table", sw)
		}
	}
	if err := p.CheckAtRest(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleEvictionImageIsDropped: a parked handle at another
// configuration than the tenant's — which no request path produces, and
// which must still never be served from — is dropped, counted in
// netupdate_snapshot_rejects_total, and the tenant rebuilt cold where it
// stands.
func TestStaleEvictionImageIsDropped(t *testing.T) {
	p, tn := evictAlpha(t, 1) // the handle is at [0 2 3]
	p.mu.Lock()
	tn.cur = tn.base.Init // the tenant at [0 1 3]
	p.mu.Unlock()
	plan, err := p.Synthesize(context.Background(), tn.id, reroute(0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Units == 0 {
		t.Fatal("served from the handle's configuration: the request was a no-op there")
	}
	st, err := p.TenantStats(tn.id)
	if err != nil {
		t.Fatal(err)
	}
	if rej := p.Metric("snapshot_rejects_total"); rej != 1 || st.ColdRebuilds != 1 || st.SnapshotRestores != 0 {
		t.Fatalf("%g rejects, stats %+v", rej, st)
	}
	if tn.sess == nil || tn.sess.Current() != tn.cur {
		t.Fatal("tenant and its rebuilt session disagree on the configuration")
	}
	if err := p.CheckAtRest(); err != nil {
		t.Fatal(err)
	}
}

// TestUnbuildableClassDropsTheSessionNotTheTenant: a resumed session
// whose class does not hold where the tenant stands — here one resumed
// from the tenant's handle with another formula for the class, which
// stands in for corrupted session state — fails the first request that
// touches the class with core.ErrClassBuild. The pool drops that session,
// builds one from the tenant's spec at the tenant's configuration, serves
// the request on it, and says so: one cold rebuild, one reject, one line
// on standard error — and the tenant's later requests never notice.
func TestUnbuildableClassDropsTheSessionNotTheTenant(t *testing.T) {
	p, tn := evictAlpha(t, 1)
	specs := slices.Clone(tn.base.Specs)
	unreachable, err := ltl.Parse("sw=0 -> F sw=5")
	if err != nil {
		t.Fatal(err)
	}
	specs[0].Formula = unreachable
	bad := core.Resume(tn.base.Topo, specs, tn.opts, tn.parked, p.sessionResources(tn))
	p.adopt(tn, bad)
	ctx := context.Background()
	plan, err := p.Synthesize(ctx, tn.id, reroute(0, 1, 3))
	if err != nil || plan.Stats.Units == 0 {
		t.Fatalf("the request the bad session could not serve: plan %v, err %v", plan, err)
	}
	st, err := p.TenantStats(tn.id)
	if err != nil {
		t.Fatal(err)
	}
	if rej := p.Metric("snapshot_rejects_total"); rej != 1 || st.ColdRebuilds != 1 || st.Plans != 2 || st.Failures != 0 {
		t.Fatalf("%g rejects, stats %+v: want one reject, one cold rebuild and no failed request", rej, st)
	}
	if tn.sess == bad || tn.sess == nil || tn.sess.Current() != tn.cur {
		t.Fatal("the tenant is not on a rebuilt session at its configuration")
	}
	if _, err := p.Synthesize(ctx, tn.id, reroute(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := p.Metric("cold_rebuilds_total"); got != 1 {
		t.Fatalf("%g cold rebuilds after a second request", got)
	}
	if err := p.CheckAtRest(); err != nil {
		t.Fatal(err)
	}
}

// TestClassBuildsAreCounted: a tenant resumed from its parked handle
// builds, on its next request, the one class of its two the request
// touches, and /metrics says so — which is how "the first request after a
// restore was slow" is read from outside. A tenant that was never evicted
// builds nothing on demand.
func TestClassBuildsAreCounted(t *testing.T) {
	p, tn := evictAlpha(t, 1)
	if got := p.Metric("class_builds_total"); got != 0 {
		t.Fatalf("netupdate_class_builds_total = %g before any restore", got)
	}
	if _, err := p.Synthesize(context.Background(), tn.id, reroute(0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if builds, restores := p.Metric("class_builds_total"), p.Metric("snapshot_restores_total"); builds != 1 || restores != 1 {
		t.Fatalf("%g class builds over %g restores, want 1 and 1", builds, restores)
	}
	if tn.sess.ClassBuilds() != 1 || tn.classBuilds.Load() != 1 {
		t.Fatalf("session built %d classes, tenant counted %d", tn.sess.ClassBuilds(), tn.classBuilds.Load())
	}
}
