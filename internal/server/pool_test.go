package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"

	"netupdate"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/server"
)

// expectedPlans replays one tenant's delta sequence on a dedicated
// netupdate.Synthesizer — the single-tenant baseline the pool must match
// byte for byte.
func expectedPlans(t *testing.T, tl *tenantLoad) []string {
	t.Helper()
	base, err := tl.Spec.StreamHeader.Build()
	if err != nil {
		t.Fatal(err)
	}
	sy, err := netupdate.NewSynthesizer(base.Topo, base.Init, base.Specs, core.Options(tl.Spec.Options))
	if err != nil {
		t.Fatal(err)
	}
	cur := base.Init
	var plans []string
	for i := range tl.Deltas {
		tgt, err := base.Apply(cur, &tl.Deltas[i])
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sy.Synthesize(tgt)
		if err != nil {
			t.Fatalf("baseline delta %d: %v", i, err)
		}
		plans = append(plans, plan.String())
		cur = tgt
	}
	return plans
}

// poolPlans replays every tenant's deltas through one shared pool, all
// tenants concurrently (per-tenant order preserved), returning each
// tenant's plan strings.
func poolPlans(t *testing.T, p *server.Pool, loads []*tenantLoad) [][]string {
	t.Helper()
	ids := make([]string, len(loads))
	for i, tl := range loads {
		info, err := p.Register(tl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	out := make([][]string, len(loads))
	errs := make([]error, len(loads))
	var wg sync.WaitGroup
	for i := range loads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for di := range loads[i].Deltas {
				plan, err := p.Synthesize(context.Background(), ids[i], &loads[i].Deltas[di])
				if err != nil {
					errs[i] = fmt.Errorf("delta %d: %w", di, err)
					return
				}
				out[i] = append(out[i], plan.String())
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	return out
}

// TestPoolMultiTenantConformance: >= 8 tenants served concurrently from
// one pool must produce plans byte-identical to a dedicated per-tenant
// Synthesizer. Run with -race in CI, this doubles as the cross-tenant
// concurrency soundness check.
func TestPoolMultiTenantConformance(t *testing.T) {
	loads, err := makeTenantLoads(8, 40, 3, server.OptionsSpec{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{Workers: 4})
	got := poolPlans(t, p, loads)
	for i, tl := range loads {
		want := expectedPlans(t, tl)
		if len(got[i]) != len(want) {
			t.Fatalf("tenant %d: %d plans, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("tenant %d delta %d: plan diverged:\npool %s\nsolo %s",
					i, j, got[i][j], want[j])
			}
		}
	}
	if n, plans := p.Metric("pool_tenants"), p.Metric("plans_total"); n != 8 || plans != 8*3 {
		t.Fatalf("tenants = %g, plans = %g", n, plans)
	}
}

// TestPoolEvictionRebuild: a pool with a 2-session budget serving 4
// tenants round-robin must evict and rebuild sessions — and still produce
// plans byte-identical to dedicated baselines, because a rebuilt session
// resumes from the tenant's stored current configuration.
func TestPoolEvictionRebuild(t *testing.T) {
	loads, err := makeTenantLoads(4, 40, 3, server.OptionsSpec{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 2})
	ids := make([]string, len(loads))
	for i, tl := range loads {
		info, err := p.Register(tl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	// Round-robin across tenants so every request lands on a freshly
	// evicted tenant (4 tenants, budget 2).
	got := make([][]string, len(loads))
	for di := 0; di < 3; di++ {
		for i := range loads {
			plan, err := p.Synthesize(context.Background(), ids[i], &loads[i].Deltas[di])
			if err != nil {
				t.Fatalf("tenant %d delta %d: %v", i, di, err)
			}
			got[i] = append(got[i], plan.String())
		}
	}
	for i, tl := range loads {
		want := expectedPlans(t, tl)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("tenant %d delta %d: plan diverged after eviction:\npool %s\nsolo %s",
					i, j, got[i][j], want[j])
			}
		}
	}
	if warm := p.Metric("pool_warm_sessions"); warm > 2 {
		t.Fatalf("warm sessions = %g, budget 2", warm)
	}
	if ev, rb := p.Metric("evictions_total"), p.Metric("session_rebuilds_total"); ev == 0 || rb == 0 {
		t.Fatalf("expected evictions and rebuilds, got %g and %g", ev, rb)
	}
	// Tenant stats reflect the cold/warm split.
	cold := 0
	for _, id := range ids {
		ts, err := p.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ts.Warm {
			cold++
		}
		if ts.Runs != 3 || ts.Plans != 3 {
			t.Fatalf("tenant %s stats = %+v", id, ts)
		}
	}
	if cold != 2 {
		t.Fatalf("cold tenants = %d, want 2", cold)
	}
}

// TestPoolDeadlineExceeded: a request whose context deadline fires
// mid-search reports core.ErrTimeout (retryable), leaves the tenant at
// its previous configuration, and the next request succeeds.
func TestPoolDeadlineExceeded(t *testing.T) {
	loads, err := makeTenantLoads(1, 60, 2, server.OptionsSpec{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{Workers: 1})
	info, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	_, serr := p.Synthesize(ctx, info.ID, &loads[0].Deltas[0])
	cancel()
	if !errors.Is(serr, core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", serr)
	}
	if !server.Retryable(serr) {
		t.Fatal("deadline expiry must be retryable")
	}
	if plan, err := p.Synthesize(context.Background(), info.ID, &loads[0].Deltas[0]); err != nil || plan == nil {
		t.Fatalf("tenant dead after expired request: %v", err)
	}
	if exp, plans := p.Metric("deadline_expired_total"), p.Metric("plans_total"); exp != 1 || plans != 1 {
		t.Fatalf("expired = %g, plans = %g", exp, plans)
	}
}

// TestPoolUnknownTenantAndBadDelta: typed errors for the two client
// mistakes.
func TestPoolUnknownTenantAndBadDelta(t *testing.T) {
	loads, err := makeTenantLoads(1, 40, 1, server.OptionsSpec{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{})
	if _, err := p.Synthesize(context.Background(), "tdeadbeef", &loads[0].Deltas[0]); !errors.Is(err, server.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	info, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := config.StreamDelta{Reroute: []config.Reroute{{Class: "nope", Path: []int{0, 1}}}}
	_, serr := p.Synthesize(context.Background(), info.ID, &bad)
	if !errors.Is(serr, config.ErrBadDelta) {
		t.Fatalf("err = %v, want config.ErrBadDelta", serr)
	}
	if server.Retryable(serr) {
		t.Fatal("a bad delta is not retryable")
	}
	// And the tenant still works.
	if _, err := p.Synthesize(context.Background(), info.ID, &loads[0].Deltas[0]); err != nil {
		t.Fatalf("tenant dead after bad delta: %v", err)
	}
}

// TestPoolRegisterIdempotent: the same spec fingerprints to the same
// tenant; a different spec (other options) is a different tenant.
func TestPoolRegisterIdempotent(t *testing.T) {
	loads, err := makeTenantLoads(1, 40, 1, server.OptionsSpec{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{})
	a, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Created || b.Created || a.ID != b.ID {
		t.Fatalf("a = %+v, b = %+v", a, b)
	}
	other := *loads[0].Spec
	other.Options = server.OptionsSpec{RuleGranularity: true}
	c, err := p.Register(&other)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Created || c.ID == a.ID {
		t.Fatalf("distinct options must be a distinct tenant: %+v vs %+v", c, a)
	}
}

// TestPoolClose: a draining pool refuses new work but finishes what it
// admitted.
func TestPoolClose(t *testing.T) {
	loads, err := makeTenantLoads(1, 40, 1, server.OptionsSpec{}, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{})
	info, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Synthesize(context.Background(), info.ID, &loads[0].Deltas[0]); !errors.Is(err, server.ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if _, err := p.Register(loads[0].Spec); !errors.Is(err, server.ErrPoolClosed) {
		t.Fatalf("register after close: err = %v, want ErrPoolClosed", err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
}

// TestPoolSoak: sustained mixed-tenant traffic with a tight session
// budget and enough workers to overlap everything — the race-clean soak
// for the admission, eviction, and rebuild machinery (CI runs it under
// -race). Queue-full sheds are tolerated; anything else fails.
func TestPoolSoak(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	loads, err := makeTenantLoads(6, 40, rounds, server.OptionsSpec{}, 23)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{
		Workers: 4, MaxSessions: 2, QueueDepth: 2, DefaultTimeout: time.Minute,
	})
	ids := make([]string, len(loads))
	for i, tl := range loads {
		info, err := p.Register(tl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	var wg sync.WaitGroup
	for i := range loads {
		// Two clients per tenant hammering the same delta sequence:
		// contention on the tenant gate, the queue bound, and the LRU.
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for di := range loads[i].Deltas {
					_, err := p.Synthesize(context.Background(), ids[i], &loads[i].Deltas[di])
					switch {
					case err == nil:
					case errors.Is(err, server.ErrQueueFull):
					case errors.Is(err, config.ErrBadDelta):
						// A duplicate flip of an already-flipped diamond
						// can be a no-op reroute; still a valid target.
						t.Errorf("unexpected bad delta: %v", err)
					default:
						t.Errorf("soak: %v", err)
					}
				}
			}(i)
		}
	}
	wg.Wait()
	if p.Metric("plans_total") == 0 {
		t.Fatal("soak served nothing")
	}
	if err := p.CheckAtRest(); err != nil {
		t.Fatalf("at rest after the soak: %v", err)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPoolEvictRestore is the churn path's fast reproducer: two
// tenants of one shape (so they share an arena and a plan cache) against
// a budget of one session, visited alternately, so every request resumes
// one session from its parked handle — at the tenant's configuration,
// with no class built — builds the one class its flip touches, runs a
// search (each tenant walks its own Gray-code sequence of diamond flips,
// which revisits no configuration for 2^13 steps on this 13-diamond
// tenant), and evicts the other. What a request costs here beyond the
// search is the pool's whole-session work and that one class.
func BenchmarkPoolEvictRestore(b *testing.B) {
	loads, err := makeTenantLoads(1, 400, 0, server.OptionsSpec{}, 29)
	if err != nil {
		b.Fatal(err)
	}
	pairs := loads[0].Pairs
	p := server.NewPool(server.PoolOptions{MaxSessions: 1})
	ctx := context.Background()
	var ids [2]string
	for i := range ids {
		spec := *loads[0].Spec
		spec.Name = fmt.Sprintf("churn-%d", i)
		info, err := p.Register(&spec)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = info.ID
	}
	onB := [2][]bool{make([]bool, len(pairs)), make([]bool, len(pairs))}
	var verify time.Duration
	serve := func(n int) {
		ti, step := n%2, n/2+1
		// Reflected Gray code: step k flips the pair at k's lowest set bit;
		// the second tenant counts pairs from the other end.
		pi := bits.TrailingZeros(uint(step)) % len(pairs)
		if ti == 1 {
			pi = len(pairs) - 1 - pi
		}
		onB[ti][pi] = !onB[ti][pi]
		path := pairs[pi].A
		if onB[ti][pi] {
			path = pairs[pi].B
		}
		delta := &config.StreamDelta{Reroute: []config.Reroute{{Class: pairs[pi].Class, Path: path}}}
		plan, err := p.Synthesize(ctx, ids[ti], delta)
		if err != nil {
			b.Fatal(err)
		}
		verify += plan.Stats.VerifyElapsed
	}
	// A few requests first, so the timed ones — even the one op of
	// -benchtime=1x — find the engine scratch pool filled, as a serving
	// daemon's do.
	const primed = 6
	for n := 0; n < primed; n++ {
		if n == primed-2 {
			runtime.GC()
		}
		serve(n)
	}
	verify = 0
	rest0, builds0 := p.Metric("snapshot_restores_total"), p.Metric("class_builds_total")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(primed + n)
	}
	b.StopTimer()
	if cold, rest := p.Metric("cold_rebuilds_total"), p.Metric("snapshot_restores_total")-rest0; cold != 0 || rest != float64(b.N) {
		b.Fatalf("churn not served by resume: %g cold rebuilds, %g resumes over %d requests", cold, rest, b.N)
	}
	// The whole-session cost a resumed session can hide: target
	// verification on its first run.
	b.ReportMetric(float64(verify.Nanoseconds())/float64(b.N), "verify-ns/op")
	b.ReportMetric((p.Metric("class_builds_total")-builds0)/float64(b.N), "class-builds/op")
}
