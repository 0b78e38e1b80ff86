package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/server"
	"netupdate/internal/topology"
)

// The tenant load generator of this package's tests: rolling-update and
// flapping traffic expressed in the service's own registration and delta
// wire types, so a test drives the exact serving path.

// tenantLoad is one tenant's workload: the registration spec, the delta
// sequence a controller would send, and each reroutable diamond class's
// two branch paths (A is the registered route) for tests that extend the
// walk.
type tenantLoad struct {
	Spec   *server.TenantSpec
	Deltas []config.StreamDelta
	Pairs  []pairBranches
}

type pairBranches struct {
	Class string
	A, B  []int
}

// makeTenantLoads builds `tenants` distinct rolling-update tenants: each
// gets its own small-world topology of about `switches` switches (seeded
// per tenant, so fingerprints never collide), switches/30 diamonds carved
// into it, and `steps` deltas random-walking the branch choices — one
// diamond flipped per delta, every target an ordinary feasible update.
func makeTenantLoads(tenants, switches, steps int, opts server.OptionsSpec, seed int64) ([]*tenantLoad, error) {
	loads := make([]*tenantLoad, 0, tenants)
	for i := 0; i < tenants; i++ {
		tl, err := makeTenantLoad(fmt.Sprintf("tenant-%d", i), switches, steps, opts, seed+int64(i)*919)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		loads = append(loads, tl)
	}
	return loads, nil
}

func makeTenantLoad(name string, n, steps int, opts server.OptionsSpec, seed int64) (*tenantLoad, error) {
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	// A dense graph occasionally cannot fit every diamond: retry smaller.
	var sc *config.Scenario
	var err error
	for pairs := min(max(n/30, 1), 40); pairs >= 1; pairs-- {
		sc, err = config.Diamonds(topo, config.DiamondOptions{
			Pairs: pairs, Property: config.Reachability, Seed: seed,
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	tl, err := loadOf(name, sc, opts)
	if err != nil {
		return nil, err
	}
	if len(tl.Pairs) == 0 {
		return nil, fmt.Errorf("no diamond classes placed on %s", name)
	}
	onB := make([]bool, len(tl.Pairs))
	r := rand.New(rand.NewSource(seed ^ 0x10AD))
	for s := 0; s < steps; s++ {
		pi := r.Intn(len(tl.Pairs))
		onB[pi] = !onB[pi]
		path := tl.Pairs[pi].A
		if onB[pi] {
			path = tl.Pairs[pi].B
		}
		tl.Deltas = append(tl.Deltas, config.StreamDelta{
			Reroute: []config.Reroute{{Class: tl.Pairs[pi].Class, Path: path}},
		})
	}
	return tl, nil
}

// loadOf registers sc's classes at their initial routes and records the
// two branches of every class the scenario moves (a background flow is
// never rerouted). Port numbers are not part of the wire form: they are
// reassigned deterministically on rebuild, and the pool and every
// baseline work on the rebuilt topology.
func loadOf(name string, sc *config.Scenario, opts server.OptionsSpec) (*tenantLoad, error) {
	topo := sc.Topo
	tf := config.TopologyFile{Switches: topo.NumSwitches()}
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		for _, l := range topo.Neighbors(sw) {
			if l.Peer > sw {
				tf.Links = append(tf.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, h := range topo.Hosts() {
		tf.Hosts = append(tf.Hosts, config.HostFile{ID: h.ID, Switch: h.Switch})
	}
	header := config.StreamHeader{Name: name, Topology: tf}
	tl := &tenantLoad{}
	for _, cs := range sc.Specs {
		init, err := config.PathOf(sc.Init, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		final, err := config.PathOf(sc.Final, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		header.Classes = append(header.Classes, config.StreamClass{
			Name: cs.Class.Name, Src: cs.Class.SrcHost, Dst: cs.Class.DstHost,
			Path: init, Spec: cs.Formula.String(),
		})
		if !slices.Equal(init, final) {
			tl.Pairs = append(tl.Pairs, pairBranches{Class: cs.Class.Name, A: init, B: final})
		}
	}
	tl.Spec = &server.TenantSpec{StreamHeader: header, Options: opts}
	return tl, nil
}

// makeFlappingLoads builds the repetitive traffic the plan cache is for,
// alternating two tenant kinds (even index flap, odd retry; 2*cycles
// deltas each). A flap tenant is a makeTenantLoads tenant that reroutes a
// round-robin group of up to 8 pairs to their alternate branch and back,
// so after the first lap every (base, target) instance is a byte-identical
// repeat served by plan replay. A retry tenant registers a double-diamond
// gadget (no switch-granularity ordering exists) and resubmits its
// rejected target every delta: the first attempt pays the infeasibility
// proof, every repeat is answered by the infeasible memo.
func makeFlappingLoads(tenants, switches, cycles int, opts server.OptionsSpec, seed int64) ([]*tenantLoad, error) {
	loads := make([]*tenantLoad, 0, tenants)
	for i := 0; i < tenants; i++ {
		tseed := seed + int64(i)*919
		var tl *tenantLoad
		var err error
		if i%2 == 1 {
			tl, err = makeRetryLoad(fmt.Sprintf("retry-%d", i), switches, 2*cycles, opts, tseed)
		} else if tl, err = makeTenantLoad(fmt.Sprintf("flap-%d", i), switches, 0, opts, tseed); err == nil {
			group := min(len(tl.Pairs), 8)
			for c := 0; c < cycles; c++ {
				var out, back []config.Reroute
				for g := 0; g < group; g++ {
					p := tl.Pairs[(c*group+g)%len(tl.Pairs)]
					out = append(out, config.Reroute{Class: p.Class, Path: p.B})
					back = append(back, config.Reroute{Class: p.Class, Path: p.A})
				}
				tl.Deltas = append(tl.Deltas, config.StreamDelta{Reroute: out}, config.StreamDelta{Reroute: back})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("flapping tenant %d: %w", i, err)
		}
		loads = append(loads, tl)
	}
	return loads, nil
}

func makeRetryLoad(name string, n, deltas int, opts server.OptionsSpec, seed int64) (*tenantLoad, error) {
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	var sc *config.Scenario
	var err error
	for gadgets := 2; gadgets >= 1; gadgets-- {
		sc, err = config.Infeasible(topo, config.InfeasibleOptions{
			Gadgets: gadgets, Property: config.Reachability, Seed: seed,
			BackgroundFlows: n / 2,
		})
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	tl, err := loadOf(name, sc, opts)
	if err != nil {
		return nil, err
	}
	var rr []config.Reroute
	for _, p := range tl.Pairs {
		rr = append(rr, config.Reroute{Class: p.Class, Path: p.B})
	}
	for d := 0; d < deltas; d++ {
		tl.Deltas = append(tl.Deltas, config.StreamDelta{Reroute: rr})
	}
	return tl, nil
}

// runLoad registers every tenant with the pool and replays all delta
// sequences concurrently, one goroutine per tenant issuing its deltas in
// order. It returns the number of requests served and the first error. A
// core.ErrNoOrdering answer is a served request, not a failure: a retry
// tenant resubmits a rejected intent by design.
func runLoad(ctx context.Context, p *server.Pool, loads []*tenantLoad) (int, error) {
	ids := make([]string, len(loads))
	for i, tl := range loads {
		info, err := p.Register(tl.Spec)
		if err != nil {
			return 0, err
		}
		ids[i] = info.ID
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		served   int
		firstErr error
	)
	for i, tl := range loads {
		wg.Add(1)
		go func(id string, deltas []config.StreamDelta) {
			defer wg.Done()
			for di := range deltas {
				_, err := p.Synthesize(ctx, id, &deltas[di])
				failed := err != nil && !errors.Is(err, core.ErrNoOrdering)
				mu.Lock()
				if !failed {
					served++
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if failed {
					return
				}
			}
		}(ids[i], tl.Deltas)
	}
	wg.Wait()
	return served, firstErr
}

// TestFlappingCacheHitRate is the serving-path guarantee behind the CI
// gate: on flapping traffic at least half of all requests must be served
// from the verification-first fast path, with zero verify failures
// (nothing poisoned the cache).
func TestFlappingCacheHitRate(t *testing.T) {
	loads, err := makeFlappingLoads(2, 40, 6, server.OptionsSpec{}, 909)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tl := range loads {
		want += len(tl.Deltas)
	}
	p := server.NewPool(server.PoolOptions{Workers: 2, MaxSessions: len(loads) + 1})
	served, err := runLoad(context.Background(), p, loads)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := p.Metric("plan_cache_hits_total"), p.Metric("plan_cache_misses_total")
	failures := p.Metric("plan_cache_verify_failures_total")
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if served != want {
		t.Fatalf("served %d of %d", served, want)
	}
	if hits+misses != float64(want) {
		t.Fatalf("cache lookups = %g, want %d (every request should consult the cache)", hits+misses, want)
	}
	if rate := hits / (hits + misses); rate < 0.5 {
		t.Fatalf("cache hit rate = %.2f, want >= 0.5 (hits %g / %g)", rate, hits, hits+misses)
	}
	if failures != 0 {
		t.Fatalf("verify failures = %g on clean traffic", failures)
	}
}

// BenchmarkServerThroughput measures the serving layer end to end: one op
// registers six rolling-update tenants on a fresh pool and replays their
// mixed traffic concurrently, every request served from a pooled warm
// session. Reports syn/sec next to ns/op; CI gates allocs/op
// (.github/alloc-budgets.txt).
func BenchmarkServerThroughput(b *testing.B) {
	loads, err := makeTenantLoads(6, 40, 12, server.OptionsSpec{}, 55)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			p := server.NewPool(server.PoolOptions{Workers: 4, MaxSessions: len(loads) + 1})
			served, err := runLoad(context.Background(), p, loads)
			if err == nil {
				err = p.Close(context.Background())
			}
			if err != nil {
				b.Fatal(err)
			}
			total += served
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "syn/sec")
	})
}
