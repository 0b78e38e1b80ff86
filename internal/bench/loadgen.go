package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/server"
	"netupdate/internal/topology"
)

// The server load generator: mixed-tenant rolling-update traffic for the
// warm-session pool, expressed in the service's own registration and
// delta wire types so the benchmark exercises the exact serving path.

// TenantLoad is one tenant's workload: the registration spec and the
// delta sequence a controller would send, plus the flip bookkeeping the
// generator used (exposed so callers can extend the walk).
type TenantLoad struct {
	Spec   *server.TenantSpec
	Deltas []config.StreamDelta
	// Pairs records each reroutable diamond class's two branch paths (A
	// is the registered initial route); the flapping generator walks them.
	Pairs []PairBranches
}

// PairBranches is one diamond pair's routing choice.
type PairBranches struct {
	Class string
	A, B  []int
}

// MakeTenantLoads builds `tenants` distinct rolling-update tenants: each
// gets its own small-world topology of roughly `switches` switches (seeded
// per tenant, so fingerprints never collide), the standard diamond
// workload carved into it, and `steps` deltas random-walking the diamond
// branch choices — one diamond flipped per delta, every consecutive
// target an ordinary feasible diamond update.
func MakeTenantLoads(tenants, switches, steps int, opts server.OptionsSpec, seed int64) ([]*TenantLoad, error) {
	loads := make([]*TenantLoad, 0, tenants)
	for i := 0; i < tenants; i++ {
		tl, err := makeTenantLoad(fmt.Sprintf("tenant-%d", i), switches, steps, opts, seed+int64(i)*919)
		if err != nil {
			return nil, fmt.Errorf("bench: tenant %d: %w", i, err)
		}
		loads = append(loads, tl)
	}
	return loads, nil
}

func makeTenantLoad(name string, n, steps int, opts server.OptionsSpec, seed int64) (*TenantLoad, error) {
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	var sc *config.Scenario
	if err := placePairs(FamilySmallWorld, n, func(pairs int) error {
		var perr error
		sc, perr = config.Diamonds(topo, config.DiamondOptions{
			Pairs: pairs, Property: config.Reachability, Seed: seed,
		})
		return perr
	}); err != nil {
		return nil, err
	}

	header := config.StreamHeader{Name: name, Topology: topologyFileOf(topo)}
	type pair struct {
		name     string
		branches [2][]int
		onB      bool
	}
	var pairs []pair
	for _, cs := range sc.Specs {
		init, err := config.PathOf(sc.Init, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		header.Classes = append(header.Classes, config.StreamClass{
			Name: cs.Class.Name, Src: cs.Class.SrcHost, Dst: cs.Class.DstHost,
			Path: init, Spec: cs.Formula.String(),
		})
		if !strings.HasPrefix(cs.Class.Name, "pair") {
			continue // background flow: never rerouted
		}
		final, err := config.PathOf(sc.Final, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{name: cs.Class.Name, branches: [2][]int{init, final}})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("bench: no diamond classes placed on %s", name)
	}

	tl := &TenantLoad{Spec: &server.TenantSpec{StreamHeader: header, Options: opts}}
	for _, p := range pairs {
		tl.Pairs = append(tl.Pairs, PairBranches{Class: p.name, A: p.branches[0], B: p.branches[1]})
	}
	r := rand.New(rand.NewSource(seed ^ 0x10AD))
	for s := 0; s < steps; s++ {
		p := &pairs[r.Intn(len(pairs))]
		p.onB = !p.onB
		branch := p.branches[0]
		if p.onB {
			branch = p.branches[1]
		}
		tl.Deltas = append(tl.Deltas, config.StreamDelta{
			Reroute: []config.Reroute{{Class: p.name, Path: branch}},
		})
	}
	return tl, nil
}

// topologyFileOf serializes a topology into the stream-header wire form.
// Port numbers are not part of the wire format — they are reassigned
// deterministically on rebuild, and everything downstream (the pool and
// any conformance baseline) works on the rebuilt topology.
func topologyFileOf(t *topology.Topology) config.TopologyFile {
	tf := config.TopologyFile{Switches: t.NumSwitches()}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		for _, l := range t.Neighbors(sw) {
			if l.Peer > sw {
				tf.Links = append(tf.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, h := range t.Hosts() {
		tf.Hosts = append(tf.Hosts, config.HostFile{ID: h.ID, Switch: h.Switch})
	}
	return tf
}

// RunLoad registers every tenant with the pool and replays all delta
// sequences concurrently, one goroutine per tenant issuing its deltas in
// order (the per-tenant sequence must stay ordered; cross-tenant traffic
// interleaves freely). It returns the number of syntheses served and the
// first error. A core.ErrNoOrdering answer is a served request, not a
// failure — retry tenants (MakeFlappingLoads) resubmit rejected intents
// by design, and the definitive infeasibility verdict is the response.
func RunLoad(ctx context.Context, p *server.Pool, loads []*TenantLoad) (int, error) {
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
				if _, err := p.Synthesize(ctx, id, &deltas[di]); err != nil && !errors.Is(err, core.ErrNoOrdering) {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(ids[i], tl.Deltas)
	}
	wg.Wait()
	return served, firstErr
}

// ServerRun is one measured replay of a mixed-tenant load.
type ServerRun struct {
	Served       int
	SynPerSec    float64
	AllocsPerSyn int64
	// Plan-cache totals of the pool that served the run (warm runs only;
	// zero when every tenant opted out or the run was cold).
	CacheHits           int64
	CacheMisses         int64
	CacheVerifyFailures int64
}

// RunServerLoad replays the mixed-tenant load and measures serving
// throughput and allocations per synthesis (runtime.MemStats deltas,
// like the stream benchmarks). warm serves the traffic through a fresh
// pool with every tenant's session held warm; cold is the per-request
// baseline — the identical traffic, same concurrency budget, but every
// request pays a fresh one-shot synthesis (per-class structures, label
// tables, and closures rebuilt from scratch), which is what serving
// without the session pool would cost.
func RunServerLoad(loads []*TenantLoad, warm bool, workers int) (*ServerRun, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var served int
	var err error
	run := &ServerRun{}
	if warm {
		p := server.NewPool(server.PoolOptions{Workers: workers, MaxSessions: len(loads) + 1})
		served, err = RunLoad(context.Background(), p, loads)
		m := p.Metrics()
		run.CacheHits = int64(m.Value("netupdate_plan_cache_hits_total"))
		run.CacheMisses = int64(m.Value("netupdate_plan_cache_misses_total"))
		run.CacheVerifyFailures = int64(m.Value("netupdate_plan_cache_verify_failures_total"))
		if cerr := p.Close(context.Background()); err == nil {
			err = cerr
		}
	} else {
		served, err = runColdLoad(loads, workers)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if served == 0 {
		return nil, fmt.Errorf("bench: server load served nothing")
	}
	run.Served = served
	run.SynPerSec = float64(served) / elapsed.Seconds()
	run.AllocsPerSyn = int64(m1.Mallocs-m0.Mallocs) / int64(served)
	return run, nil
}

// runColdLoad replays the load without the pool: per-tenant goroutines
// under the same global worker budget, each request a fresh one-shot
// core.Synthesize between the tenant's tracked configurations.
func runColdLoad(loads []*TenantLoad, workers int) (int, error) {
	sem := make(chan struct{}, workers)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		served   int
		firstErr error
	)
	for _, tl := range loads {
		base, err := tl.Spec.StreamHeader.Build()
		if err != nil {
			return 0, err
		}
		opts, err := tl.Spec.Options.Build()
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(tl *TenantLoad, base *config.StreamBase, opts core.Options) {
			defer wg.Done()
			cur := base.Init
			for di := range tl.Deltas {
				tgt, err := base.Apply(cur, &tl.Deltas[di])
				if err == nil {
					sem <- struct{}{}
					_, err = core.Synthesize(&config.Scenario{
						Name: base.Name, Topo: base.Topo, Init: cur, Final: tgt,
						Specs: base.Specs,
					}, opts)
					<-sem
					if errors.Is(err, core.ErrNoOrdering) {
						// Definitive verdict: served, config unchanged.
						err, tgt = nil, cur
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				cur = tgt
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(tl, base, opts)
	}
	wg.Wait()
	return served, firstErr
}

// ServerCompare is the experiments table: warm multi-tenant serving vs
// the cold per-request baseline over identical mixed rolling-update
// traffic.
func ServerCompare(tenantCounts []int, switches, steps, workers int) (*Table, error) {
	t := &Table{
		Title: "Multi-tenant server: warm session pool vs cold per-request rebuild",
		Note: fmt.Sprintf("small-world reachability diamonds per tenant, %d deltas/tenant, %d pool workers",
			steps, workers),
		Header: []string{"tenants", "switches", "syntheses",
			"warm(syn/s)", "cold(syn/s)", "speedup", "warm(alloc/syn)", "cold(alloc/syn)"},
	}
	for _, n := range tenantCounts {
		loads, err := MakeTenantLoads(n, switches, steps, server.OptionsSpec{}, int64(n)*77)
		if err != nil {
			return nil, err
		}
		warm, err := RunServerLoad(loads, true, workers)
		if err != nil {
			return nil, err
		}
		cold, err := RunServerLoad(loads, false, workers)
		if err != nil {
			return nil, err
		}
		t.Add(n, switches, warm.Served,
			warm.SynPerSec, cold.SynPerSec,
			fmt.Sprintf("%.2fx", warm.SynPerSec/cold.SynPerSec),
			warm.AllocsPerSyn, cold.AllocsPerSyn)
	}
	return t, nil
}
