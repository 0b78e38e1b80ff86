package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/server"
)

// The snapshot benchmarks: how much of a warm session's build cost the
// binary snapshot (internal/core/snapshot.go) recovers on restore, and
// how serving throughput scales when tenants are sharded across
// netupdated replicas behind the consistent-hash router.

// SnapshotRun is one measured cold-build vs snapshot-restore comparison.
type SnapshotRun struct {
	ColdMS    float64
	RestoreMS float64
	Speedup   float64
	Bytes     int
}

// MeasureSnapshotRestore warms a session on the scenario (synthesizing
// init -> final so the warmth caches and learned state carry real
// content), snapshots it, and times a cold rebuild at the session's
// current configuration against restoring the snapshot — exactly the
// two paths the pool chooses between in ensureWarm after an eviction.
// Both paths draw the state arena and warmth cache from the same shared
// resources, as ensureWarm does (the arena registry outlives evicted
// sessions), so the comparison isolates what the snapshot itself buys:
// recorded transitions versus table application plus cycle check, and
// restored labelings versus a full relabel. Times are the best of reps,
// the standard treatment for a latency microbenchmark.
func MeasureSnapshotRestore(sc *config.Scenario, opts core.Options, reps int) (*SnapshotRun, error) {
	res := core.SessionResources{Arena: kripke.NewArena(sc.Topo), Warmth: mc.NewWarmth()}
	sess, err := core.NewSessionWith(sc.Topo, sc.Init, sc.Specs, opts, res)
	if err != nil {
		return nil, err
	}
	sess.EnableCache()
	if _, err := sess.Synthesize(sc.Final); err != nil {
		return nil, err
	}
	img, err := sess.Snapshot()
	if err != nil {
		return nil, err
	}

	best := func(f func() error) (float64, error) {
		bestMS := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if ms := float64(time.Since(start).Nanoseconds()) / 1e6; r == 0 || ms < bestMS {
				bestMS = ms
			}
		}
		return bestMS, nil
	}
	coldMS, err := best(func() error {
		_, err := core.NewSessionWith(sc.Topo, sess.Current(), sc.Specs, opts, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	restoreMS, err := best(func() error {
		_, err := core.RestoreSessionWith(sc.Topo, sc.Specs, opts, img, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &SnapshotRun{
		ColdMS:    coldMS,
		RestoreMS: restoreMS,
		Speedup:   coldMS / restoreMS,
		Bytes:     len(img),
	}, nil
}

// SnapshotRestoreCompare is the experiments table: eviction-rebuild cost
// with and without the snapshot, on the multi-region workload the
// decomposition figures use.
func SnapshotRestoreCompare(sizes []int, regions int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Session snapshots: cold rebuild vs snapshot restore after eviction",
		Note: fmt.Sprintf("multi-region reachability workload, %d regions; best of 5; both paths share the registry arena and warmth as in the pool; restore validates a checksum and adopts recorded transitions and labelings, skipping table application, cycle check, and relabeling",
			regions),
		Header: []string{"switches", "classes", "cold(ms)", "restore(ms)", "speedup", "snapshot(KB)"},
	}
	for _, n := range sizes {
		sc, err := MultiRegionWorkload(n, regions, 2, 1, config.Reachability, int64(n)*131)
		if err != nil {
			return nil, err
		}
		run, err := MeasureSnapshotRestore(sc, core.Options{Timeout: timeout}, 5)
		if err != nil {
			return nil, fmt.Errorf("bench: snapshot n=%d: %w", n, err)
		}
		t.Add(n, len(sc.Specs), run.ColdMS, run.RestoreMS,
			fmt.Sprintf("%.1fx", run.Speedup), float64(run.Bytes)/1024)
	}
	return t, nil
}

// ShardCompare is the sharded-serving table: identical mixed-tenant
// rolling-update traffic served through the netupdatelb router over 1..N
// in-process netupdated replicas. Every replica runs in this process, so
// wall-clock scaling reflects real parallelism only up to the host's
// core count — on a single-core host the value of the figure is the
// router overhead (the 1-replica row vs ServerCompare) and the placement
// spread, not the throughput ratio.
func ShardCompare(replicaCounts []int, tenants, switches, steps, workers int) (*Table, error) {
	loads, err := MakeTenantLoads(tenants, switches, steps, server.OptionsSpec{}, 0xCAFE)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Sharded serving: throughput through netupdatelb by replica count",
		Note: fmt.Sprintf("%d tenants x %d deltas on ~%d switches, %d workers/replica; in-process replicas share this host's cores",
			tenants, steps, switches, workers),
		Header: []string{"replicas", "syntheses", "syn/s", "per-replica(syn/s)", "placement"},
	}
	for _, n := range replicaCounts {
		served, elapsed, placement, err := runShardedLoad(loads, n, workers)
		if err != nil {
			return nil, fmt.Errorf("bench: shard n=%d: %w", n, err)
		}
		synPerSec := float64(served) / elapsed.Seconds()
		t.Add(n, served, synPerSec, synPerSec/float64(n), placement)
	}
	return t, nil
}

// runShardedLoad serves the load through a router over n fresh replicas
// and reports syntheses served, wall time, and the tenant placement
// spread ("a+b+..." per replica).
func runShardedLoad(loads []*TenantLoad, n, workers int) (int, time.Duration, string, error) {
	replicas := make([]*server.Pool, n)
	urls := make([]string, n)
	var servers []*httptest.Server
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, p := range replicas {
			if p != nil {
				_ = p.Close(context.Background())
			}
		}
	}()
	for i := range replicas {
		replicas[i] = server.NewPool(server.PoolOptions{Workers: workers, MaxSessions: len(loads) + 1})
		ts := httptest.NewServer(server.NewHandler(replicas[i]))
		servers = append(servers, ts)
		urls[i] = ts.URL
	}
	lb, err := server.NewLB(urls, 0)
	if err != nil {
		return 0, 0, "", err
	}
	front := httptest.NewServer(lb.Handler())
	servers = append(servers, front)

	// Register every tenant through the router, then stream each
	// tenant's deltas as one duplex synthesize exchange, all tenants
	// concurrently — the measured region is pure serving.
	ids := make([]string, len(loads))
	bodies := make([]string, len(loads))
	for i, tl := range loads {
		spec, err := json.Marshal(tl.Spec)
		if err != nil {
			return 0, 0, "", err
		}
		resp, err := http.Post(front.URL+"/v1/tenants", "application/json", strings.NewReader(string(spec)))
		if err != nil {
			return 0, 0, "", err
		}
		var info server.TenantInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode >= 300 {
			return 0, 0, "", fmt.Errorf("register %d: status %d: %v", i, resp.StatusCode, err)
		}
		ids[i] = info.ID
		var sb strings.Builder
		for di := range tl.Deltas {
			line, err := json.Marshal(&tl.Deltas[di])
			if err != nil {
				return 0, 0, "", err
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		bodies[i] = sb.String()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		served   int
		firstErr error
	)
	start := time.Now()
	for i := range loads {
		wg.Add(1)
		go func(id, body string) {
			defer wg.Done()
			n, err := streamTenant(front.URL, id, body)
			mu.Lock()
			served += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(ids[i], bodies[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, "", firstErr
	}

	var placement []string
	for _, p := range replicas {
		placement = append(placement, fmt.Sprint(p.Metrics().Value("netupdate_pool_tenants")))
	}
	return served, elapsed, strings.Join(placement, "+"), nil
}

// streamTenant posts one tenant's whole delta sequence as a single
// synthesize stream and counts the answered lines; an in-band error
// line other than infeasibility fails the run.
func streamTenant(front, id, body string) (int, error) {
	resp, err := http.Post(front+"/v1/tenants/"+id+"/synthesize",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("tenant %s: status %d", id, resp.StatusCode)
	}
	served := 0
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for scanner.Scan() {
		var r server.Result
		if err := json.Unmarshal(scanner.Bytes(), &r); err != nil {
			return served, fmt.Errorf("tenant %s: bad result line: %w", id, err)
		}
		switch r.Result {
		case "plan", "impossible":
			served++
		default:
			return served, fmt.Errorf("tenant %s: %s: %s", id, r.Result, r.Error)
		}
	}
	return served, scanner.Err()
}
