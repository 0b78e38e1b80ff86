// Command netupdated is the multi-tenant synthesis daemon: it serves the
// warm-session pool of internal/server over HTTP.
//
//	netupdated -addr :8080
//	netupdated -addr :8080 -workers 8 -max-sessions 128 -queue 16 -timeout 30s
//	netupdated -addr :8080 -learn-file /var/lib/netupdate/learned.json
//	netupdated -addr :8080 -snapshot-dir /var/lib/netupdate/snapshots
//
// Endpoints (see internal/server for the wire format):
//
//	POST /v1/tenants                   register a scenario, returns {"id": ...}
//	POST /v1/tenants/{id}/synthesize   JSONL deltas in, JSONL plan lines out
//	GET  /v1/tenants/{id}/stats        per-tenant serving summary
//	GET  /v1/tenants/{id}/snapshot     export the tenant's warm session (binary)
//	PUT  /v1/tenants/{id}/snapshot     install a warm session (tenant migration)
//	GET  /metrics                      pool/queue/latency counters
//	GET  /healthz                      liveness
//
// Every plan line carries a "dag" field — the plan's dependency DAG
// (per-step predecessor indexes, drain-marked edges, depth/width) — so
// clients can execute the update decentralized: any commit order that
// respects the edges (waiting out drain edges) is trace-equivalent to the
// sequential step list.
//
// Executing clients can post plan-step acknowledgements into the same
// synthesize stream: {"ack":{"step":N}} records that DAG node N
// committed (answered with an "acked" line), and {"ack":{"failed":true,
// "committed":[...]}} reports a stalled execution — a dead switch or
// exhausted install retries — with exactly the dependency-closed set of
// nodes that did commit. The pool then repairs the tenant's warm session
// from that partially-committed configuration (core.Session.Repair, with
// its 2-simple and scoped-two-phase fallback ladder) and answers with a
// "repair" plan line from the crash state to the stranded target.
//
// With -snapshot-dir the daemon persists every tenant's warm session on
// drain (one <id>.nuss file, written atomically) and restores it when
// the tenant re-registers after a restart — the process comes back with
// its predecessor's warm state and current configurations instead of
// re-warming every tenant cold. The same snapshot format is what the
// sharding router (cmd/netupdatelb) moves between replicas on ring
// changes.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight syntheses finish (bounded by -drain), and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"netupdate/internal/atomicio"
	"netupdate/internal/obs"
	"netupdate/internal/server"
)

// flags is the parsed command line.
type flags struct {
	pool                                    server.PoolOptions
	drain                                   time.Duration
	addr, learnFile, snapshotDir, pprofAddr string
}

func main() {
	var f flags
	flag.StringVar(&f.addr, "addr", ":8080", "listen address")
	flag.IntVar(&f.pool.Workers, "workers", 0, "global synthesis worker budget: 0 = one per CPU")
	flag.IntVar(&f.pool.MaxSessions, "max-sessions", server.DefaultMaxSessions, "warm sessions held at once (LRU eviction beyond; negative = unbounded)")
	flag.IntVar(&f.pool.QueueDepth, "queue", server.DefaultQueueDepth, "per-tenant outstanding-request bound (queue-full load shedding beyond)")
	flag.DurationVar(&f.pool.DefaultTimeout, "timeout", 30*time.Second, "default per-request deadline when the client sets none (0 = none)")
	flag.DurationVar(&f.drain, "drain", time.Minute, "shutdown grace for in-flight syntheses")
	flag.StringVar(&f.learnFile, "learn-file", "", "load the shared plan caches from this JSON snapshot at startup and save them back after draining")
	flag.StringVar(&f.snapshotDir, "snapshot-dir", "", "persist per-tenant session snapshots here on drain and restore them when tenants re-register")
	flag.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()
	if err := run(&f); err != nil {
		fmt.Fprintf(os.Stderr, "netupdated: %v\n", err)
		os.Exit(1)
	}
}

func run(f *flags) error {
	pool := server.NewPool(f.pool)
	if f.learnFile != "" {
		if err := pool.LoadLearningFile(f.learnFile); err != nil {
			return err
		}
	}
	if f.snapshotDir != "" {
		if err := os.MkdirAll(f.snapshotDir, 0o755); err != nil {
			return err
		}
	}
	handler := server.NewHandler(pool)
	if f.snapshotDir != "" {
		handler = restoreOnRegister(pool, handler, f.snapshotDir)
	}
	srv := &http.Server{Addr: f.addr, Handler: handler}

	// Profiling rides on its own opt-in listener so /debug/pprof never
	// shares a port with the client-facing API.
	if f.pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "netupdated: pprof on %s\n", f.pprofAddr)
			if err := http.ListenAndServe(f.pprofAddr, obs.PprofHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "netupdated: pprof: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "netupdated: serving on %s (workers=%d, max-sessions=%d, queue=%d)\n",
			f.addr, int(pool.Metrics().Value("netupdate_pool_workers")), f.pool.MaxSessions, f.pool.QueueDepth)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure etc.
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "netupdated: signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	// Shutdown stops the listener and waits for open requests; closing
	// the pool afterwards catches stragglers Shutdown abandoned.
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := pool.Close(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "netupdated: %v\n", err)
	}
	if f.snapshotDir != "" {
		saveSnapshots(pool, f.snapshotDir)
	}
	if f.learnFile != "" {
		if err := pool.SaveLearningFile(f.learnFile); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "netupdated: drained, bye")
	return nil
}

// saveSnapshots persists every tenant's session snapshot (best effort:
// tenants busy mid-synthesis after the drain grace are skipped).
func saveSnapshots(pool *server.Pool, dir string) {
	for id, img := range pool.SnapshotAll() {
		if err := atomicio.WriteFileBytes(snapshotPath(dir, id), img); err != nil {
			fmt.Fprintf(os.Stderr, "netupdated: snapshot %s: %v\n", id, err)
		}
	}
}

// restoreOnRegister wraps the daemon handler: after a successful tenant
// registration it installs the tenant's persisted snapshot, if one is on
// disk, so a restarted daemon resumes warm exactly where it drained. A
// rejected image (stale format, different spec) is deleted and the
// tenant simply starts cold; the consumed snapshot is removed either way
// so later registrations cannot resurrect an outdated position.
func restoreOnRegister(pool *server.Pool, next http.Handler, dir string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/tenants" {
			next.ServeHTTP(w, r)
			return
		}
		rec := &registerRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		var info server.TenantInfo
		if rec.status >= 300 || json.Unmarshal(rec.body.Bytes(), &info) != nil || info.ID == "" {
			return
		}
		path := snapshotPath(dir, info.ID)
		img, err := os.ReadFile(path)
		if err != nil {
			return // no snapshot for this tenant
		}
		if err := pool.InstallSnapshot(r.Context(), info.ID, img); err != nil {
			fmt.Fprintf(os.Stderr, "netupdated: restoring %s: %v\n", info.ID, err)
		}
		os.Remove(path)
	})
}

// registerRecorder tees the registration response so the wrapper can
// learn the tenant id while the client still receives it unchanged.
type registerRecorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *registerRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *registerRecorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

func snapshotPath(dir, id string) string {
	return filepath.Join(dir, filepath.Base(id)+".nuss")
}
