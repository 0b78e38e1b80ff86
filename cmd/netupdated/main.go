// Command netupdated is the multi-tenant synthesis daemon: it serves the
// warm-session pool of internal/server over HTTP.
//
//	netupdated -addr :8080
//	netupdated -addr :8080 -workers 8 -max-sessions 128 -queue 16 -timeout 30s
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
// With -snapshot-dir the pool writes every tenant's image on drain (one
// <id>.nuss file, written atomically: the current configuration and the
// tenant's plan cache) and installs it when the tenant registers again
// after a restart — the process comes back at its predecessor's
// configurations and with its plans instead of re-warming every tenant
// cold. The same image is what the sharding router (cmd/netupdatelb)
// moves between replicas on ring changes.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight syntheses finish (bounded by -drain), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/server"
)

// flags is the parsed command line.
type flags struct {
	pool            server.PoolOptions
	drain           time.Duration
	addr, pprofAddr string
}

func main() {
	var f flags
	flag.StringVar(&f.addr, "addr", ":8080", "listen address")
	flag.IntVar(&f.pool.Workers, "workers", 0, "global synthesis worker budget: 0 = one per CPU")
	flag.IntVar(&f.pool.MaxSessions, "max-sessions", server.DefaultMaxSessions, "warm sessions held at once (LRU eviction beyond; negative = unbounded)")
	flag.IntVar(&f.pool.QueueDepth, "queue", server.DefaultQueueDepth, "per-tenant outstanding-request bound (queue-full load shedding beyond)")
	flag.DurationVar(&f.pool.DefaultTimeout, "timeout", 30*time.Second, "default per-request deadline when the client sets none (0 = none)")
	flag.DurationVar(&f.drain, "drain", time.Minute, "shutdown grace for in-flight syntheses")
	flag.StringVar(&f.pool.SnapshotDir, "snapshot-dir", "", "write every tenant's image here on drain and install it when the tenant registers again")
	flag.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()
	if err := run(&f); err != nil {
		fmt.Fprintf(os.Stderr, "netupdated: %v\n", err)
		os.Exit(1)
	}
}

func run(f *flags) error {
	pool := server.NewPool(f.pool)
	srv := &http.Server{Addr: f.addr, Handler: server.NewHandler(pool)}

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
	fmt.Fprintln(os.Stderr, "netupdated: drained, bye")
	return nil
}
