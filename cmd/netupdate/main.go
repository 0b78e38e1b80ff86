// Command netupdate synthesizes a correct network update sequence from a
// JSON scenario file (see internal/config.ScenarioFile for the format):
//
//	netupdate -f scenario.json
//	netupdate -f scenario.json -rules -timeout 30s
//	netupdate -f scenario.json -dag
//	netupdate -f scenario.json -verify
//	netupdate -f scenario.json -faults crash=3@1
//	netupdate -f scenario.json -faults crash=3@1 -repair
//	netupdate -f scenario.json -q -cpuprofile cpu.prof -memprofile mem.prof
//
// On success it prints the synthesized command sequence; with -verify it
// only checks the initial and final configurations against the
// specifications. -dag additionally prints the plan's dependency DAG
// (which updates must commit before which, waits as drain-marked edges)
// for decentralized execution.
//
// -faults executes the synthesized plan on the decentralized simulator
// under seeded fault injection (see internal/sim.ParseFaults:
// crash=SW@N, ackloss=P, ackdup=P, installloss=P, seed=N) and reports
// the outcome — a crashed switch or exhausted install retries stall the
// execution with a partial-commit report naming exactly which plan
// nodes took effect. Adding -repair then resynthesizes from that
// partially-committed state (core.Session.Repair, with its 2-simple and
// scoped-two-phase fallback ladder) and executes the repair plan to
// completion.
//
// With -stream the command becomes a long-lived synthesis service: it
// reads a JSONL scenario stream from stdin (a header describing the
// topology, classes, and initial routes, then one reroute delta per line
// — see internal/config.StreamHeader) and emits one JSON plan line per
// delta on stdout, keeping the synthesis session warm between targets:
//
//	netupdate -stream < stream.jsonl
//	netupdate -stream -snapshot-dir state < stream.jsonl
//
// -snapshot-dir carries the stream's tenant across runs as the daemon's
// -snapshot-dir does: on exit the tenant's image (its configuration and
// its plan cache of plans and infeasibility verdicts, see
// internal/core.PlanCache) is written there atomically, and a later run
// whose header registers the same tenant resumes from it — at the
// configuration the last run left, with repeat instances served by
// replay-verification instead of a fresh search.
//
// Stream mode is a thin stdin/stdout client of the internal/server pool
// — the same serving layer, wire format, and admission control as the
// netupdated daemon. SIGINT/SIGTERM shut it down gracefully: input stops,
// the in-flight synthesis finishes, and its plan line is flushed before
// exit.
//
// With -connect the stream is served by remote netupdated replicas
// instead of an in-process pool:
//
//	netupdate -stream -connect http://host:8080 < stream.jsonl
//	netupdate -stream -connect http://h1:8080,http://h2:8080 < stream.jsonl
//
// Given several URLs the client shards itself: it places its tenant on
// the same consistent-hash ring the netupdatelb router uses (so routed
// and direct clients agree on placement) and streams straight to the
// owner replica, skipping the proxy hop. Warm state then lives
// server-side; -snapshot-dir cannot be combined with -connect.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"netupdate/internal/atomicio"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/lb"
	"netupdate/internal/obs"
	"netupdate/internal/server"
	"netupdate/internal/sim"
	"netupdate/internal/tenantspec"
)

// flags is the parsed command line: the engine options (declared by
// core.Options itself) plus how long the searches may take and what this
// command does with the plan.
type flags struct {
	opts                                         core.Options
	timeout                                      time.Duration
	file, faults, snapshotDir, connect, traceOut string
	cpuProfile, memProfile                       string
	stream, showDAG, verify, repair, quiet       bool
}

func main() {
	var f flags
	f.opts.RegisterFlags(flag.CommandLine)
	flag.DurationVar(&f.timeout, "timeout", 10*time.Minute, "time limit of each search (the synthesis, the repair, each -stream delta), zero for none")
	flag.StringVar(&f.file, "f", "", "scenario JSON file (required unless -stream)")
	flag.BoolVar(&f.stream, "stream", false, "serve a JSONL scenario stream from stdin, emitting JSON plan lines")
	flag.BoolVar(&f.showDAG, "dag", false, "print the plan's dependency DAG (per-step predecessors, drain edges)")
	flag.BoolVar(&f.verify, "verify", false, "only verify the endpoint configurations")
	flag.StringVar(&f.faults, "faults", "", "execute the plan under injected faults, e.g. crash=3@1,ackloss=0.2,seed=42")
	flag.BoolVar(&f.repair, "repair", false, "after a stalled -faults execution, resynthesize from the partially-committed state and finish the update")
	flag.StringVar(&f.snapshotDir, "snapshot-dir", "", "with -stream: write the tenant's image here on exit and resume from it when the same header registers again")
	flag.StringVar(&f.connect, "connect", "", "with -stream: serve via remote netupdated replica(s), comma-separated base URLs; several shard client-side by tenant fingerprint")
	flag.StringVar(&f.traceOut, "trace-out", "", "record a synthesis trace and write it to this file: Chrome trace-event JSON (load via chrome://tracing), or span JSONL when the path ends in .jsonl")
	flag.BoolVar(&f.quiet, "q", false, "suppress statistics")
	flag.StringVar(&f.cpuProfile, "cpuprofile", "", "diagnostic: write a CPU profile of the whole run to this file (go tool pprof)")
	flag.StringVar(&f.memProfile, "memprofile", "", "diagnostic: write a heap profile, taken when the run ends, to this file")
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "netupdate: "+msg)
		os.Exit(2)
	}
	serve := run
	switch {
	case f.repair && f.faults == "":
		usage("-repair recovers a stalled -faults execution; it requires -faults")
	case f.faults != "" && f.verify:
		usage("-faults executes the synthesized plan; it cannot be combined with -verify")
	case f.stream && (f.file != "" || f.verify || f.faults != ""):
		usage("-stream reads from stdin and synthesizes every delta; it cannot be combined with -f, -verify, or -faults")
	case f.stream && f.traceOut != "":
		usage("-trace-out records one-shot syntheses; in -stream mode request traces ride on the result lines (daemon ?trace=1)")
	case f.stream && f.connect != "" && f.snapshotDir != "":
		usage("with -connect the replica owns the warm state; -snapshot-dir cannot be combined with it")
	case f.stream && f.connect != "":
		serve = func(f *flags) error { return runStreamRemote(f, os.Stdin, os.Stdout) }
	case f.stream:
		serve = runStream
	case f.connect != "":
		usage("-connect streams to a remote replica; it requires -stream")
	case f.snapshotDir != "":
		usage("-snapshot-dir persists the stream's tenant; it requires -stream")
	case f.file == "":
		fmt.Fprintln(os.Stderr, "netupdate: -f scenario.json is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := profiled(&f, serve); err != nil {
		fmt.Fprintf(os.Stderr, "netupdate: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs serve under the profiles -cpuprofile and -memprofile ask
// for. They observe the real one-shot binary on a scenario file — the
// process the benchmark's oneshot-large workload times — and change
// nothing it computes.
func profiled(f *flags, serve func(*flags) error) (err error) {
	if f.cpuProfile != "" {
		out, cerr := os.Create(f.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(out); cerr != nil {
			out.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, out.Close())
		}()
	}
	err = serve(f)
	if f.memProfile != "" {
		err = errors.Join(err, writeHeapProfile(f.memProfile))
	}
	return err
}

func writeHeapProfile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile reports as of the last collection
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func run(f *flags) error {
	file, err := os.Open(f.file)
	if err != nil {
		return err
	}
	defer file.Close()
	sc, err := config.LoadScenario(file)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %q: %d switches, %d classes, %d updating\n",
		sc.Name, sc.Topo.NumSwitches(), len(sc.Specs), len(sc.UpdatingSwitches()))
	if f.verify {
		fmt.Println("endpoint configurations verified (paths are loop-free and delivered)")
		return nil
	}
	ctx, cancel := f.searchContext()
	defer cancel()
	// -repair replans from mid-execution state and -trace-out records a
	// session's run (a one-shot synthesis records no trace): both need the
	// session form of the engine; a plain synthesis produces the identical
	// plan.
	var sess *core.Session
	var plan *core.Plan
	if f.repair || f.traceOut != "" {
		start := time.Now()
		sess, err = core.NewSession(sc.Topo, sc.Init, sc.Specs, f.opts)
		if err == nil {
			plan, err = sess.SynthesizeContext(ctx, sc.Final)
		}
		if err == nil {
			// As a one-shot synthesis reports it: structure construction
			// counts, so the stats line does not depend on the path.
			plan.Stats.Elapsed = time.Since(start)
		}
	} else {
		plan, err = core.SynthesizeWith(ctx, sc, f.opts, core.SessionResources{})
	}
	if errors.Is(err, core.ErrNoOrdering) {
		fmt.Println("result: IMPOSSIBLE — no correct update ordering exists at this granularity")
		if !f.opts.RuleGranularity {
			fmt.Println("hint: retry with -rules (rule granularity) or -2simple (two updates per switch)")
		}
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Println("result: update sequence found")
	for i, s := range plan.Steps {
		fmt.Printf("  %2d. %s\n", i+1, s)
	}
	if f.showDAG && plan.DAG != nil {
		printDAG(plan)
	}
	if !f.quiet {
		st := plan.Stats
		fmt.Printf("stats: %d units in %d component(s), %d checks (%d skipped), %d cex learned, %d pruned, waits %d -> %d, dag %dx%d, %.3fs\n",
			st.Units, st.Components, st.Checks, st.ClassSkips, st.CexLearned, st.WrongPruned+st.VisitedPruned,
			st.WaitsBefore, st.WaitsAfter, st.DAGDepth, st.DAGWidth, st.Elapsed.Seconds())
	}
	var traces []*obs.TraceData
	if plan.Trace != nil {
		traces = append(traces, plan.Trace)
	}
	if f.faults != "" {
		if err := executeFaults(f, sc, plan, sess, &traces); err != nil {
			return err
		}
	}
	if f.traceOut != "" {
		if err := writeTraceFile(f.traceOut, traces); err != nil {
			return err
		}
		fmt.Printf("trace: %d span(s) in %d track(s) written to %s\n", traceSpanCount(traces), len(traces), f.traceOut)
	}
	return nil
}

// searchContext bounds one search, the synthesis or the repair, by
// -timeout; each gets the whole budget. Under -trace-out it asks for the
// search's trace.
func (f *flags) searchContext() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if f.traceOut != "" {
		ctx = obs.WithTracing(ctx)
	}
	if f.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, f.timeout)
}

// traceSpanCount totals the spans across the recorded tracks.
func traceSpanCount(traces []*obs.TraceData) int {
	n := 0
	for _, d := range traces {
		n += len(d.Spans)
	}
	return n
}

// writeTraceFile renders the recorded tracks — the synthesis trace plus,
// under -faults, the simulated executions and the repair — as one Chrome
// trace-event file (each track its own pid), or as span JSONL when the
// path ends in .jsonl.
func writeTraceFile(path string, traces []*obs.TraceData) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".jsonl") {
			for _, d := range traces {
				if err := d.WriteJSONL(w); err != nil {
					return err
				}
			}
			return nil
		}
		return obs.WriteChrome(w, traces...)
	})
}

// executeFaults runs the synthesized plan on the decentralized DAG
// executor under the parsed fault injection and reports the outcome.
// When the execution stalls and -repair asks for it, it
// resynthesizes from the partially-committed state via the repair
// ladder and executes the repair plan from there — fault-free, the
// transient-failure recovery story (a permanently dead switch would
// instead get a superseding target via Repair's newTarget).
func executeFaults(f *flags, sc *config.Scenario, plan *core.Plan, sess *core.Session, traces *[]*obs.TraceData) error {
	faults, err := sim.ParseFaults(f.faults)
	if err != nil {
		return err
	}
	classes := make([]config.Class, len(sc.Specs))
	for i, cs := range sc.Specs {
		classes[i] = cs.Class
	}
	// execute runs a plan on the DAG executor; under -trace-out the
	// execution is recorded as a trace track of its own.
	execute := func(track string, from *config.Config, plan *core.Plan, p sim.Params) *sim.Result {
		if f.traceOut != "" {
			p.Trace = obs.NewTrace(0)
			defer func() {
				d := p.Trace.Snapshot()
				d.RequestID = track
				*traces = append(*traces, d)
			}()
		}
		return sim.RunPlanDAG(sc.Topo, from, plan, classes, p)
	}
	res := execute("execution", sc.Init, plan, sim.Params{Faults: faults})
	n := len(plan.Updates())
	fmt.Printf("execution: %d/%d nodes committed, %d/%d probes delivered (%d lost), %d install retries, %d acks lost\n",
		len(res.Committed), n, res.Delivered, res.Sent, res.Lost, res.InstallRetries, res.AcksLost)
	if !res.Stalled {
		fmt.Printf("execution complete at %v\n", res.CompleteAt)
		return nil
	}
	fmt.Printf("execution STALLED: committed nodes %v\n", res.Committed)
	if !f.repair {
		fmt.Println("hint: rerun with -repair to resynthesize from the partially-committed state")
		return nil
	}

	ctx, cancel := f.searchContext()
	defer cancel()
	rep, err := sess.RepairContext(ctx, res.Committed, nil)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	if rep.Trace != nil {
		*traces = append(*traces, rep.Trace)
	}
	fmt.Println("repair: update sequence found from the partially-committed state")
	for i, s := range rep.Steps {
		fmt.Printf("  %2d. %s\n", i+1, s)
	}
	if st := rep.Stats; !f.quiet && (st.EscalatedComponents > 0 || st.TwoPhaseComponents > 0) {
		fmt.Printf("repair: fallback ladder engaged (%d component(s) escalated to 2-simple, %d scoped two-phase)\n",
			st.EscalatedComponents, st.TwoPhaseComponents)
	}
	res2 := execute("repair-execution", plan.ConfigAfter(sc.Init, res.Committed), rep, sim.Params{})
	fmt.Printf("repair executed: %d/%d probes delivered (%d lost), update complete at %v\n",
		res2.Delivered, res2.Sent, res2.Lost, res2.CompleteAt)
	return nil
}

// printDAG renders the dependency-DAG form of the plan: one line per
// update node with the predecessor nodes that must commit first; drain
// predecessors (whose pre-commit traffic must also leave the network) are
// marked with '!'. Any commit order respecting these edges is
// trace-equivalent to the sequential plan above.
func printDAG(plan *core.Plan) {
	d := plan.DAG
	fmt.Printf("dependency DAG: depth %d, width %d, %d drain edge(s)\n",
		d.Depth, d.Width, d.DrainEdges())
	ups := plan.Updates()
	for j, st := range ups {
		fmt.Printf("  n%-2d %-24s after:", j, st.String())
		if len(d.Preds[j]) == 0 {
			fmt.Print(" (none)")
		}
		for _, i := range d.Preds[j] {
			mark := ""
			for _, dr := range d.Drain[j] {
				if dr == i {
					mark = "!"
				}
			}
			fmt.Printf(" n%d%s", i, mark)
		}
		fmt.Println()
	}
}

// runStream serves the stdin JSONL stream as a client of a single-tenant
// internal/server pool: the stream header registers the tenant, every
// delta is synthesized through the pool's warm session, and one JSON
// result line (the daemon's wire format, internal/server.Result) is
// written and flushed per delta, so an interactive client can ack a plan
// before it closes stdin. Bad deltas do not kill the stream: semantically
// invalid ones (config.ErrBadDelta) and infeasible or violating targets
// are reported — with their input line — and skipped. Only JSON decode
// errors, after which the stream position is unreliable, are terminal.
// SIGINT/SIGTERM stop input, finish the in-flight synthesis, and flush
// its result line before exiting.
func runStream(f *flags) error {
	pool := server.NewPool(server.PoolOptions{
		Workers:     1, // one tenant, single-flight: more would idle
		MaxSessions: 1,
		QueueDepth:  1,
		SnapshotDir: f.snapshotDir,
		// The in-flight synthesis outlives a signal (ServeStdio), so this
		// is the one bound on each delta's search.
		DefaultTimeout: f.timeout,
	})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// ServeStdio flushes out after every line it answers; this Flush is
	// for a terminal decode-error line, which ends the stream.
	out := bufio.NewWriter(os.Stdout)
	err := server.ServeStdio(ctx, os.Stdin, out, os.Stderr, pool, f.opts, f.quiet)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if cerr := pool.Close(closeCtx); err == nil {
		err = cerr
	}
	return err
}

// runStreamRemote serves the stream read from in through remote
// netupdated replicas: the header — decoded as strictly as local -stream
// and the daemon decode it — registers the tenant on the replica the
// shared consistent-hash ring assigns it (identical placement to what a
// netupdatelb router over the same replica list would compute), and the
// remaining lines are streamed as one duplex synthesize exchange, result
// lines copied to out as they arrive.
func runStreamRemote(f *flags, in io.Reader, out io.Writer) error {
	replicas := lb.ParseReplicas(f.connect)
	if len(replicas) == 0 {
		return fmt.Errorf("-connect: no replica URLs")
	}

	var hdr config.StreamHeader
	dec, line, err := tenantspec.Decode(in, &hdr)
	if err != nil {
		return fmt.Errorf("stream header (line %d): %w", line, err)
	}
	spec := &tenantspec.TenantSpec{StreamHeader: hdr, Options: tenantspec.OptionsSpec(f.opts)}
	id, err := spec.Fingerprint()
	if err != nil {
		return err
	}
	owner, _ := lb.NewRing(replicas...).Owner(id)

	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(owner+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("registering with %s: %w", owner, err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("registering with %s: status %d: %s", owner, resp.StatusCode, msg)
	}
	if !f.quiet {
		fmt.Fprintf(os.Stderr, "netupdate: tenant %s on %s (%d replica(s))\n", id, owner, len(replicas))
	}

	// The decoder may have buffered bytes past the header; replay them
	// ahead of the rest of the input as the synthesize request body, each
	// delta's search bounded by -timeout.
	rest := io.MultiReader(dec.Buffered(), in)
	url := owner + "/v1/tenants/" + id + "/synthesize"
	if f.timeout > 0 {
		url += "?timeout=" + f.timeout.String()
	}
	req, err := http.NewRequest(http.MethodPost, url, rest)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("streaming to %s: %w", owner, err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(sresp.Body)
		return fmt.Errorf("streaming to %s: status %d: %s", owner, sresp.StatusCode, msg)
	}
	_, err = io.Copy(out, sresp.Body)
	return err
}
