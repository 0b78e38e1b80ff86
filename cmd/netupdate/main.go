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
//	netupdate -stream -learn-file learned.json < stream.jsonl
//
// -learn-file persists the stream session's plan cache (plans and
// infeasibility verdicts, see internal/core.PlanCache) as a JSON
// snapshot: loaded before serving, saved atomically on exit, so repeat
// instances across restarts are served by replay-verification instead of
// a fresh search.
// -no-plan-cache disables the cache entirely.
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
// owner replica, skipping the proxy hop. Learning then lives server-side;
// -learn-file cannot be combined with -connect.
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
	"netupdate/internal/obs"
	"netupdate/internal/server"
	"netupdate/internal/sim"
)

// flags is the parsed command line: the engine options (declared by
// core.Options itself) plus what this command does with the plan.
type flags struct {
	opts                                       core.Options
	file, faults, learnFile, connect, traceOut string
	cpuProfile, memProfile                     string
	stream, showDAG, verify, repair, quiet     bool
}

func main() {
	f := flags{opts: core.Options{Timeout: 10 * time.Minute}}
	f.opts.RegisterFlags(flag.CommandLine)
	flag.StringVar(&f.file, "f", "", "scenario JSON file (required unless -stream)")
	flag.BoolVar(&f.stream, "stream", false, "serve a JSONL scenario stream from stdin, emitting JSON plan lines")
	flag.BoolVar(&f.showDAG, "dag", false, "print the plan's dependency DAG (per-step predecessors, drain edges)")
	flag.BoolVar(&f.verify, "verify", false, "only verify the endpoint configurations")
	flag.StringVar(&f.faults, "faults", "", "execute the plan under injected faults, e.g. crash=3@1,ackloss=0.2,seed=42")
	flag.BoolVar(&f.repair, "repair", false, "after a stalled -faults execution, resynthesize from the partially-committed state and finish the update")
	flag.StringVar(&f.learnFile, "learn-file", "", "with -stream: load the plan cache from this JSON file at startup and save it back on exit")
	flag.StringVar(&f.connect, "connect", "", "with -stream: serve via remote netupdated replica(s), comma-separated base URLs; several shard client-side by tenant fingerprint")
	flag.StringVar(&f.traceOut, "trace-out", "", "record a synthesis trace and write it to this file: Chrome trace-event JSON (load via chrome://tracing), or span JSONL when the path ends in .jsonl")
	flag.BoolVar(&f.quiet, "q", false, "suppress statistics")
	flag.StringVar(&f.cpuProfile, "cpuprofile", "", "diagnostic: write a CPU profile of the whole run to this file (go tool pprof)")
	flag.StringVar(&f.memProfile, "memprofile", "", "diagnostic: write a heap profile, taken when the run ends, to this file")
	flag.Parse()
	f.opts.Trace = f.traceOut != ""

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
	case f.stream && f.connect != "" && f.learnFile != "":
		usage("with -connect the replica owns the plan cache; -learn-file cannot be combined with it")
	case f.stream && f.connect != "":
		serve = runStreamRemote
	case f.stream:
		serve = runStream
	case f.connect != "":
		usage("-connect streams to a remote replica; it requires -stream")
	case f.learnFile != "":
		usage("-learn-file persists the stream session's plan cache; it requires -stream")
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
	// -repair replans from mid-execution state, which needs the session
	// form of the engine; a plain synthesis produces the identical plan.
	var sess *core.Session
	var plan *core.Plan
	if f.repair {
		sess, err = core.NewSession(sc.Topo, sc.Init, sc.Specs, f.opts)
		if err == nil {
			plan, err = sess.Synthesize(sc.Final)
		}
	} else {
		plan, err = core.Synthesize(sc, f.opts)
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
// When the execution stalls and a session was opened (-repair), it
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
			p.Trace.SetRequestID(track)
			defer func() { *traces = append(*traces, p.Trace.Snapshot()) }()
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
	if sess == nil {
		fmt.Println("hint: rerun with -repair to resynthesize from the partially-committed state")
		return nil
	}

	rep, err := sess.Repair(res.Committed, nil)
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
// emitted per delta. Bad deltas do not kill the stream: semantically
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
	})
	if f.learnFile != "" {
		if err := pool.LoadLearningFile(f.learnFile); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
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
	if f.learnFile != "" {
		if serr := pool.SaveLearningFile(f.learnFile); err == nil {
			err = serr
		}
	}
	return err
}

// runStreamRemote serves the stdin stream through remote netupdated
// replicas: the header registers the tenant on the replica the shared
// consistent-hash ring assigns it (identical placement to what a
// netupdatelb router over the same replica list would compute), and the
// remaining stdin lines are streamed as one duplex synthesize exchange,
// result lines copied to stdout as they arrive.
func runStreamRemote(f *flags) error {
	var replicas []string
	for _, u := range strings.Split(f.connect, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicas = append(replicas, strings.TrimRight(u, "/"))
		}
	}
	if len(replicas) == 0 {
		return fmt.Errorf("-connect: no replica URLs")
	}

	dec := json.NewDecoder(os.Stdin)
	var hdr config.StreamHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	spec := &server.TenantSpec{StreamHeader: hdr, Options: server.OptionsSpec(f.opts)}
	id, err := spec.Fingerprint()
	if err != nil {
		return err
	}
	ring := server.NewRing(0)
	for _, r := range replicas {
		ring.Add(r)
	}
	owner, _ := ring.Owner(id)

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
	// ahead of the rest of stdin as the synthesize request body.
	rest := io.MultiReader(dec.Buffered(), os.Stdin)
	req, err := http.NewRequest(http.MethodPost, owner+"/v1/tenants/"+id+"/synthesize", rest)
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
	_, err = io.Copy(os.Stdout, sresp.Body)
	return err
}
