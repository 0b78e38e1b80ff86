// Command benchmark is the repository's measurement spine: it builds
// netupdate, netupdated and netupdatelb, generates a named workload's
// inputs from a seed, drives the real programs as subprocesses, checks
// every answer, and prints every metric by name with its unit. See
// README.md for the workloads, the metrics and how they interact.
//
//	go run -C benchmark . -workload serve-small
//	go run -C benchmark . -workload oneshot-large -trace 1
//	go run -C benchmark . -aa
//	go run -C benchmark . -compare out/aa-1.json out/aa-2.json
//
// The last line of standard output is one JSON object
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	aa       bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "the only source of randomness in the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the ladder, the layer probes and a traced pass (Chrome trace written under benchmark/out)")
	flag.BoolVar(&o.smoke, "smoke", false, "seconds-scale sizes (the test's scale); numbers are not comparable with full scale")
	flag.BoolVar(&o.aa, "aa", false, "run the whole suite twice on the same binaries and compare the two sets against the bounds in BENCHMARK.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two saved suite outputs: -compare old.json new.json")
	flag.Parse()
	os.Exit(run(o, flag.Args()))
}

func run(o options, args []string) int {
	if o.compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two suite files")
			return 2
		}
		return compareFiles(args[0], args[1])
	}
	if !o.aa && o.workload == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -workload is required (or -aa, -compare)")
		flag.Usage()
		return 2
	}
	sz := &fullSizes
	if o.smoke {
		sz = &smokeSizes
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer e.close()

	// An interrupt kills every child before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		e.close()
		os.Exit(130)
	}()

	if o.aa {
		return runAA(e, o.seed, sz, o.seconds)
	}
	// The driver asks for one of two modes.
	measureFn := measure
	if o.trace != 0 {
		measureFn = measureLayers
	}
	r, err := measureFn(e, o.workload, o.seed, sz, o.seconds)
	if err != nil {
		killChildren()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	printResult(e, o.workload, o.seed, r)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// hostInfo records where the numbers are taken (the commit is unknown in
// a checkout that is not a git repository).
func hostInfo(root string) string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printResult prints every metric by name with its unit, then the
// attempted/failed tally and any notes.
func printResult(e *env, workload string, seed int64, r *result) {
	fmt.Printf("workload %s seed %d  (%s)\n", workload, seed, e.host)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.firstFail != "" {
		fmt.Printf("  first failure: %s\n", r.firstFail)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}
