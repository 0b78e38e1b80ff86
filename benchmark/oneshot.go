package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

// The one-shot path: each scenario file is one `netupdate -f file -q`
// subprocess, run sequentially. Nothing is warm: every invocation pays
// process start, scenario decode, kripke.Build, initial labeling, search
// and wait removal.

// cliRun is one netupdate invocation as the benchmark saw it.
type cliRun struct {
	wallMS, cpuS, rssMB float64
	startNS             int64 // offset from the cycle's epoch
	stdout              []byte
	fail                string
}

// writeCorpus writes every scenario file under dir and returns the paths.
func writeCorpus(dir string, corpus []*instance) ([]string, error) {
	paths := make([]string, len(corpus))
	for i, in := range corpus {
		paths[i] = filepath.Join(dir, in.name+".json")
		if err := os.WriteFile(paths[i], in.file, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// runCLI runs one synthesis subprocess to completion.
func runCLI(e *env, logPath, scenario string, epoch time.Time, extra ...string) cliRun {
	var out bytes.Buffer
	args := append([]string{"-f", scenario, "-q"}, extra...)
	t0 := time.Now()
	c, err := start(logPath, &out, e.program("netupdate"), args...)
	if err != nil {
		return cliRun{fail: err.Error()}
	}
	rss, err := c.wait(opDeadline)
	r := cliRun{
		wallMS:  float64(time.Since(t0).Nanoseconds()) / 1e6,
		startNS: t0.Sub(epoch).Nanoseconds(),
		stdout:  out.Bytes(),
	}
	if err != nil {
		r.fail = err.Error()
		return r
	}
	r.cpuS, r.rssMB = c.cpuSeconds(), rss
	return r
}

// cliCycle runs the whole corpus once, sequentially.
func cliCycle(e *env, w *workload, paths []string, tag string, extra func(i int) []string) []cliRun {
	epoch := time.Now()
	runs := make([]cliRun, len(paths))
	for i, p := range paths {
		var args []string
		if extra != nil {
			args = extra(i)
		}
		runs[i] = runCLI(e, filepath.Join(e.out, fmt.Sprintf("%s-%s-netupdate.log", tag, w.corpus[i].name)), p, epoch, args...)
	}
	return runs
}

// CLI verdict lines (cmd/netupdate).
const (
	cliFound      = "result: update sequence found"
	cliImpossible = "result: IMPOSSIBLE"
)

// checkCLI judges one invocation's output against the generator's label
// and an in-process synthesis of the same file: the printed steps must
// equal the in-process plan line for line, and that plan must pass the
// answer checker. It returns the instance's quality contribution.
func checkCLI(in *instance, run *cliRun) (q quality, synthMS float64) {
	if run.fail != "" {
		return
	}
	sc, err := config.LoadScenario(bytes.NewReader(in.file))
	if err != nil {
		run.fail = "own scenario file: " + err.Error()
		return
	}
	t0 := time.Now()
	plan, err := core.Synthesize(sc, core.Options{})
	synthMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	lines := strings.Split(strings.TrimRight(string(run.stdout), "\n"), "\n")
	if len(lines) < 2 {
		run.fail = fmt.Sprintf("short output %q", run.stdout)
		return
	}
	if !in.feasible {
		switch {
		case !strings.HasPrefix(lines[1], cliImpossible):
			run.fail = fmt.Sprintf("generator labelled the instance infeasible, CLI said %q", lines[1])
		case !errors.Is(err, core.ErrNoOrdering):
			run.fail = fmt.Sprintf("in-process synthesis of an infeasible instance: %v", err)
		}
		return
	}
	if err != nil {
		run.fail = "in-process synthesis: " + err.Error()
		return
	}
	if lines[1] != cliFound {
		run.fail = fmt.Sprintf("generator labelled the instance feasible, CLI said %q", lines[1])
		return
	}
	printed := lines[2:]
	if len(printed) != len(plan.Steps) {
		run.fail = fmt.Sprintf("CLI printed %d steps, in-process plan has %d", len(printed), len(plan.Steps))
		return
	}
	for i, s := range plan.Steps {
		if want := fmt.Sprintf("  %2d. %s", i+1, s); printed[i] != want {
			run.fail = fmt.Sprintf("step %d: CLI printed %q, in-process plan has %q", i+1, printed[i], want)
			return
		}
	}
	if err := checkPlan(sc.Topo, sc.Specs, sc.Init, sc.Final, plan, true); err != nil {
		run.fail = err.Error()
		return
	}
	ms, err := makespanMS(sc.Topo, sc.Specs, sc.Init, plan)
	if err != nil {
		run.fail = err.Error()
		return
	}
	return quality{waits: plan.Waits(), makespanMS: ms, plans: 1, deep: 1}, synthMS
}

// readFileIfExists reads a file a child may not have written (the CLI
// writes no trace for an instance it finds impossible).
func readFileIfExists(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return b, err
}
