package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/topology"
)

// StreamWorkload is a precomputed rolling-update walk: one topology, one
// set of class specifications, and the sequence of target configurations,
// so the warm (session) and cold (per-call) runners drive the identical
// stream.
type StreamWorkload struct {
	Topo    *topology.Topology
	Init    *config.Config
	Specs   []config.ClassSpec
	Targets []*config.Config
}

// BuildStreamWorkload carves the standard diamond workload into a
// topology of roughly n switches and random-walks it for the given number
// of steps (one diamond flipped per step). Sizing and the retry-smaller
// placement loop are shared with DiamondWorkload (placePairs), so the
// stream benchmark stays comparable to the synthesis benchmarks.
func BuildStreamWorkload(f Family, n, steps int, prop config.Property, seed int64) (*StreamWorkload, error) {
	topo, err := BuildTopology(f, n)
	if err != nil {
		return nil, err
	}
	var s *config.RollingStream
	if err := placePairs(f, n, func(pairs int) error {
		var perr error
		s, perr = config.RollingUpdates(topo, config.RollingOptions{
			Pairs: pairs, Property: prop, Seed: seed, Steps: steps, FlipsPerStep: 1,
		})
		return perr
	}); err != nil {
		return nil, err
	}
	w := &StreamWorkload{Topo: s.Topo(), Init: s.Init(), Specs: s.Specs()}
	for {
		tgt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		w.Targets = append(w.Targets, tgt)
	}
	return w, nil
}

// RollingStreamCompare measures the long-lived session against the cold
// per-call path on identical rolling streams: total wall time and heap
// allocations per synthesis (runtime.MemStats deltas around each run).
// This is the steady-state controller workload the session layer exists
// for; the cold column pays structure building, label interning, and
// closure expansion on every synthesis, the warm column only on the
// first.
func RollingStreamCompare(sizes []int, steps int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Rolling-update stream: warm session vs cold per-call synthesis",
		Note:  fmt.Sprintf("small-world reachability diamonds, %d-step random walk, 1 flip/step", steps),
		Header: []string{"workload", "classes", "steps",
			"warm(ms/syn)", "cold(ms/syn)", "speedup", "warm(alloc/syn)", "cold(alloc/syn)"},
	}
	for _, n := range sizes {
		w, err := BuildStreamWorkload(FamilySmallWorld, n, steps, config.Reachability, int64(n)*11)
		if err != nil {
			return nil, err
		}
		opts := core.Options{Timeout: timeout}
		warmMS, warmAllocs, err := runWarmStream(w, opts)
		if err != nil {
			return nil, err
		}
		coldMS, coldAllocs, err := runColdStream(w, opts)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("small-world-%d", n), len(w.Specs), len(w.Targets),
			warmMS, coldMS, fmt.Sprintf("%.2fx", coldMS/warmMS),
			warmAllocs, coldAllocs)
	}
	return t, nil
}

// runWarmStream serves every target from one session, returning
// milliseconds and heap allocations per synthesis (session construction
// included — it amortizes across the stream).
func runWarmStream(w *StreamWorkload, opts core.Options) (float64, int64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sess, err := core.NewSession(w.Topo, w.Init, w.Specs, opts)
	if err != nil {
		return 0, 0, err
	}
	for _, tgt := range w.Targets {
		if _, err := sess.Synthesize(tgt); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(len(w.Targets))
	return elapsed.Seconds() * 1000 / n, int64(m1.Mallocs-m0.Mallocs) / int64(len(w.Targets)), nil
}

// runColdStream synthesizes every consecutive (previous, target) pair
// with a fresh one-shot Synthesize.
func runColdStream(w *StreamWorkload, opts core.Options) (float64, int64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	cur := w.Init
	for _, tgt := range w.Targets {
		sc := &config.Scenario{
			Name: "cold", Topo: w.Topo, Init: cur, Final: tgt, Specs: w.Specs,
		}
		if _, err := core.Synthesize(sc, opts); err != nil {
			return 0, 0, err
		}
		cur = tgt
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(len(w.Targets))
	return elapsed.Seconds() * 1000 / n, int64(m1.Mallocs-m0.Mallocs) / int64(len(w.Targets)), nil
}
