package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

// obsReps is the number of paired (off, on) runs per workload. Pairing
// matters more than repetition: each overhead sample is the ratio of two
// back-to-back runs, so frequency scaling and scheduler drift — which
// move both runs of a pair together — largely cancel, and the median
// pair survives the ones they did not.
const obsReps = 7

// obsMinSyntheses sizes one timed run: the stream is replayed until at
// least this many syntheses ran, keeping each run tens of milliseconds —
// long enough that per-synthesis numbers are not timer noise, short
// enough that a pair stays inside one scheduling regime.
const obsMinSyntheses = 384

// ObsOverheadCompare measures the cost of the observability layer on the
// steady-state rolling-stream workload: the identical warm-session
// stream is served with tracing disabled — the shipping default, where
// every span call is a nil-receiver no-op — and with the per-session
// trace ring enabled (core.Options.Trace). One untimed pass warms the
// process, then obsReps back-to-back (off, on) pairs run; the columns
// report the median run of each and the overhead column the median
// per-pair ratio. The off column uses the same session loop as
// RollingStreamCompare's warm path (and the CI allocs ceiling on
// BenchmarkRollingStream proves the disabled path adds zero
// allocations); the overhead column is the tracing-enabled slowdown,
// which the acceptance bar holds at ≤5%.
func ObsOverheadCompare(sizes []int, steps int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title: "Observability overhead on the warm rolling stream: tracing off vs on",
		Note: fmt.Sprintf("small-world reachability diamonds, %d-step random walk replayed to >=%d syntheses/run; medians over %d paired runs",
			steps, obsMinSyntheses, obsReps),
		Header: []string{"workload", "classes", "steps",
			"off(ms/syn)", "on(ms/syn)", "overhead", "off(alloc/syn)", "on(alloc/syn)", "spans/syn"},
	}
	for _, n := range sizes {
		w, err := BuildStreamWorkload(FamilySmallWorld, n, steps, config.Reachability, int64(n)*11)
		if err != nil {
			return nil, err
		}
		rounds := (obsMinSyntheses + len(w.Targets) - 1) / len(w.Targets)
		off := core.Options{Timeout: timeout}
		on := off
		on.Trace = true

		if _, _, _, err := runObsStream(w, off, rounds); err != nil { // warm-up, untimed
			return nil, err
		}
		var offMS, onMS, ratios []float64
		var offAllocs, onAllocs int64
		var spans float64
		for r := 0; r < obsReps; r++ {
			oms, oallocs, _, err := runObsStream(w, off, rounds)
			if err != nil {
				return nil, err
			}
			nms, nallocs, sp, err := runObsStream(w, on, rounds)
			if err != nil {
				return nil, err
			}
			offMS, onMS = append(offMS, oms), append(onMS, nms)
			ratios = append(ratios, nms/oms)
			offAllocs, onAllocs, spans = oallocs, nallocs, sp
		}
		t.Add(fmt.Sprintf("small-world-%d", n), len(w.Specs), len(w.Targets),
			median(offMS), median(onMS),
			fmt.Sprintf("%+.2f%%", (median(ratios)-1)*100),
			offAllocs, onAllocs, spans)
	}
	return t, nil
}

// median returns the middle value of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// runObsStream serves the target walk rounds times from one warm session
// (round two onward re-approaches the walk from its end, so later rounds
// exercise the steady-state cache-verify path), returning milliseconds
// and heap allocations per synthesis. With tracing enabled it also
// verifies every plan carries its trace snapshot and returns the mean
// span count per synthesis.
func runObsStream(w *StreamWorkload, opts core.Options, rounds int) (float64, int64, float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sess, err := core.NewSession(w.Topo, w.Init, w.Specs, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	spans, total := 0, 0
	for r := 0; r < rounds; r++ {
		for _, tgt := range w.Targets {
			plan, err := sess.Synthesize(tgt)
			if err != nil {
				return 0, 0, 0, err
			}
			total++
			if opts.Trace {
				if plan.Trace == nil {
					return 0, 0, 0, fmt.Errorf("bench: tracing enabled but the plan carries no trace")
				}
				spans += len(plan.Trace.Spans)
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(total)
	return elapsed.Seconds() * 1000 / n, int64(m1.Mallocs-m0.Mallocs) / int64(total),
		float64(spans) / n, nil
}
