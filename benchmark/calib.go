package main

// Host-speed normalisation. The sandbox this suite runs in is a shared
// host whose speed drifts by tens of percent over minutes and seconds (the
// reference work below took 82 to 290 us per unit within one afternoon
// with nothing else running in the VM). What moves is the memory system,
// not the cores: across such phases a dependent-load chase over 32 MB
// took 135 to 390 ms while a register-only loop moved by a quarter at
// most, so work slows by as much as it misses the caches. A 12-second run sits
// inside one phase, so medians over its passes cannot remove the drift,
// and two runs minutes apart disagree by more than any bound worth
// setting. Each pass therefore times a fixed unit of reference work before
// its processes start, after its warm-up, and after each of the three
// segments of its timed region (a pass's index is the median of the four
// readings around and inside the region: one reading can catch a burst of
// a few hundred milliseconds that the pass as a whole did not feel), and
// the time-like end-to-end metrics are reported scaled to the speed the
// reference host had when the baseline was taken:
//
//	index               = measured unit time / calibNominalUS
//	reported time       = measured time / index^sensitivity
//	reported throughput = measured throughput * index^sensitivity
//
// sensitivity is how strongly a workload's times follow the reference
// work's (the log-log slope of one against the other, pass by pass):
// fitted once per workload, below, and the same for all its time-like
// metrics. It is a first-order correction, not an exact one, and stalls
// that leave CPU time per request unchanged pass through it. The
// reference work is benchmark code (encoding/json, maps, allocation), so
// no change to the programs can move it. Per-layer metrics are reported
// as measured, next to client.host_speed_index, the factor that was in
// effect.

import (
	"encoding/json"
	"sort"
	"time"
)

// calibWork is one unit of reference work shaped like the programs' own:
// JSON encode and decode of a result-sized document, map inserts and
// lookups, and the garbage all of that makes.
func calibWork() int {
	type step struct {
		Op     string `json:"op"`
		Switch int    `json:"switch"`
	}
	doc := struct {
		Seq   int            `json:"seq"`
		Steps []step         `json:"steps"`
		Preds [][]int        `json:"preds"`
		Index map[string]int `json:"index"`
	}{Seq: 1, Index: map[string]int{}}
	for i := 0; i < 24; i++ {
		doc.Steps = append(doc.Steps, step{Op: "update", Switch: i * 7})
		doc.Preds = append(doc.Preds, []int{i / 2, i / 3})
		doc.Index[string(rune('a'+i))+"x"] = i
	}
	b, _ := json.Marshal(&doc)
	var back map[string]any
	_ = json.Unmarshal(b, &back)
	seen := map[int]int{}
	x := uint64(len(b))
	for i := 0; i < 2000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seen[int(x%509)]++
	}
	return len(back) + len(seen)
}

// sensitivity per workload. serve-large-mixed, serve-small and
// oneshot-large follow the reference work one for one (ten runs of
// serve-large-mixed on one seed while the index moved between 1.0 and 1.7:
// throughput as measured 300-500 1/s, scaled 500-570, spread 3 %).
// serve-churn follows it less: a request there is a snapshot written and
// one read back, sequential passes over memory that a contended cache
// hurts less than it hurts search. Between a quiet phase and a noisy one
// (index 0.97 and 1.6) its throughput as measured went from 90 to 60 1/s,
// slope 0.8; two A/A sets at 1.31 and 1.61 gave 0.76; 72 passes on one
// seed across a quarter of an hour 0.7. (Within one noisy phase the slope
// reads lower, 0.4 over 40 passes: short samples of the index are a noisy
// reading of it, which flattens a fit.) Scaled one for one,
// ten seeds of serve-churn spread 12-14 % in a noisy phase.
var sensitivity = map[string]float64{wlOneshot: 1, wlSmall: 1, wlMixed: 1, wlChurn: 0.7}

// calibNominalUS is the unit time of the reference work on the baseline
// host (2 vCPU Xeon @ 2.1 GHz, go1.24) in a quiet phase. On such a host
// reported and measured values coincide.
const calibNominalUS = 100.0

// hostIndex times the reference work (the median over ten short batches
// of the time one unit takes, about 100 ms in all) and returns it
// as a multiple of the baseline host's unit time: above 1 the host is
// slower than the baseline was.
func hostIndex() float64 {
	var batches []float64
	for b := 0; b < 10; b++ {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			calibWork()
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/1e3/100)
	}
	sort.Float64s(batches)
	return batches[len(batches)/2] / calibNominalUS
}
