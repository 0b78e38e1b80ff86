package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark invocation reports: the last line of
// standard output is this object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstFail string
	notes     []string
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (the smoke test holds the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, defined on
// every workload. An op is one synthesize request (serving) or one CLI
// invocation (oneshot-large).
var endToEnd = []metricDef{
	{"setup_s", "s"},              // serving: spawn -> end of warm-up; oneshot: generate and write the corpus
	{"throughput_rps", "1/s"},     // timed ops / timed wall
	{"latency_p50_ms", "ms"},      // client-observed per-op latency
	{"latency_p90_ms", "ms"},      // p90, not p99: the highest percentile that stayed steady A/A
	{"cpu_ms_per_req", "ms"},      // user+sys CPU of the program's processes / ops
	{"peak_rss_mb", "MB"},         // daemon VmHWM at teardown, or the largest CLI child
	{"plan_waits", "count"},       // waits kept after wait removal, over the fixed quality sample
	{"exec_makespan_simms", "ms"}, // simulated decentralized completion time, over the deep-checked sample
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(n int, why string) {
	r.Failed += n
	if r.firstFail == "" && why != "" {
		r.firstFail = why
	}
}

// passSample is one pass's (or CLI cycle's) end-to-end readings, as
// measured, with the host-speed index (measured unit time of the
// reference work over calibNominalUS, see calib.go) in effect around it
// and around its set-up.
type passSample struct {
	setupS, rps, p50, p90, cpuMS, rssMB float64
	index, setupIndex                   float64
}

// fold reports the per-metric median over the passes, time-like metrics
// scaled pass by pass to the baseline host's speed (see calib.go; name
// selects the workload's sensitivity), and notes the measured values
// beside them. q is the run's plan-quality tally.
func (r *result) fold(name string, samples []passSample, q quality) {
	scale := func(index float64) float64 { return math.Pow(index, sensitivity[name]) }
	col := func(f func(passSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	r.notes = append(r.notes, fmt.Sprintf("as measured (host speed index %.3f): setup %.4f s, throughput %.2f 1/s, p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/req",
		col(func(s passSample) float64 { return s.index }),
		col(func(s passSample) float64 { return s.setupS }), col(func(s passSample) float64 { return s.rps }),
		col(func(s passSample) float64 { return s.p50 }), col(func(s passSample) float64 { return s.p90 }),
		col(func(s passSample) float64 { return s.cpuMS })))
	for i, s := range samples {
		r.notes = append(r.notes, fmt.Sprintf("pass %d as measured: index %.3f (set-up %.3f), setup %.4f s, throughput %.2f 1/s, p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/req",
			i, s.index, s.setupIndex, s.setupS, s.rps, s.p50, s.p90, s.cpuMS))
	}
	vals := []float64{
		col(func(s passSample) float64 { return s.setupS / scale(s.setupIndex) }),
		col(func(s passSample) float64 { return s.rps * scale(s.index) }),
		col(func(s passSample) float64 { return s.p50 / scale(s.index) }),
		col(func(s passSample) float64 { return s.p90 / scale(s.index) }),
		col(func(s passSample) float64 { return s.cpuMS / scale(s.index) }),
		col(func(s passSample) float64 { return s.rssMB }),
		float64(q.waits),
		q.makespanMS,
	}
	for i, d := range endToEnd {
		r.set(d.name, d.unit, vals[i])
	}
}

// measure runs one workload untraced and reports the end-to-end metrics.
func measure(e *env, name string, seed int64, sz *sizes, seconds float64) (*result, error) {
	if name == wlOneshot {
		return measureOneshot(e, seed, sz, seconds)
	}
	t0 := time.Now()
	draws, err := generateChecked(name, seed, sz)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	r := &result{}
	var samples []passSample
	var q quality
	var passS, checkS float64
	dur := time.Duration(seconds / float64(sz.passes) * float64(time.Second))
	for pass, w := range draws {
		t0 := time.Now()
		p, err := runServePass(e, w, fmt.Sprintf("%s-%d", name, pass), dur, false)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		q.add(p.check(w, w.deepChecks))
		passS += t1.Sub(t0).Seconds()
		checkS += time.Since(t1).Seconds()
		r.Attempted += p.attempted
		r.fail(p.failed, p.firstFail)
		samples = append(samples, passSample{
			index: p.index, setupIndex: p.setupIndex,
			setupS: p.setupS,
			rps:    float64(p.ops) / p.wallS,
			p50:    percentile(p.lat, 0.50),
			p90:    percentile(p.lat, 0.90),
			cpuMS:  p.daemonCPU / float64(p.ops) * 1e3,
			rssMB:  p.daemonRSS,
		})
		if pass == 0 {
			r.notes = append(r.notes, p.kindNote())
		}
		if share := ratio(p.clientCPU, p.daemonCPU); share > 1.0/3 {
			r.notes = append(r.notes, fmt.Sprintf("pass %d: load generator used %.0f%% of the daemon's CPU (over a third): generator-bound, numbers suspect", pass, share*100))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("run wall: generating inputs %.2f s, passes (spawn to stop) %.2f s, checking answers %.2f s", genS, passS, checkS))
	r.fold(name, samples, q)
	r.Correct = r.Failed == 0
	return r, nil
}

// kindNote breaks the pass's timed ops down by kind of answer (as
// measured): how many, their mean latency, and their share of the summed
// latency.
func (p *servePass) kindNote() string {
	type tally struct {
		n  int
		ms float64
	}
	kinds := map[string]*tally{}
	total := 0.0
	for ti, recs := range p.records {
		for _, rec := range recs[p.warmup[ti]:] {
			if rec.res == nil {
				continue
			}
			kind := rec.res.Result
			if rec.res.Stats != nil && rec.res.Stats.CacheHit {
				kind += "(cached)"
			}
			if kinds[kind] == nil {
				kinds[kind] = &tally{}
			}
			kinds[kind].n++
			kinds[kind].ms += rec.latMS
			total += rec.latMS
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	note := "pass 0 by answer kind:"
	for _, k := range names {
		t := kinds[k]
		note += fmt.Sprintf(" %s n=%d mean %.3f ms (%.0f%% of latency);", k, t.n, t.ms/float64(t.n), ratio(t.ms, total)*100)
	}
	return note
}

// check replays every tenant's log through the answer checker (tenants in
// parallel: they are independent) and counts the pass's failures. The
// first deepChecks plans of every tenant's quality sample are also
// verified prefix by prefix and simulated.
func (p *servePass) check(w *workload, deepChecks int) quality {
	qs := make([]quality, len(w.tenants))
	errs := make([]error, len(w.tenants))
	var wg sync.WaitGroup
	for ti := range w.tenants {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			qs[ti], errs[ti] = checkTenant(w.tenants[ti], p.records[ti], p.warmup[ti], w.qualityOps, deepChecks)
		}(ti)
	}
	wg.Wait()
	var q quality
	for ti, recs := range p.records {
		if errs[ti] != nil {
			p.failed++
			p.firstFail = errs[ti].Error()
		}
		for i := range recs {
			if recs[i].fail != "" {
				p.failed++
				if p.firstFail == "" {
					p.firstFail = fmt.Sprintf("%s op %d: %s", w.tenants[ti].name, i, recs[i].fail)
				}
			}
		}
		q.add(qs[ti])
	}
	return q
}

// setupReps is how often measureOneshot generates and writes the corpus
// to take the median set-up time.
const setupReps = 3

// measureOneshot times corpus set-up setupReps times, then runs whole
// corpus cycles until the duration has elapsed (at least one).
func measureOneshot(e *env, seed int64, sz *sizes, seconds float64) (*result, error) {
	var w *workload
	var paths []string
	var setups, setupIndexes []float64
	for i := 0; i < setupReps; i++ {
		c0 := hostIndex()
		t0 := time.Now()
		draws, err := generateChecked(wlOneshot, seed, sz)
		if err != nil {
			return nil, err
		}
		w = draws[0]
		if paths, err = writeCorpus(e.tmp, w.corpus); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupIndexes = append(setupIndexes, (c0+hostIndex())/2)
	}
	// The reference work is timed between cycles; a cycle's index is the
	// mean of the readings either side of it.
	var cycles [][]cliRun
	var walls, indexes []float64
	begin := time.Now()
	before := hostIndex()
	for len(cycles) == 0 || time.Since(begin).Seconds() < seconds {
		t0 := time.Now()
		cycles = append(cycles, cliCycle(e, w, paths, fmt.Sprintf("%s-%d", wlOneshot, len(cycles)), nil))
		walls = append(walls, time.Since(t0).Seconds())
		after := hostIndex()
		indexes = append(indexes, (before+after)/2)
		before = after
	}
	// The first cycle's answers are checked in full; the programs are
	// deterministic, so every later cycle must print the same bytes.
	q, _ := checkCorpus(w, cycles[0], runtime.NumCPU())
	r := &result{}
	var samples []passSample
	for c, runs := range cycles {
		// Set-up was timed setupReps times, cycles as often as fit: every
		// cycle carries the median set-up so fold's median returns it.
		s := passSample{setupS: median(setups), setupIndex: median(setupIndexes), rps: float64(len(runs)) / walls[c], index: indexes[c]}
		var lat []float64
		for i := range runs {
			if runs[i].fail == "" && !bytes.Equal(runs[i].stdout, cycles[0][i].stdout) {
				runs[i].fail = "output differs from the first cycle's"
			}
			r.Attempted++
			if runs[i].fail != "" {
				r.fail(1, fmt.Sprintf("%s: %s", w.corpus[i].name, runs[i].fail))
			}
			lat = append(lat, runs[i].wallMS)
			s.cpuMS += runs[i].cpuS * 1e3 / float64(len(runs))
			s.rssMB = max(s.rssMB, runs[i].rssMB)
		}
		// A cycle is one invocation each of the corpus's files, fifteen
		// very different sizes: its nearest-rank median is whichever file
		// lands on rank eight, with the files either side of it 15 % away,
		// so the seed's luck with one file moves it by that much. The
		// typical latency reported as p50 is therefore the mean of the
		// middle half of the ranks (seven files of fifteen).
		s.p90 = percentile(lat, 0.90) // sorts lat
		lo := (len(lat) + 2) / 4
		if hi := len(lat) - lo; hi > lo {
			s.p50 = mean(lat[lo:hi])
		} else {
			s.p50 = mean(lat)
		}
		samples = append(samples, s)
	}
	r.fold(wlOneshot, samples, q)
	r.Correct = r.Failed == 0
	return r, nil
}

// checkCorpus judges one cycle's outputs, up to parallel instances at a
// time, and returns the summed quality tally and the in-process synthesis
// time of each instance.
func checkCorpus(w *workload, runs []cliRun, parallel int) (quality, []float64) {
	qs := make([]quality, len(runs))
	synthMS := make([]float64, len(runs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			qs[i], synthMS[i] = checkCLI(w.corpus[i], &runs[i])
		}(i)
	}
	wg.Wait()
	var q quality
	for _, x := range qs {
		q.add(x)
	}
	return q, synthMS
}

// generateChecked generates a workload's draws and, for a pinned seed at
// full scale, refuses inputs whose digest moved. A serving workload has one
// independent draw of its tenants per pass: what a request costs depends
// on the topologies and diamonds drawn, which with a handful of tenants
// left a run's numbers a property of its seed (ten seeds spread 10-18 % on
// serve-large-mixed while ten runs of one seed spread 3-5 %); a run's
// median over passes is over that many draws. oneshot-large has one draw,
// its corpus, which every cycle replays.
func generateChecked(name string, seed int64, sz *sizes) ([]*workload, error) {
	n := sz.passes
	if name == wlOneshot {
		n = 1
	}
	draws := make([]*workload, n)
	h := sha256.New()
	for d := range draws {
		w, err := generate(name, seed, d, sz)
		if err != nil {
			return nil, err
		}
		draws[d] = w
		fmt.Fprintln(h, w.digest)
	}
	if sz == &fullSizes {
		digest := hex.EncodeToString(h.Sum(nil))
		if want, ok := pinnedDigests[seed][name]; ok && want != digest {
			return nil, fmt.Errorf("inputs changed: %s seed %d digest %s, pinned %s (a generator in internal/topology or internal/config moved; re-pin only with a re-measured baseline)", name, seed, digest, want)
		}
	}
	return draws, nil
}
