package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/server"
	"netupdate/internal/sim"
)

// Per-layer metrics (layer = module name), all taken from outside the
// programs: (a) the ladder's adjacent-rung differences, (b) timed calls
// into each layer's public functions on the workload's own inputs, (c)
// signals the programs already export (core.Stats phase fields, /metrics,
// ?trace=1 span trees). Every metric is reported on every workload: each
// workload's inputs exist in both forms (scenario files and tenants, see
// generate), so each layer can be exercised on them even when the
// workload's own traffic bypasses it. A metric reads 0 where the
// workload's traffic has no such operation (repairs on a one-flip walk).
// Values are as measured: unlike the end-to-end timings they are not
// scaled by client.host_speed_index (calib.go), which is reported so that
// a reader can.
var perLayer = []metricDef{
	{"topology.build_ms", "ms"},
	{"config.header_build_ms", "ms"}, {"config.apply_us", "us"}, {"config.diff_us", "us"}, {"config.scenario_load_ms", "ms"},
	{"ltl.parse_us", "us"},
	{"kripke.build_ms", "ms"}, {"kripke.states", "count"}, {"kripke.rebind_us", "us"}, {"kripke.update_revert_ns", "ns"},
	{"mc.new_incremental_ms", "ms"}, {"mc.check_us", "us"}, {"mc.update_revert_ns", "ns"},
	{"mc.states_labeled", "count"}, {"mc.labels_interned", "count"}, {"mc.extend_hit_ratio", "ratio"},
	{"sat.calls", "count"},
	{"core.new_session_ms", "ms"}, {"core.cold_synthesize_ms", "ms"},
	{"core.synthesize_miss_ms", "ms"}, {"core.synthesize_hit_us", "us"}, {"core.infeasible_memo_us", "us"}, {"core.repair_ms", "ms"},
	{"core.search_ms", "ms"}, {"core.wait_removal_ms", "ms"}, {"core.verify_ms", "ms"}, {"core.rebind_ms", "ms"}, {"core.cache_verify_ms", "ms"},
	{"core.checks", "count"}, {"core.backtracks_per_unit", "ratio"}, {"core.cex_learned", "count"}, {"core.components", "count"},
	{"core.class_skip_ratio", "ratio"}, {"core.cache_hit_ratio", "ratio"}, {"core.cache_verify_failures", "count"},
	{"core.snapshot_ms", "ms"}, {"core.restore_ms", "ms"}, {"core.snapshot_kb", "KiB"}, {"core.allocs_per_synth", "count"},
	{"sim.run_dag_ms", "ms"}, {"sim.p50_commit_simms", "ms"},
	{"server.pool_self_us", "us"}, {"server.register_ms", "ms"}, {"server.wire_encode_us", "us"}, {"server.wire_decode_us", "us"},
	{"server.result_bytes", "B"}, {"server.queue_wait_ms", "ms"}, {"server.evictions", "count"}, {"server.snapshot_restores", "count"},
	{"server.cold_rebuilds", "count"}, {"server.snapshot_restore_ratio", "ratio"}, {"server.restore_ms", "ms"},
	{"server.rejected_queue_full", "count"}, {"server.deadline_expired", "count"}, {"server.failures", "count"},
	{"netupdated.http_self_us", "us"}, {"netupdated.cpu_ms_per_req", "ms"}, {"netupdated.rss_mb", "MB"}, {"netupdated.engine_share_pct", "%"},
	{"netupdatelb.hop_us", "us"}, {"netupdatelb.cpu_ms_per_req", "ms"}, {"netupdatelb.rss_mb", "MB"},
	{"netupdatelb.migration_failures", "count"}, {"netupdatelb.truncated_responses", "count"},
	{"netupdate.cli_self_ms", "ms"}, {"netupdate.corpus_wall_s", "s"},
	{"obs.trace_overhead_pct", "%"}, {"obs.spans_per_req", "count"}, {"obs.spans_dropped", "count"},
	{"client.latency_p99_ms", "ms"}, {"client.cpu_ms_per_req", "ms"}, {"client.samples", "count"}, {"client.host_speed_index", "ratio"},
	{"ladder.session_p50_ms", "ms"}, {"ladder.pool_p50_ms", "ms"}, {"ladder.daemon_p50_ms", "ms"}, {"ladder.lb_p50_ms", "ms"}, {"ladder.ops", "count"},
}

// measureLayers is the traced run: it yields every per-layer metric and a
// Chrome trace under benchmark/out. The duration is split evenly between
// the workload's untraced reference, the same again traced (their
// throughput difference is the tracing overhead), the ladder, and the
// derived-form reference plus layer probes. End-to-end metrics never come
// from here.
func measureLayers(e *env, name string, seed int64, sz *sizes, seconds float64) (*result, error) {
	draws, err := generateChecked(name, seed, sz)
	if err != nil {
		return nil, err
	}
	w := draws[0] // the layers are probed on the first pass's inputs
	tr := newTracer()
	r := &result{}
	m := map[string]float64{}
	share := time.Duration(seconds / 4 * float64(time.Second))
	own, other := share, share/8
	if name == wlOneshot {
		own, other = other, own
	}

	if err := cliLayers(e, w, other, tr, r, m); err != nil {
		return nil, err
	}
	if err := serveLayers(e, w, own, tr, r, m); err != nil {
		return nil, err
	}
	rungs, err := climb(e, w, sz, share, tr)
	if err != nil {
		return nil, err
	}
	ladderLayers(w, rungs, r, m)
	if err := probeLayers(w, sz, tr, m); err != nil {
		return nil, err
	}

	if err := tr.write(filepath.Join(e.out, name+"-trace.json")); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		r.set(d.name, d.unit, v)
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// cliLayers runs the workload's scenario files through the CLI: whole
// cycles untraced for at least the budget, then one cycle with
// -trace-out.
func cliLayers(e *env, w *workload, budget time.Duration, tr *tracer, r *result, m map[string]float64) error {
	paths, err := writeCorpus(e.tmp, w.corpus)
	if err != nil {
		return err
	}
	var cycles [][]cliRun
	var walls []float64
	for begin := time.Now(); len(cycles) == 0 || time.Since(begin) < budget; {
		t0 := time.Now()
		cycles = append(cycles, cliCycle(e, w, paths, w.name+"-cli", nil))
		walls = append(walls, time.Since(t0).Seconds())
		for i, run := range cycles[len(cycles)-1] {
			tr.span(trackCLI, 0, "netupdate -f "+w.corpus[i].name, t0.Add(time.Duration(run.startNS)), time.Duration(run.wallMS*1e6), 0, "")
		}
	}
	t0 := time.Now()
	tracePath := func(i int) string { return filepath.Join(e.tmp, w.corpus[i].name+".trace.jsonl") }
	traced := cliCycle(e, w, paths, w.name+"-cli-traced", func(i int) []string { return []string{"-trace-out", tracePath(i)} })
	tracedWall := time.Since(t0).Seconds()

	// One worker: the in-process synthesis times feed cli_self_ms and
	// must not contend with each other.
	_, synthMS := checkCorpus(w, cycles[0], 1)
	var self, cold []float64
	for i := range w.corpus {
		var walls []float64
		for _, c := range cycles {
			walls = append(walls, c[i].wallMS)
		}
		self = append(self, median(walls)-synthMS[i])
		cold = append(cold, synthMS[i])
	}
	for _, c := range append(cycles, traced) {
		for i := range c {
			r.Attempted++
			if c[i].fail != "" {
				r.fail(1, w.corpus[i].name+": "+c[i].fail)
			}
		}
	}
	m["netupdate.cli_self_ms"] = mean(self)
	m["netupdate.corpus_wall_s"] = median(walls)
	m["core.cold_synthesize_ms"] = mean(cold)
	if w.name == wlOneshot {
		spans := 0
		for i := range traced {
			b, err := readFileIfExists(tracePath(i))
			if err != nil {
				return err
			}
			spans += bytes.Count(b, []byte("\n"))
		}
		m["obs.trace_overhead_pct"] = (tracedWall/median(walls) - 1) * 100
		m["obs.spans_per_req"] = float64(spans) / float64(len(traced))
		m["obs.spans_dropped"] = 0 // the CLI's JSONL export carries no drop count
	}
	return nil
}

// serveLayers runs the workload's tenants through a daemon: one untraced
// pass and one with ?trace=1 and client spans.
func serveLayers(e *env, w *workload, budget time.Duration, tr *tracer, r *result, m map[string]float64) error {
	ref, err := runServePass(e, w, w.name+"-ref", budget, false)
	if err != nil {
		return err
	}
	ref.check(w, 0)
	traced, err := runServePass(e, w, w.name+"-traced", budget, true)
	if err != nil {
		return err
	}
	traced.check(w, 0)
	for _, p := range []*servePass{ref, traced} {
		r.Attempted += p.attempted
		r.fail(p.failed, p.firstFail)
	}

	spans, dropped, reqs, bytesTotal := 0, 0, 0, 0
	for ti, recs := range traced.records {
		for i := range recs[traced.warmup[ti]:] {
			rec := &recs[traced.warmup[ti]+i]
			start, dur := traced.epoch.Add(time.Duration(rec.startNS)), time.Duration(rec.latMS*1e6)
			id := tr.span(trackClient, ti, "POST synthesize:"+rec.op.want, start, dur, 0, rec.reqID)
			if rec.res != nil && rec.res.Trace != nil {
				tr.attach(ti, start, dur, id, rec.res.Trace)
				spans += len(rec.res.Trace.Spans)
				dropped += rec.res.Trace.Dropped
			}
			reqs++
		}
	}
	for ti, recs := range ref.records {
		for _, rec := range recs[ref.warmup[ti]:] {
			bytesTotal += len(rec.body)
		}
	}
	ops := float64(ref.ops)
	dm := ref.daemonM
	m["server.result_bytes"] = float64(bytesTotal) / ops
	m["server.queue_wait_ms"] = ratio(dm["netupdate_queue_wait_seconds_sum"], dm["netupdate_queue_wait_seconds_count"]) * 1e3
	m["server.evictions"] = dm["netupdate_evictions_total"]
	m["server.snapshot_restores"] = dm["netupdate_snapshot_restores_total"]
	m["server.cold_rebuilds"] = dm["netupdate_cold_rebuilds_total"]
	m["server.snapshot_restore_ratio"] = ratio(dm["netupdate_snapshot_restores_total"], dm["netupdate_session_rebuilds_total"])
	m["server.restore_ms"] = ratio(dm["netupdate_snapshot_restore_seconds_sum"], dm["netupdate_snapshot_restore_seconds_count"]) * 1e3
	m["server.rejected_queue_full"] = dm["netupdate_rejected_queue_full_total"]
	m["server.deadline_expired"] = dm["netupdate_deadline_expired_total"]
	m["server.failures"] = dm["netupdate_failures_total"]
	m["netupdated.cpu_ms_per_req"] = ref.daemonCPU / ops * 1e3
	m["netupdated.rss_mb"] = ref.daemonRSS
	// Engine time over the whole pass against the client-seconds it was
	// offered (the counter also covers warm-up, so this reads slightly
	// high on short passes).
	m["netupdated.engine_share_pct"] = dm["netupdate_synthesis_seconds_total"] / ((ref.setupS + ref.wallS) * float64(w.clients)) * 100
	m["client.latency_p99_ms"] = percentile(ref.lat, 0.99)
	m["client.cpu_ms_per_req"] = ref.clientCPU / ops * 1e3
	m["client.samples"] = ops
	m["client.host_speed_index"] = ref.index
	if w.name != wlOneshot {
		m["obs.trace_overhead_pct"] = (ratio(float64(ref.ops)/ref.wallS, float64(traced.ops)/traced.wallS) - 1) * 100
		m["obs.spans_per_req"] = ratio(float64(spans), float64(reqs))
		m["obs.spans_dropped"] = float64(dropped)
	}
	return nil
}

// ladderLayers turns the rungs into layer self times and takes the
// engine's own statistics from the session rung.
func ladderLayers(w *workload, rungs map[string]*rung, r *result, m map[string]float64) {
	for _, name := range rungNames {
		rg := rungs[name]
		r.Attempted += rg.attempted
		r.fail(rg.failed, rg.firstFail)
		m["ladder."+name+"_p50_ms"] = rg.p50
	}
	s, p, d, lb := rungs["session"], rungs["pool"], rungs["daemon"], rungs["lb"]
	m["ladder.ops"] = float64(len(p.lat))
	m["server.pool_self_us"] = (p.p50 - s.p50) * 1e3
	m["netupdated.http_self_us"] = (d.p50 - p.p50) * 1e3
	m["netupdatelb.hop_us"] = (lb.p50 - d.p50) * 1e3
	m["netupdatelb.cpu_ms_per_req"] = ratio(lb.lbCPU, float64(len(lb.lat))) * 1e3
	m["netupdatelb.rss_mb"] = lb.lbRSS
	m["netupdatelb.migration_failures"] = lb.lbM["netupdate_lb_migration_failures_total"]
	m["netupdatelb.truncated_responses"] = float64(lb.truncated)
	m["server.register_ms"] = mean(p.registerMS)
	m["core.new_session_ms"] = mean(s.newSession)
	m["core.snapshot_ms"] = mean(s.snapshotMS)
	m["core.restore_ms"] = mean(s.restoreMS)
	m["core.snapshot_kb"] = mean(s.snapshotKB)
	m["core.allocs_per_synth"] = s.allocs

	// Engine statistics per op kind, from the session rung's timed ops.
	var miss, hit, memo, repair []float64
	var tot core.Stats
	var hits, verifyFailed float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var search, waits, verify, rebind, cacheVerify float64
	for i, st := range s.stats {
		switch {
		case s.wants[i] == wantRepair:
			repair = append(repair, s.lat[i])
		case s.wants[i] == wantImpossible && st.CacheHit:
			memo = append(memo, s.lat[i])
		case s.wants[i] == wantPlan && st.CacheHit:
			hit = append(hit, s.lat[i])
		case s.wants[i] == wantPlan:
			miss = append(miss, s.lat[i])
		}
		if st.CacheHit {
			hits++
		}
		if st.CacheVerifyFailed {
			verifyFailed++
		}
		tot.Units += st.Units
		tot.Checks += st.Checks
		tot.ClassSkips += st.ClassSkips
		tot.Backtracks += st.Backtracks
		tot.CexLearned += st.CexLearned
		tot.Components += st.Components
		tot.StatesLabeled += st.StatesLabeled
		tot.LabelsInterned += st.LabelsInterned
		tot.ExtendHits += st.ExtendHits
		tot.ExtendMisses += st.ExtendMisses
		tot.SATCalls += st.SATCalls
		search += ms(st.SearchElapsed)
		waits += ms(st.WaitRemovalElapsed)
		verify += ms(st.VerifyElapsed)
		rebind += ms(st.RebindElapsed)
		cacheVerify += ms(st.CacheVerifyElapsed)
	}
	n := float64(len(s.stats))
	m["core.synthesize_miss_ms"] = mean(miss)
	m["core.synthesize_hit_us"] = mean(hit) * 1e3
	m["core.infeasible_memo_us"] = mean(memo) * 1e3
	m["core.repair_ms"] = mean(repair)
	m["core.search_ms"] = search / n
	m["core.wait_removal_ms"] = waits / n
	m["core.verify_ms"] = verify / n
	m["core.rebind_ms"] = rebind / n
	m["core.cache_verify_ms"] = cacheVerify / n
	m["core.checks"] = float64(tot.Checks) / n
	m["core.backtracks_per_unit"] = ratio(float64(tot.Backtracks), float64(tot.Units))
	m["core.cex_learned"] = float64(tot.CexLearned) / n
	m["core.components"] = float64(tot.Components) / n
	m["core.class_skip_ratio"] = ratio(float64(tot.ClassSkips), float64(tot.Checks+tot.ClassSkips))
	m["core.cache_hit_ratio"] = hits / n
	m["core.cache_verify_failures"] = verifyFailed
	m["mc.states_labeled"] = float64(tot.StatesLabeled) / n
	m["mc.labels_interned"] = float64(tot.LabelsInterned) / n
	m["mc.extend_hit_ratio"] = ratio(float64(tot.ExtendHits), float64(tot.ExtendHits+tot.ExtendMisses))
	m["sat.calls"] = float64(tot.SATCalls) / n
}

// probeLayers times calls into each layer's public functions on the first
// tenant's registration document, its first delta, and the first scenario
// file, sz.probeReps times each, and reports means.
func probeLayers(w *workload, sz *sizes, tr *tracer, m map[string]float64) error {
	t := w.tenants[0]
	reps := sz.probeReps
	var firstErr error
	// probe times fn reps times and returns the mean in the given unit
	// (nanoseconds per unit).
	probe := func(name string, per float64, fn func() error) {
		var total time.Duration
		for i := 0; i < reps; i++ {
			total += tr.timed(trackProbes, 0, name, func() {
				if err := fn(); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
				}
			})
		}
		m[name] = float64(total.Nanoseconds()) / float64(reps) / per
	}
	const us, msec = 1e3, 1e6

	spec, base, _, err := tenantBase(t)
	if err != nil {
		return err
	}
	var rl requestLine
	line := t.firstReroute().line
	if err := json.Unmarshal(line, &rl); err != nil {
		return err
	}
	target, err := base.Apply(base.Init, &rl.StreamDelta)
	if err != nil {
		return err
	}

	probe("topology.build_ms", msec, func() error { _, err := spec.Topology.Build(spec.Name); return err })
	probe("config.header_build_ms", msec, func() error { _, err := spec.StreamHeader.Build(); return err })
	probe("config.apply_us", us, func() error { _, err := base.Apply(base.Init, &rl.StreamDelta); return err })
	probe("config.diff_us", us, func() error { config.Diff(base.Init, target); return nil })
	probe("config.scenario_load_ms", msec, func() error {
		_, err := config.LoadScenario(bytes.NewReader(w.corpus[0].file))
		return err
	})
	probe("ltl.parse_us", us*float64(len(spec.Classes)), func() error {
		for _, c := range spec.Classes {
			if _, err := ltl.Parse(c.Spec); err != nil {
				return err
			}
		}
		return nil
	})
	probe("server.wire_decode_us", us, func() error {
		var rl requestLine
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		return dec.Decode(&rl)
	})

	// Structure and checker calls on the first class the delta moves.
	diff := config.Diff(base.Init, target)
	if len(diff) == 0 {
		return fmt.Errorf("probe delta of %s changes nothing", t.name)
	}
	var cs config.ClassSpec
	for _, c := range base.Specs {
		if c.Class.Name == rl.Reroute[0].Class {
			cs = c
		}
	}
	sw := -1
	for _, s := range diff {
		if classRules(base.Init.Table(s), cs.Class.Pattern()) != classRules(target.Table(s), cs.Class.Pattern()) {
			sw = s
			break
		}
	}
	if sw < 0 {
		return fmt.Errorf("probe delta of %s moves no rule of class %s", t.name, cs.Class.Name)
	}
	var k *kripke.K
	probe("kripke.build_ms", msec, func() (err error) { k, err = kripke.Build(base.Topo, base.Init, cs.Class); return })
	m["kripke.states"] = float64(k.NumStates())
	var chk mc.Checker
	probe("mc.new_incremental_ms", msec, func() (err error) { chk, err = mc.NewIncremental(k, cs.Formula); return })
	probe("mc.check_us", us, func() error {
		if v := chk.Check(); !v.OK {
			return fmt.Errorf("registered configuration violates %s", cs.Class.Name)
		}
		return nil
	})
	probe("mc.update_revert_ns", 1, func() error {
		d, err := k.UpdateSwitch(sw, target.Table(sw))
		if err != nil {
			return err
		}
		_, tok := chk.Update(d)
		chk.Revert(tok)
		k.Revert(d)
		return nil
	})
	probe("kripke.update_revert_ns", 1, func() error {
		d, err := k.UpdateSwitch(sw, target.Table(sw))
		if err != nil {
			return err
		}
		k.Revert(d)
		return nil
	})
	flip := []*config.Config{target, base.Init}
	n := 0
	probe("kripke.rebind_us", us, func() error {
		_, _, err := k.Rebind(flip[n%2])
		n++
		return err
	})

	// One cold plan for the simulator and the wire encoder.
	plan, err := core.Synthesize(&config.Scenario{Name: t.name, Topo: base.Topo, Init: base.Init, Final: target, Specs: base.Specs}, core.Options{})
	if err != nil {
		return fmt.Errorf("probe plan for %s: %w", t.name, err)
	}
	classes := make([]config.Class, len(base.Specs))
	for i, c := range base.Specs {
		classes[i] = c.Class
	}
	var res *sim.Result
	probe("sim.run_dag_ms", msec, func() error { res = sim.RunPlanDAG(base.Topo, base.Init, plan, classes, simParams); return nil })
	var commits []float64
	for _, nt := range res.NodeTimeline {
		if nt.CommitAt >= 0 {
			commits = append(commits, float64(nt.CommitAt-sim.DefaultCommandStart)/float64(time.Millisecond))
		}
	}
	sort.Float64s(commits)
	m["sim.p50_commit_simms"] = percentile(commits, 0.50)
	probe("server.wire_encode_us", us, func() error {
		_, err := json.Marshal(server.NewResult(1, t.name, plan, nil))
		return err
	})
	return firstErr
}
