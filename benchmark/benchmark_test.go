package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The smoke test drives every workload at smoke scale through the real
// subprocesses: the same code paths as the benchmark, seconds instead of
// minutes.

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killChildren()
		e.close()
		if n := liveChildren(); n != 0 {
			t.Errorf("%d child process(es) outlived the test", n)
		}
	})
	return e
}

func TestSmokeWorkloads(t *testing.T) {
	e := smokeEnv(t)
	for _, name := range workloadNames {
		a, err := generate(name, defaultSeed, 0, &smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, defaultSeed, 0, &smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: two generations from one seed differ: %s vs %s", name, a.digest, b.digest)
		}
		if c, _ := generate(name, defaultSeed+1, 0, &smokeSizes); c != nil && c.digest == a.digest {
			t.Errorf("%s: a different seed generated the same inputs", name)
		}
		if c, _ := generate(name, defaultSeed, 1, &smokeSizes); name != wlOneshot && c != nil && c.digest == a.digest {
			t.Errorf("%s: a second draw of one seed generated the same inputs", name)
		}

		r, err := measure(e, name, defaultSeed, &smokeSizes, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d (%s)", name, r.Attempted, r.Failed, r.firstFail)
		}
		for _, d := range endToEnd {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a finite positive %s", name, d.name, m, ok, d.unit)
			}
		}
	}
}

// Every serve-churn request must restore one evicted session from its
// snapshot and none may rebuild cold: that is what the workload is for.
func TestSmokeChurnRestoresEveryRequest(t *testing.T) {
	e := smokeEnv(t)
	w, err := generate(wlChurn, defaultSeed, 0, &smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runServePass(e, w, "smoke-churn", 500*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.check(w, 0); p.failed != 0 {
		t.Fatalf("failed ops: %d (%s)", p.failed, p.firstFail)
	}
	if got := p.daemonM["netupdate_snapshot_restores_total"]; got != float64(p.attempted) {
		t.Errorf("snapshot restores = %v, want one per request (%d)", got, p.attempted)
	}
	if got := p.daemonM["netupdate_cold_rebuilds_total"]; got != 0 {
		t.Errorf("cold rebuilds = %v, want 0", got)
	}
}

// The traced run must yield every per-layer metric, a consistent ladder
// and a loadable trace.
func TestSmokeLayers(t *testing.T) {
	e := smokeEnv(t)
	r, err := measureLayers(e, wlMixed, defaultSeed, &smokeSizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("failed ops: %d (%s)", r.Failed, r.firstFail)
	}
	for _, d := range perLayer {
		if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s = %+v (present %v)", d.name, m, ok)
		}
	}
	v := func(n string) float64 { return r.Metrics[n].Value }
	sum := v("server.pool_self_us") + v("netupdated.http_self_us") + v("netupdatelb.hop_us")
	if want := (v("ladder.lb_p50_ms") - v("ladder.session_p50_ms")) * 1e3; math.Abs(sum-want) > 1e-6*math.Abs(want)+1e-6 {
		t.Errorf("layer self times sum to %v us, lb - session rung is %v us", sum, want)
	}
	b, err := os.ReadFile(filepath.Join(e.out, wlMixed+"-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("trace is not a Chrome trace-event array: %v", err)
	}
	// A daemon span must sit under a client span with the same request id.
	client := map[string]bool{}
	joined := false
	for _, ev := range evs {
		id, _ := ev.Args["requestId"].(string)
		switch {
		case id == "":
		case ev.Args["parent"] == nil:
			client[id] = true
		case client[id]:
			joined = true
		}
	}
	if !joined {
		t.Error("no daemon span joined to a client span by request id")
	}
}

// The layer probes need a delta that has a plan on the registered
// configuration, whatever the seed: a mixed stream that opens with its
// rejected intent once made the traced run fail one seed in twelve.
func TestProbeDeltaHasPlan(t *testing.T) {
	opensRejected := 0
	for seed := int64(0); seed < 48; seed++ {
		w, err := generate(wlMixed, seed, 0, &smokeSizes)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ten := range w.tenants {
			if ten.ops().next(0).want == wantImpossible {
				opensRejected++
			}
			o := ten.firstReroute()
			var rl requestLine
			if err := json.Unmarshal(o.line, &rl); err != nil || o.want != wantPlan || len(rl.Reroute) == 0 {
				t.Fatalf("seed %d %s: probe op %s (want %q, decode %v)", seed, ten.name, o.line, o.want, err)
			}
			_, base, _, err := tenantBase(ten)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := base.Apply(base.Init, &rl.StreamDelta); err != nil {
				t.Fatalf("seed %d %s: probe delta does not apply to the registered configuration: %v", seed, ten.name, err)
			}
		}
	}
	if opensRejected == 0 {
		t.Error("no stream of 48 seeds opens with its rejected intent: the case under test is not exercised")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this package
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the suite %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, suite %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the suite %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], suite %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
