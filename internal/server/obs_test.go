package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/lb"
	"netupdate/internal/obs"
)

// promScrape is one parsed /metrics exposition: HELP and TYPE per family
// plus every sample keyed by its full series name (labels included).
type promScrape struct {
	help, typ map[string]string
	samples   map[string]float64
}

// parseProm parses the Prometheus text format line by line, failing on
// any line that is neither a well-formed comment nor a sample belonging
// to a family with HELP and TYPE already declared.
func parseProm(t *testing.T, body string) promScrape {
	t.Helper()
	s := promScrape{help: map[string]string{}, typ: map[string]string{}, samples: map[string]float64{}}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "HELP" {
				s.help[parts[2]] = parts[3]
			} else {
				s.typ[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// Histogram series carry a suffix over the family name; exact
		// family names win (netupdate_queue_wait_seconds_total is its own
		// counter, distinct from the netupdate_queue_wait_seconds histogram).
		if _, ok := s.typ[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suf); found {
					if s.typ[base] == "histogram" {
						name = base
						break
					}
				}
			}
		}
		if s.typ[name] == "" || s.help[name] == "" {
			t.Fatalf("line %d: sample %q has no HELP/TYPE for family %q", ln+1, line, name)
		}
		s.samples[series] = val
	}
	return s
}

func scrapeMetrics(t *testing.T, url string) promScrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// TestMetricsPrometheusFormat: /metrics renders every registered family
// with HELP and TYPE framing, the legacy counter names survive the
// registry conversion byte-for-name, the new latency histograms carry
// consistent bucket series, and counters are monotone across a workload.
func TestMetricsPrometheusFormat(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()
	defer p.Close(context.Background())

	info, err := p.Register(testSpec("prom"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Synthesize(context.Background(), info.ID, flipDelta()); err != nil {
		t.Fatal(err)
	}
	first := scrapeMetrics(t, ts.URL)

	for _, fam := range []string{
		"netupdate_pool_tenants", "netupdate_pool_warm_sessions", "netupdate_pool_workers",
		"netupdate_requests_total", "netupdate_plans_total", "netupdate_infeasible_total",
		"netupdate_failures_total", "netupdate_bad_requests_total",
		"netupdate_rejected_queue_full_total", "netupdate_deadline_expired_total",
		"netupdate_canceled_total", "netupdate_step_acks_total", "netupdate_repairs_total",
		"netupdate_repair_failures_total", "netupdate_evictions_total",
		"netupdate_session_rebuilds_total", "netupdate_snapshot_restores_total",
		"netupdate_cold_rebuilds_total", "netupdate_snapshot_rejects_total",
		"netupdate_shared_arenas",
		"netupdate_queue_wait_seconds_total", "netupdate_synthesis_seconds_total",
		"netupdate_synthesis_seconds_max", "netupdate_plan_cache_hits_total",
		"netupdate_plan_cache_misses_total", "netupdate_plan_cache_verify_failures_total",
		"netupdate_plan_cache_evictions_total", "netupdate_plan_cache_entries",
		"netupdate_learn_stores",
		"netupdate_queue_wait_seconds", "netupdate_synthesis_hit_seconds",
		"netupdate_synthesis_miss_seconds", "netupdate_synthesis_repair_seconds",
		"netupdate_snapshot_restore_seconds", "netupdate_session_evict_seconds",
		"netupdate_plan_cache_hit_distance", "netupdate_tenant_requests_total",
	} {
		if first.typ[fam] == "" {
			t.Errorf("family %s not exposed", fam)
		}
	}
	if n := first.samples["netupdate_synthesis_miss_seconds_count"]; n < 1 {
		t.Fatalf("synthesis_miss histogram recorded %g samples", n)
	}
	if n := first.samples["netupdate_queue_wait_seconds_count"]; n < 1 {
		t.Fatalf("queue_wait histogram recorded %g samples", n)
	}
	series := "netupdate_tenant_requests_total{tenant=\"" + info.ID + "\"}"
	if first.samples[series] != 1 {
		t.Fatalf("per-tenant series %s = %g, want 1", series, first.samples[series])
	}
	// The histogram's +Inf bucket equals its count.
	inf := first.samples[`netupdate_synthesis_miss_seconds_bucket{le="+Inf"}`]
	if inf != first.samples["netupdate_synthesis_miss_seconds_count"] {
		t.Fatalf("+Inf bucket %g != count %g", inf, first.samples["netupdate_synthesis_miss_seconds_count"])
	}

	// More workload: a plan, a bad delta, a commit ack. Every counter must
	// be monotone across the scrapes.
	back := &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 1, 3}}}}
	if _, err := p.Synthesize(context.Background(), info.ID, back); err != nil {
		t.Fatal(err)
	}
	bad := &config.StreamDelta{Reroute: []config.Reroute{{Class: "ghost", Path: []int{0, 1, 3}}}}
	if _, err := p.Synthesize(context.Background(), info.ID, bad); err == nil {
		t.Fatal("bad delta must fail")
	}
	if _, err := p.Ack(context.Background(), info.ID, &StepAck{Step: 0}); err != nil {
		t.Fatal(err)
	}
	second := scrapeMetrics(t, ts.URL)
	for series, v1 := range first.samples {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		famTyp := first.typ[name]
		if famTyp == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suf); found && first.typ[base] == "histogram" {
					famTyp = "histogram"
					break
				}
			}
		}
		if famTyp == "gauge" {
			continue
		}
		v2, ok := second.samples[series]
		if !ok {
			t.Errorf("series %s vanished between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("series %s went backwards: %g -> %g", series, v1, v2)
		}
	}
	if second.samples["netupdate_requests_total"] != 3 { // ack admits without counting a synthesis request
		t.Fatalf("requests_total = %g", second.samples["netupdate_requests_total"])
	}
	if second.samples["netupdate_plans_total"] != 2 {
		t.Fatalf("plans_total = %g", second.samples["netupdate_plans_total"])
	}
	if second.samples["netupdate_bad_requests_total"] != 1 {
		t.Fatalf("bad_requests_total = %g", second.samples["netupdate_bad_requests_total"])
	}
	if second.samples["netupdate_step_acks_total"] != 1 {
		t.Fatalf("step_acks_total = %g", second.samples["netupdate_step_acks_total"])
	}
}

// TestPlanCacheHitDistance: a tenant that flips a class and back twice
// misses twice and then hits the flip, stored one entry before the
// flip-back, and the flip-back, stored last: the histogram on /metrics
// reads one hit at distance 0 and one at distance 1. Its top finite
// bucket is the plan cache's bound.
func TestPlanCacheHitDistance(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()
	defer p.Close(context.Background())
	info, err := p.Register(testSpec("distance"))
	if err != nil {
		t.Fatal(err)
	}
	back := &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 1, 3}}}}
	for _, d := range []*config.StreamDelta{flipDelta(), back, flipDelta(), back} {
		if _, err := p.Synthesize(context.Background(), info.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	got := scrapeMetrics(t, ts.URL).samples
	for series, want := range map[string]float64{
		`netupdate_plan_cache_hit_distance_bucket{le="0"}`:    1,
		`netupdate_plan_cache_hit_distance_bucket{le="1"}`:    2,
		`netupdate_plan_cache_hit_distance_bucket{le="+Inf"}`: 2,
		"netupdate_plan_cache_hit_distance_sum":               1,
		"netupdate_plan_cache_hit_distance_count":             2,
		"netupdate_plan_cache_hits_total":                     2,
	} {
		if got[series] != want {
			t.Errorf("%s = %g, want %g", series, got[series], want)
		}
	}
	top := 0.0
	for series := range got {
		if le, ok := strings.CutPrefix(series, `netupdate_plan_cache_hit_distance_bucket{le="`); ok && le != `+Inf"}` {
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				t.Fatal(err)
			}
			top = max(top, bound)
		}
	}
	if top != core.DefaultPlanCacheEntries || got[fmt.Sprintf(`netupdate_plan_cache_hit_distance_bucket{le="%d"}`, core.DefaultPlanCacheEntries)] != 2 {
		t.Errorf("top finite bucket %g, want the plan cache's bound %d holding both hits", top, core.DefaultPlanCacheEntries)
	}
}

// TestLBPreservesResponseHeaders: the synthesize stream path through the
// router must deliver the replica's response headers — the NDJSON content
// type and the echoed request id — to the client unaltered.
func TestLBPreservesResponseHeaders(t *testing.T) {
	tsA, _ := startReplica(t)
	lb, err := lb.New([]string{tsA.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(lb.Handler())
	defer front.Close()

	body := specJSON(t, testSpec("hdr"))
	resp, err := http.Post(front.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sresp, err := http.Post(front.URL+"/v1/tenants/"+info.ID+"/synthesize",
		"application/x-ndjson", strings.NewReader(`{"reroute":[{"class":"c","path":[0,2,3]}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type through LB = %q", ct)
	}
	if sresp.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("request id header dropped on the LB stream path")
	}
	sc := bufio.NewScanner(sresp.Body)
	if !sc.Scan() {
		t.Fatal("no result line through LB")
	}
	var res Result
	if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result != "plan" {
		t.Fatalf("result = %+v", res)
	}
}

// TestTraceThroughLB is the end-to-end request-id acceptance check: a
// ?trace=1 synthesize through the router returns a span tree whose root
// carries exactly the request id the LB minted (echoed on the response
// header), and the same id lands in the result's stats. A clean miss
// carries no target check's time or span; a refused target's request
// does.
func TestTraceThroughLB(t *testing.T) {
	tsA, pool := startReplica(t)
	lb, err := lb.New([]string{tsA.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(lb.Handler())
	defer front.Close()

	body := specJSON(t, testSpec("traced"))
	resp, err := http.Post(front.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sresp, err := http.Post(front.URL+"/v1/tenants/"+info.ID+"/synthesize?trace=1",
		"application/x-ndjson", strings.NewReader(`{"reroute":[{"class":"c","path":[0,2,3]}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	reqID := sresp.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		t.Fatal("no request id echoed through the LB")
	}
	sc := bufio.NewScanner(sresp.Body)
	if !sc.Scan() {
		t.Fatal("no result line")
	}
	var res Result
	if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result != "plan" || res.Trace == nil {
		t.Fatalf("traced result = %+v", res)
	}
	if res.Trace.RequestID != reqID {
		t.Fatalf("trace request id %q != echoed header %q", res.Trace.RequestID, reqID)
	}
	ri := res.Trace.Root()
	if ri < 0 || res.Trace.Spans[ri].Name != "synthesize" {
		t.Fatalf("root span = %+v", res.Trace.Spans[ri])
	}
	if res.Stats == nil || res.Stats.RequestID != reqID {
		t.Fatalf("stats request id = %+v", res.Stats)
	}
	// The search failed no check, so its leaf proved the target: the line
	// carries no verification time and the trace no final-verify span.
	if res.Stats.VerifyMS != 0 || res.Stats.SearchMS <= 0 {
		t.Fatalf("phase durations of a clean miss on the wire: %+v", res.Stats)
	}
	for _, sp := range res.Trace.Spans {
		if sp.Name == "final-verify" {
			t.Fatalf("a clean miss recorded a target check: %+v", sp)
		}
	}

	// An untraced request on the same tenant carries no trace.
	sresp2, err := http.Post(front.URL+"/v1/tenants/"+info.ID+"/synthesize",
		"application/x-ndjson", strings.NewReader(`{"reroute":[{"class":"c","path":[0,1,3]}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp2.Body.Close()
	sc2 := bufio.NewScanner(sresp2.Body)
	if !sc2.Scan() {
		t.Fatal("no second result line")
	}
	var res2 Result
	if err := json.Unmarshal(sc2.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Fatalf("untraced request carried %d spans", len(res2.Trace.Spans))
	}

	// A target the tenant's specification refuses — the class must cross
	// switch 1 — fails a check of the search, which then checks the
	// target: the error line carries no stats, the replica's session does.
	wp := testSpec("waypointed")
	wp.Classes[0].Spec = "sw=0 -> F sw=1"
	resp, err = http.Post(front.URL+"/v1/tenants", "application/json", bytes.NewReader(specJSON(t, wp)))
	if err != nil {
		t.Fatal(err)
	}
	var wpInfo TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&wpInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res := synthLine(t, front.URL, wpInfo.ID, `{"reroute":[{"class":"c","path":[0,2,3]}]}`); res.Result != "error" ||
		!strings.Contains(res.Error, core.ErrFinalViolation.Error()) {
		t.Fatalf("refused target's line = %+v", res)
	}
	if st, ok := pool.LastStats(wpInfo.ID); !ok || st.VerifyElapsed <= 0 {
		t.Fatalf("refused target's stats: %+v (warm %v)", st, ok)
	}
}
