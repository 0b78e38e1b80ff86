package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRegistryRendersCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "Things.")
	c.Add(3)
	c.Inc()
	r.Gauge("x_live", "Live things.", func() float64 { return 2.5 })
	r.FuncCounter("x_derived_total", "Derived things.", func() float64 { return 7 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP x_total Things.\n# TYPE x_total counter\nx_total 4\n",
		"# HELP x_live Live things.\n# TYPE x_live gauge\nx_live 2.5\n",
		"# TYPE x_derived_total counter\nx_derived_total 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if strings.Index(out, "x_total") > strings.Index(out, "x_live") {
		t.Fatalf("families out of registration order:\n%s", out)
	}
	// Value reads what the scrape shows; families without a single value
	// and unknown names read NaN.
	r.Histogram("x_seconds", "Latency.")
	if a, b, c := r.Value("x_total"), r.Value("x_live"), r.Value("x_derived_total"); a != 4 || b != 2.5 || c != 7 {
		t.Fatalf("Value = %g, %g, %g", a, b, c)
	}
	if h, none := r.Value("x_seconds"), r.Value("x_nope"); !math.IsNaN(h) || !math.IsNaN(none) {
		t.Fatalf("Value = %g for a histogram, %g for an unknown name; want NaN", h, none)
	}
}

func TestCountHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.CountHistogram("d_entries", "Distance.", []float64{0, 1, 4})
	for _, n := range []int64{0, 1, 3, 4, 9} {
		h.ObserveCount(n)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE d_entries histogram\n",
		"d_entries_bucket{le=\"0\"} 1\n",
		"d_entries_bucket{le=\"1\"} 2\n",
		"d_entries_bucket{le=\"4\"} 4\n",
		"d_entries_bucket{le=\"+Inf\"} 5\n",
		"d_entries_sum 17\n",
		"d_entries_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.")
	h.Observe(200 * time.Microsecond) // le 0.00025
	h.Observe(200 * time.Microsecond)
	h.Observe(30 * time.Millisecond) // le 0.05
	h.Observe(30 * time.Second)      // +Inf

	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	wantSum := 2*0.0002 + 0.03 + 30
	if got := h.SumSeconds(); got < wantSum-1e-9 || got > wantSum+1e-9 {
		t.Fatalf("SumSeconds = %v, want %v", got, wantSum)
	}
	if h.MaxNanos() != (30 * time.Second).Nanoseconds() {
		t.Fatalf("MaxNanos = %d", h.MaxNanos())
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"0.0001\"} 0\n",
		"lat_seconds_bucket{le=\"0.00025\"} 2\n",
		"lat_seconds_bucket{le=\"0.05\"} 3\n", // cumulative
		"lat_seconds_bucket{le=\"10\"} 3\n",
		"lat_seconds_bucket{le=\"+Inf\"} 4\n",
		"lat_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("tenant_requests_total", "Per-tenant requests.", "tenant")
	v.With("b").Add(2)
	v.With("a").Inc()
	v.With("b").Inc()

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	ia := strings.Index(out, `tenant_requests_total{tenant="a"} 1`)
	ib := strings.Index(out, `tenant_requests_total{tenant="b"} 3`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("vec rendering wrong (a@%d b@%d):\n%s", ia, ib, out)
	}
}
