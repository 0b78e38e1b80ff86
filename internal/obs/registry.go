package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is an ordered set of metric families rendered in the
// Prometheus text exposition format. It replaces the serving stack's
// ad-hoc counter fields: the pool and the router register their
// instruments once at construction, and /metrics renders whatever is
// registered — same names, same `# HELP` / `# TYPE` framing the
// hand-rolled writer emitted before.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

type family struct {
	name, help, typ string

	counter *Counter       // typ "counter" with an owned value
	fn      func() float64 // typ "counter" or "gauge" sampled at render
	hist    *Histogram     // typ "histogram"
	vec     *CounterVec    // typ "counter" with one label dimension
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers a gauge whose value is sampled from fn at render time;
// used for instantaneous pool state (tenants, warm sessions, bytes held).
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// FuncCounter registers a counter whose value lives elsewhere (e.g. the
// shared learning registry's totals) and is sampled at render time.
func (r *Registry) FuncCounter(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter", fn: fn})
}

// Histogram registers and returns a latency histogram over the default
// log-spaced buckets (100µs … 10s, 1–2.5–5 per decade).
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.histogram(name, help, defaultLatencyBuckets, 1e9)
}

// CountHistogram registers and returns a histogram of whole counts
// (ObserveCount) over the given ascending upper bounds.
func (r *Registry) CountHistogram(name, help string, bounds []float64) *Histogram {
	return r.histogram(name, help, bounds, 1)
}

func (r *Registry) histogram(name, help string, bounds []float64, div float64) *Histogram {
	h := &Histogram{bounds: bounds, div: div, counts: make([]atomic.Int64, len(bounds))}
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// CounterVec registers and returns a counter family with one label
// dimension (the per-tenant series).
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, vals: map[string]*Counter{}}
	r.add(&family{name: name, help: help, typ: "counter", vec: v})
	return v
}

// ServeHTTP is the /metrics endpoint: every registered family in the
// Prometheus text exposition format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// WritePrometheus renders every registered family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case f.fn != nil:
			fmt.Fprintf(w, "%s %g\n", f.name, f.fn())
		case f.hist != nil:
			f.hist.write(w, f.name)
		case f.vec != nil:
			f.vec.write(w, f.name)
		}
	}
}

// Value reads one single-valued family (counter or gauge) by name — what
// a scrape would show on its sample line. It is NaN for a name that is
// not registered or names a histogram or a labelled family.
func (r *Registry) Value(name string) float64 {
	var fam family
	r.mu.Lock()
	for _, f := range r.fams {
		if f.name == name {
			fam = *f
		}
	}
	r.mu.Unlock()
	switch {
	case fam.counter != nil:
		return float64(fam.counter.Value())
	case fam.fn != nil:
		return fam.fn()
	}
	return math.NaN()
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to preserve monotonicity).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a set of counters keyed by one label value.
type CounterVec struct {
	label string
	mu    sync.Mutex
	vals  map[string]*Counter
}

// With returns (creating if needed) the counter for a label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	c := v.vals[value]
	if c == nil {
		c = &Counter{}
		v.vals[value] = c
	}
	v.mu.Unlock()
	return c
}

func (v *CounterVec) write(w io.Writer, name string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, k, v.vals[k].Value())
	}
	v.mu.Unlock()
}

// defaultLatencyBuckets spans the serving stack's dynamic range — a plan
// cache hit replays in well under a millisecond, a cold decomposed
// synthesis can take seconds — with 1–2.5–5 steps per decade.
var defaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic counters; Observe
// and ObserveCount are lock-free and allocation-free. A latency histogram
// (Registry.Histogram) sums nanoseconds and renders seconds; a count
// histogram (Registry.CountHistogram) sums and renders counts.
type Histogram struct {
	bounds []float64 // upper bounds in rendered units, ascending
	div    float64   // summed units per rendered unit
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.record(d.Seconds(), d.Nanoseconds()) }

// ObserveCount records one count sample.
func (h *Histogram) ObserveCount(n int64) { h.record(float64(n), n) }

// record counts a sample that renders as x and sums as v.
func (h *Histogram) record(x float64, v int64) {
	placed := false
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.n.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// SumSeconds returns the sum of all observed latency samples in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sum.Load()) / 1e9 }

// MaxNanos returns the largest observed latency sample in nanoseconds.
func (h *Histogram) MaxNanos() int64 { return h.max.Load() }

func (h *Histogram) write(w io.Writer, name string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/h.div)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
