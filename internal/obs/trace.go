// Package obs is the zero-dependency observability layer: a low-overhead
// span recorder (Trace) threaded through the synthesis pipeline, a
// metrics registry (Registry) rendering the Prometheus text exposition
// format, and request-id propagation helpers shared by the serving
// stack. Everything here is hand-rolled over the standard library — the
// repo takes no dependencies — and everything is nil-safe: on a nil
// *Trace every recording call returns at once. Begin and End then read
// no clock and allocate nothing; Start and Phase.End read the clock and
// return the phase's duration, which is how a run's statistics time
// their phases: a statistic and its span are one interval.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceSpans is the span capacity when NewTrace is given zero:
// enough for a decomposed synthesis over hundreds of components plus a
// few thousand executor events. Spans beyond capacity are counted
// (TraceData.Dropped), never grown past the bound.
const DefaultTraceSpans = 8192

// traceFirstSpans is the span store's first allocation: a request's
// tree is about a dozen spans, plus one per component.
const traceFirstSpans = 16

// Trace records one run's span tree.
//
// Concurrency: every recording call takes the trace's lock, so spans may
// be opened and closed from concurrent goroutines (the decomposed search
// runs component sub-searches on worker goroutines).
type Trace struct {
	start     time.Time
	requestID string
	capacity  int

	mu      sync.Mutex
	spans   []span
	dropped int
}

// span is one recorded interval. Times are nanosecond offsets from the
// trace start; dur < 0 marks a still-open span (Snapshot closes it at
// snapshot time).
type span struct {
	name   string
	detail string
	parent int32 // 1-based span id; 0 = root
	lane   int32 // Chrome "tid": 0 = main lane
	start  int64
	dur    int64
}

// NewTrace builds a trace with the given span capacity (0 means
// DefaultTraceSpans) whose clock starts now.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &Trace{
		start:    time.Now(),
		capacity: capacity,
		spans:    make([]span, 0, min(capacity, traceFirstSpans)),
	}
}

// record appends a span and returns its 1-based id, or 0 once the trace
// is full (the drop is counted).
func (t *Trace) record(sp span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.capacity {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, sp)
	return len(t.spans)
}

// Begin opens a span under parent (a previous Begin result; 0 for a
// root) and returns its 1-based id. On a nil trace — or once the trace is
// full — it returns 0, which every other method accepts as a no-op
// target, so callers never branch on enablement.
func (t *Trace) Begin(name string, parent int) int {
	return t.BeginLane(name, parent, 0)
}

// BeginLane is Begin onto a numbered lane: lanes render as separate
// Chrome-trace threads, which keeps concurrent component sub-searches
// from overlapping illegibly on one row.
func (t *Trace) BeginLane(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	return t.record(span{name: name, parent: int32(parent), lane: int32(lane),
		start: int64(time.Since(t.start)), dur: -1})
}

// End closes span id at now. Accepts 0 (from a disabled or full Begin).
func (t *Trace) End(id int) {
	if t == nil || id <= 0 {
		return
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.dur = now - sp.start
	t.mu.Unlock()
}

// Phase is one timed phase of a run, begun by Trace.Start. Its duration
// is measured traced or not, and a traced phase is also a span covering
// exactly that interval.
type Phase struct {
	t     *Trace
	id    int
	start time.Time
}

// Start begins a phase named name under parent on lane (0 for the main
// lane): it reads the clock and, on a non-nil trace, opens a span there.
func (t *Trace) Start(name string, parent, lane int) Phase {
	p := Phase{t: t, start: time.Now()}
	if t != nil {
		p.id = t.record(span{name: name, parent: int32(parent), lane: int32(lane),
			start: int64(p.start.Sub(t.start)), dur: -1})
	}
	return p
}

// Span returns the phase's span id, the parent of the spans begun inside
// it (0 when untraced or the trace is full).
func (p Phase) Span() int { return p.id }

// End ends the phase and returns its duration: the clock is read again,
// and the span, if any, is closed with that duration.
func (p Phase) End() time.Duration { return p.EndDetail("") }

// EndDetail is End plus a free-form detail annotation on the span.
func (p Phase) EndDetail(detail string) time.Duration {
	d := time.Since(p.start)
	if p.id > 0 {
		p.t.mu.Lock()
		sp := &p.t.spans[p.id-1]
		sp.dur, sp.detail = int64(d), detail
		p.t.mu.Unlock()
	}
	return d
}

// RecordAt records a complete span with explicit start/end offsets from
// the trace origin instead of wall-clock reads. The simulator uses it to
// emit install/commit/retry events on the simulated clock, which is
// exactly the timeline a Chrome trace of a DAG execution should show.
func (t *Trace) RecordAt(name string, parent, lane int, start, end time.Duration, detail string) int {
	if t == nil {
		return 0
	}
	return t.record(span{name: name, detail: detail, parent: int32(parent), lane: int32(lane),
		start: int64(start), dur: int64(end - start)})
}

// Snapshot exports the recorded spans. Open spans are closed at snapshot
// time, so a mid-flight export still renders.
func (t *Trace) Snapshot() *TraceData {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &TraceData{
		RequestID: t.requestID,
		Dropped:   t.dropped,
		Spans:     make([]SpanData, len(t.spans)),
	}
	for i := range t.spans {
		sp := &t.spans[i]
		dur := sp.dur
		if dur < 0 {
			dur = now - sp.start
		}
		d.Spans[i] = SpanData{
			ID:      i + 1,
			Parent:  int(sp.parent),
			Lane:    int(sp.lane),
			Name:    sp.name,
			Detail:  sp.detail,
			StartUS: float64(sp.start) / 1e3,
			DurUS:   float64(dur) / 1e3,
		}
	}
	return d
}

// TraceData is the exported, wire- and file-serializable form of a
// trace: what Result.Trace carries and what the export writers consume.
type TraceData struct {
	RequestID string     `json:"requestId,omitempty"`
	Dropped   int        `json:"dropped,omitempty"`
	Spans     []SpanData `json:"spans"`
}

// SpanData is one exported span. Times are microseconds from the trace
// origin (the unit chrome://tracing uses natively).
type SpanData struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0 = root
	Lane    int     `json:"lane,omitempty"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartUS float64 `json:"startUs"`
	DurUS   float64 `json:"durUs"`
}

// Root returns the first root span's index, or -1.
func (d *TraceData) Root() int {
	for i := range d.Spans {
		if d.Spans[i].Parent == 0 {
			return i
		}
	}
	return -1
}

// WriteJSONL writes one span object per line (the streaming-friendly
// export behind netupdate -trace-out file.jsonl).
func (d *TraceData) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range d.Spans {
		if err := enc.Encode(&d.Spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes one or more traces as a Chrome trace-event JSON
// array (complete "X" events), loadable directly in chrome://tracing or
// https://ui.perfetto.dev. Each trace renders as its own process; lanes
// render as threads within it.
func WriteChrome(w io.Writer, traces ...*TraceData) error {
	type chromeEvent struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var evs []chromeEvent
	for pi, d := range traces {
		if d == nil {
			continue
		}
		for i := range d.Spans {
			sp := &d.Spans[i]
			ev := chromeEvent{
				Name: sp.Name, Cat: "netupdate", Ph: "X",
				TS: sp.StartUS, Dur: sp.DurUS,
				PID: pi + 1, TID: sp.Lane + 1,
			}
			if sp.Detail != "" || (sp.Parent == 0 && d.RequestID != "") {
				ev.Args = map[string]string{}
				if sp.Detail != "" {
					ev.Args["detail"] = sp.Detail
				}
				if sp.Parent == 0 && d.RequestID != "" {
					ev.Args["requestId"] = d.RequestID
				}
			}
			evs = append(evs, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// --- request-id propagation ---

// RequestIDHeader is the HTTP header carrying the request id across the
// serving stack: the router (netupdatelb) mints one for requests that
// arrive without it, the daemon echoes it on the response and threads it
// through the pool into each run's stats and trace.
const RequestIDHeader = "X-Netupdate-Request-Id"

type ctxKey int

const (
	ctxRequestID ctxKey = iota
	ctxTracing
)

// reqCounter backs NewRequestID when the system randomness source fails
// (it practically cannot; the fallback just keeps ids unique in-process).
var reqCounter atomic.Int64

// NewRequestID mints a 16-hex-digit request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%012x", reqCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID tags a context with the request id minted at (or
// forwarded by) the serving edge.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxRequestID, id)
}

// RequestIDFrom returns the context's request id, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxRequestID).(string)
	return id
}

// WithTracing marks the context as requesting a per-request trace (the
// daemon's ?trace=1, netupdate -trace-out): a session run under it
// records one (TraceFrom).
func WithTracing(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxTracing, true)
}

// TraceFrom returns a new trace for a run under ctx, stamped with the
// context's request id, when the context asks for one (WithTracing), and
// nil otherwise.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if on, _ := ctx.Value(ctxTracing).(bool); !on {
		return nil
	}
	t := NewTrace(0)
	t.requestID = RequestIDFrom(ctx)
	return t
}
