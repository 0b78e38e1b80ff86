// Package obs is the zero-dependency observability layer: a low-overhead
// span recorder (Trace) threaded through the synthesis pipeline, a
// metrics registry (Registry) rendering the Prometheus text exposition
// format, and request-id propagation helpers shared by the serving
// stack. Everything here is hand-rolled over the standard library — the
// repo takes no dependencies — and everything is nil-safe: a nil *Trace
// turns every recording call into an immediate return, so instrumented
// code paths pay no time.Now call and no allocation when tracing is off.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// DefaultTraceSpans is the span capacity when NewTrace is given zero:
// enough for a decomposed synthesis over hundreds of components plus a
// few thousand executor events. Spans beyond capacity are counted
// (TraceData.Dropped), never grown past the bound.
const DefaultTraceSpans = 8192

// traceChunkSpans is the ring's allocation unit. Storage is a fixed
// table of lazily CAS-installed chunks rather than one flat slice, so a
// long-lived session trace that records a dozen spans per run keeps one
// ~12KB chunk live instead of the full capacity — preallocating the
// whole ring measurably costs the traced path in GC pressure, which is
// exactly what this layer must not do.
const traceChunkSpans = 256

// Trace records one request's span tree into a preallocated ring.
//
// Concurrency: Begin reserves a slot with an atomic counter, so spans
// may be opened from concurrent goroutines (the decomposed search fans
// component sub-searches out over worker goroutines); each reserved slot
// is written only by the goroutine that reserved it after its chunk is
// CAS-installed, and Snapshot must only be called after those goroutines
// have been joined — which is how every producer uses it: the session
// snapshots after its run (and its WaitGroup) completes.
type Trace struct {
	start     time.Time
	requestID string
	n         atomic.Int64 // spans begun, including dropped
	capacity  int          // chunks × traceChunkSpans
	chunks    []atomic.Pointer[traceChunk]
}

// traceChunk is one allocation unit of the span ring.
type traceChunk [traceChunkSpans]span

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
// DefaultTraceSpans) whose clock starts now. Chunks are allocated as
// spans are recorded, so the constructed trace costs a few words until
// it is used.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	n := (capacity + traceChunkSpans - 1) / traceChunkSpans
	return &Trace{
		start:    time.Now(),
		capacity: capacity,
		chunks:   make([]atomic.Pointer[traceChunk], n),
	}
}

// slot returns the span cell for a reserved index, installing its chunk
// on first touch. Losing a concurrent install race just adopts the
// winner's chunk.
func (t *Trace) slot(idx int64) *span {
	c := &t.chunks[idx/traceChunkSpans]
	ch := c.Load()
	if ch == nil {
		fresh := new(traceChunk)
		if !c.CompareAndSwap(nil, fresh) {
			ch = c.Load()
		} else {
			ch = fresh
		}
	}
	return &ch[idx%traceChunkSpans]
}

// Reset discards every recorded span and restarts the clock; the ring is
// reused, so a per-session trace serves a stream of runs without
// reallocating. No-op on nil.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.n.Store(0)
	t.start = time.Now()
	t.requestID = ""
}

// SetRequestID stamps the trace with the request id its root span
// belongs to (see RequestIDHeader propagation in internal/server).
func (t *Trace) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.requestID = id
}

// RequestID returns the stamped request id ("" when none or nil).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.requestID
}

// Begin opens a span under parent (a previous Begin result; 0 for a
// root) and returns its 1-based id. On a nil trace — or once the ring is
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
	idx := t.n.Add(1) - 1
	if idx >= int64(t.capacity) {
		return 0 // full: count the drop, record nothing
	}
	*t.slot(idx) = span{
		name:   name,
		parent: int32(parent),
		lane:   int32(lane),
		start:  int64(time.Since(t.start)),
		dur:    -1,
	}
	return int(idx) + 1
}

// End closes span id at now. Accepts 0 (from a disabled or full Begin).
func (t *Trace) End(id int) {
	if t == nil || id <= 0 {
		return
	}
	sp := t.slot(int64(id - 1))
	sp.dur = int64(time.Since(t.start)) - sp.start
}

// EndDetail is End plus a free-form detail annotation.
func (t *Trace) EndDetail(id int, detail string) {
	if t == nil || id <= 0 {
		return
	}
	sp := t.slot(int64(id - 1))
	sp.dur = int64(time.Since(t.start)) - sp.start
	sp.detail = detail
}

// RecordAt records a complete span with explicit start/end offsets from
// the trace origin instead of wall-clock reads. The simulator uses it to
// emit install/commit/retry events on the simulated clock, which is
// exactly the timeline a Chrome trace of a DAG execution should show.
func (t *Trace) RecordAt(name string, parent, lane int, start, end time.Duration, detail string) int {
	if t == nil {
		return 0
	}
	idx := t.n.Add(1) - 1
	if idx >= int64(t.capacity) {
		return 0
	}
	*t.slot(idx) = span{
		name:   name,
		detail: detail,
		parent: int32(parent),
		lane:   int32(lane),
		start:  int64(start),
		dur:    int64(end - start),
	}
	return int(idx) + 1
}

// Len reports the number of spans recorded (capped at capacity).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	n := int(t.n.Load())
	if n > t.capacity {
		n = t.capacity
	}
	return n
}

// Snapshot exports the recorded spans. Open spans are closed at snapshot
// time, so a mid-flight export (the repair path snapshots before its
// outer span ends) still renders.
func (t *Trace) Snapshot() *TraceData {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.start))
	n := t.Len()
	d := &TraceData{
		RequestID: t.requestID,
		Spans:     make([]SpanData, n),
	}
	if total := int(t.n.Load()); total > n {
		d.Dropped = total - n
	}
	for i := 0; i < n; i++ {
		sp := t.slot(int64(i))
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

// WithTracing marks the context as requesting a per-request trace
// (the daemon's ?trace=1); the pool attaches a trace ring to the
// tenant's session for exactly that request.
func WithTracing(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxTracing, true)
}

// TracingFrom reports whether the context requests a trace.
func TracingFrom(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	on, _ := ctx.Value(ctxTracing).(bool)
	return on
}
