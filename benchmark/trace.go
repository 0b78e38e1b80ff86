package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"netupdate/internal/obs"
)

// Benchmark-side spans: one around every call the benchmark makes during
// a traced run (client request, in-process rung call, timed layer call,
// CLI invocation), kept in memory and written at exit as Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev). Spans inside the
// programs are not added here; the span tree the daemon already exports
// for a ?trace=1 request is attached under the client span that carried
// the same X-Netupdate-Request-Id.

// Tracks (Chrome "pid") of the written trace.
const (
	trackClient = iota + 1 // client requests, one lane per tenant, daemon span trees nested below
	trackLadder            // one lane per rung
	trackProbes            // timed layer calls
	trackCLI               // netupdate invocations
)

var trackNames = map[int]string{trackClient: "client requests", trackLadder: "ladder rungs", trackProbes: "layer probes", trackCLI: "netupdate CLI"}

// tracer collects spans. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []chromeEvent
}

// chromeEvent is one complete ("X") or metadata ("M") trace event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span records [start, start+dur) on a track and lane and returns the
// span's id. Parent is the id of the span that caused it (0: none).
func (t *tracer) span(track, lane int, name string, start time.Time, dur time.Duration, parent int, reqID string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	args := map[string]any{"id": id}
	if parent != 0 {
		args["parent"] = parent
	}
	if reqID != "" {
		args["requestId"] = reqID
	}
	t.spans = append(t.spans, chromeEvent{
		Name: name, Ph: "X", PID: track, TID: lane + 1, Args: args,
		TS: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3, Dur: float64(dur.Nanoseconds()) / 1e3,
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(track, lane int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.span(track, lane, name, t0, d, 0, "")
	return d
}

// attach nests a daemon-exported span tree under the client span that
// carried its request id. The daemon's clock origin is unknown to the
// client, so the tree is centred in the client span: the gap on either
// side is the request's time outside the traced engine run.
func (t *tracer) attach(lane int, client time.Time, clientDur time.Duration, parent int, d *obs.TraceData) {
	if t == nil || d == nil || d.Root() < 0 {
		return
	}
	root := d.Spans[d.Root()]
	offset := float64(client.Sub(t.epoch).Nanoseconds())/1e3 + (float64(clientDur.Nanoseconds())/1e3-root.DurUS)/2 - root.StartUS
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, sp := range d.Spans {
		args := map[string]any{"id": base + sp.ID, "parent": parent, "requestId": d.RequestID}
		if sp.Parent != 0 {
			args["parent"] = base + sp.Parent
		}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		t.spans = append(t.spans, chromeEvent{
			Name: "netupdated:" + sp.Name, Ph: "X", PID: trackClient, TID: lane + 1, Args: args,
			TS: offset + sp.StartUS, Dur: sp.DurUS,
		})
	}
}

// write saves the collected spans as a Chrome trace-event array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans)+len(trackNames))
	for pid := trackClient; pid <= trackCLI; pid++ {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": trackNames[pid]}})
	}
	evs = append(evs, t.spans...)
	b, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
