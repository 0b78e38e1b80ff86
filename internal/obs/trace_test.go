package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	id := tr.Begin("a", 0)
	if id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	tr.End(id)
	ph := tr.Start("p", 0, 0)
	if ph.Span() != 0 {
		t.Fatalf("nil Start opened span %d", ph.Span())
	}
	if d := ph.EndDetail("d"); d < 0 {
		t.Fatalf("untraced phase took %v", d)
	}
	if tr.RecordAt("b", 0, 0, 0, time.Millisecond, "") != 0 {
		t.Fatal("nil RecordAt != 0")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil Snapshot != nil")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := TraceFrom(WithTracing(WithRequestID(context.Background(), "rid-1")))
	root := tr.Start("synthesize", 0, 0)
	child := tr.Begin("search", root.Span())
	tr.End(child)
	root.EndDetail("steps=3")
	d := tr.Snapshot()
	if d.RequestID != "rid-1" {
		t.Fatalf("RequestID = %q", d.RequestID)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("len(Spans) = %d", len(d.Spans))
	}
	if d.Spans[0].Name != "synthesize" || d.Spans[0].Parent != 0 {
		t.Fatalf("root span = %+v", d.Spans[0])
	}
	if d.Spans[1].Name != "search" || d.Spans[1].Parent != d.Spans[0].ID {
		t.Fatalf("child span = %+v", d.Spans[1])
	}
	if d.Spans[0].Detail != "steps=3" {
		t.Fatalf("detail = %q", d.Spans[0].Detail)
	}
	if d.Root() != 0 {
		t.Fatalf("Root() = %d", d.Root())
	}
	if d.Spans[1].DurUS < 0 || d.Spans[1].StartUS < d.Spans[0].StartUS {
		t.Fatalf("span times: %+v", d.Spans)
	}
}

func TestOpenSpanClosedAtSnapshot(t *testing.T) {
	tr := NewTrace(4)
	tr.Begin("open", 0)
	d := tr.Snapshot()
	if d.Spans[0].DurUS < 0 {
		t.Fatalf("open span exported with dur %v", d.Spans[0].DurUS)
	}
}

func TestRingOverflowCountsDrops(t *testing.T) {
	tr := NewTrace(2)
	a := tr.Begin("a", 0)
	b := tr.Begin("b", a)
	c := tr.Begin("c", a)
	if a == 0 || b == 0 {
		t.Fatalf("in-capacity Begin returned 0: %d %d", a, b)
	}
	if c != 0 {
		t.Fatalf("overflow Begin = %d, want 0", c)
	}
	tr.End(c) // must not panic
	d := tr.Snapshot()
	if len(d.Spans) != 2 || d.Dropped != 1 {
		t.Fatalf("spans=%d dropped=%d", len(d.Spans), d.Dropped)
	}
	// A phase over a full trace is still timed.
	ph := tr.Start("late", a, 0)
	if ph.Span() != 0 || ph.End() < 0 {
		t.Fatalf("phase over a full trace: span %d", ph.Span())
	}
	if d := tr.Snapshot(); len(d.Spans) != 2 || d.Dropped != 2 {
		t.Fatalf("spans=%d dropped=%d", len(d.Spans), d.Dropped)
	}
}

// TestPhaseIsItsSpan: a phase's duration is its span's, to the
// nanosecond, from goroutines recording concurrently too.
func TestPhaseIsItsSpan(t *testing.T) {
	tr := NewTrace(0)
	root := tr.Start("root", 0, 0)
	durs := make([][]time.Duration, 4)
	ids := make([][]int, 4)
	var wg sync.WaitGroup
	for g := range durs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ph := tr.Start("w", root.Span(), g+1)
				ids[g] = append(ids[g], ph.Span())
				durs[g] = append(durs[g], ph.End())
			}
		}()
	}
	wg.Wait()
	total := root.End()
	d := tr.Snapshot()
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	if got := ns(d.Spans[0].DurUS); got != total {
		t.Fatalf("root span %v, phase %v", got, total)
	}
	for g := range durs {
		for i, id := range ids[g] {
			sp := d.Spans[id-1]
			if sp.Lane != g+1 || sp.Parent != root.Span() {
				t.Fatalf("span %+v", sp)
			}
			if got := ns(sp.DurUS); got != durs[g][i] {
				t.Fatalf("span %d: %v, phase %v", id, got, durs[g][i])
			}
		}
	}
}

func TestConcurrentBegin(t *testing.T) {
	tr := NewTrace(1024)
	root := tr.Begin("root", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.BeginLane("w", root, lane)
				tr.End(id)
			}
		}(g + 1)
	}
	wg.Wait()
	d := tr.Snapshot()
	if len(d.Spans) != 801 {
		t.Fatalf("got %d spans, want 801", len(d.Spans))
	}
	for _, sp := range d.Spans[1:] {
		if sp.Parent != root {
			t.Fatalf("span %+v has wrong parent", sp)
		}
	}
}

func TestRecordAtUsesExplicitClock(t *testing.T) {
	tr := NewTrace(4)
	tr.RecordAt("install", 0, 3, 2*time.Millisecond, 7*time.Millisecond, "sw=3")
	d := tr.Snapshot()
	sp := d.Spans[0]
	if sp.StartUS != 2000 || sp.DurUS != 5000 || sp.Lane != 3 || sp.Detail != "sw=3" {
		t.Fatalf("RecordAt span = %+v", sp)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := TraceFrom(WithTracing(WithRequestID(context.Background(), "rid-9")))
	root := tr.Begin("synthesize", 0)
	tr.Start("search", root, 0).EndDetail("units=4")
	tr.End(root)
	sim := NewTrace(8)
	sim.RecordAt("install", 0, 1, 0, time.Millisecond, "sw=0")

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot(), sim.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v", ev["ph"])
		}
	}
	if args, ok := evs[0]["args"].(map[string]any); !ok || args["requestId"] != "rid-9" {
		t.Fatalf("root event missing requestId: %v", evs[0])
	}
	if evs[2]["pid"].(float64) != 2 {
		t.Fatalf("second trace should render as pid 2: %v", evs[2])
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.End(tr.Begin("a", 0))
	tr.End(tr.Begin("b", 0))
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var sp SpanData
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d JSONL lines, want 2", lines)
	}
}

func TestRequestIDContext(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 || strings.ContainsAny(id, " \n") {
		t.Fatalf("NewRequestID = %q", id)
	}
	if id == NewRequestID() {
		t.Fatal("request ids collide")
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatal("empty ctx has request id")
	}
	if TraceFrom(ctx) != nil {
		t.Fatal("tracing set unexpectedly")
	}
	tr := TraceFrom(WithTracing(ctx))
	if tr == nil {
		t.Fatal("WithTracing not visible")
	}
	if tr.Snapshot().RequestID != id {
		t.Fatal("the trace is not stamped with the request id")
	}
}
