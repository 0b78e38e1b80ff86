package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"netupdate/internal/core"
	"netupdate/internal/server"
)

// TestPoolAckRepair: the plan-step ack surface of the pool. Commit acks
// are bookkeeping; a failure report repairs the tenant's warm session
// from the reported committed state and returns the repair plan; invalid
// reports are rejected with the session intact.
func TestPoolAckRepair(t *testing.T) {
	loads, err := makeTenantLoads(1, 40, 2, server.OptionsSpec{}, 17)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{Workers: 1})
	info, err := p.Register(loads[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Commit acks never need a session.
	if plan, err := p.Ack(ctx, info.ID, &server.StepAck{Step: 0}); err != nil || plan != nil {
		t.Fatalf("commit ack = (%v, %v), want (nil, nil)", plan, err)
	}
	// A failure report before any plan has nothing to repair from.
	if _, err := p.Ack(ctx, info.ID, &server.StepAck{Failed: true}); !errors.Is(err, core.ErrNoPlan) {
		t.Fatalf("pre-plan failure ack: err = %v, want core.ErrNoPlan", err)
	}

	plan, err := p.Synthesize(ctx, info.ID, &loads[0].Deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	// A bogus committed set is rejected and the session stays usable.
	if _, err := p.Ack(ctx, info.ID, &server.StepAck{Failed: true, Committed: []int{99}}); !errors.Is(err, core.ErrBadCommit) {
		t.Fatalf("bad committed: err = %v, want core.ErrBadCommit", err)
	}
	// Nothing committed before the stall: the repair re-derives the
	// original plan from the initial configuration (the search is
	// deterministic at Parallel: 1).
	rep, err := p.Ack(ctx, info.ID, &server.StepAck{Failed: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != plan.String() {
		t.Fatalf("zero-commit repair diverged:\nrepair %s\nplan   %s", rep, plan)
	}
	// A dependency-closed partial commit (one DAG root) repairs too.
	root := -1
	for i, ps := range plan.DAG.Preds {
		if len(ps) == 0 {
			root = i
			break
		}
	}
	if root < 0 {
		t.Fatalf("plan has no root node: %+v", plan.DAG)
	}
	rep2, err := p.Ack(ctx, info.ID, &server.StepAck{Failed: true, Committed: []int{root}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2 == nil || rep2.Stats.RepairCommitted != 1 {
		t.Fatalf("partial-commit repair = %+v", rep2)
	}
	// The tenant serves the next delta from its realigned state.
	if _, err := p.Synthesize(ctx, info.ID, &loads[0].Deltas[1]); err != nil {
		t.Fatalf("tenant dead after repair: %v", err)
	}

	if a, r, f := p.Metric("step_acks_total"), p.Metric("repairs_total"), p.Metric("repair_failures_total"); a != 1 || r != 2 || f != 2 {
		t.Fatalf("pool counts %g acks, %g repairs, %g repair failures", a, r, f)
	}
	ts, err := p.TenantStats(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Acks != 1 || ts.Repairs != 2 {
		t.Fatalf("tenant stats = %+v", ts)
	}
}

// TestPoolAckEvictedSession: a failure report against a cold-evicted
// session cannot be repaired (the warm crash-tracking state is gone) and
// says so with core.ErrNoPlan; the client falls back to a fresh delta.
func TestPoolAckEvictedSession(t *testing.T) {
	loads, err := makeTenantLoads(2, 40, 1, server.OptionsSpec{}, 29)
	if err != nil {
		t.Fatal(err)
	}
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 1})
	ctx := context.Background()
	var ids []string
	for _, tl := range loads {
		info, err := p.Register(tl.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if _, err := p.Synthesize(ctx, ids[0], &loads[0].Deltas[0]); err != nil {
		t.Fatal(err)
	}
	// Tenant 1's synthesis evicts tenant 0's session (budget 1).
	if _, err := p.Synthesize(ctx, ids[1], &loads[1].Deltas[0]); err != nil {
		t.Fatal(err)
	}
	_, aerr := p.Ack(ctx, ids[0], &server.StepAck{Failed: true})
	if !errors.Is(aerr, core.ErrNoPlan) || !strings.Contains(aerr.Error(), "evicted") {
		t.Fatalf("evicted failure ack: err = %v, want evicted + core.ErrNoPlan", aerr)
	}
	if f := p.Metric("repair_failures_total"); f != 1 {
		t.Fatalf("repair failures = %g", f)
	}
}

// TestHTTPAckRepairStream: acks ride the synthesize stream — a plan
// line, an "acked" line for the commit, a "repair" plan line for the
// failure report, and the repair counters land in /metrics.
func TestHTTPAckRepairStream(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	info := register(t, ts, lineSpec)

	body := strings.Join([]string{
		`{"reroute":[{"class":"c","path":[0,2,3]}]}`,
		`{"ack":{"step":0}}`,
		`{"ack":{"failed":true}}`,
	}, "\n") + "\n"
	resp, err := http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []server.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r server.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Result != "plan" || len(results[0].Steps) == 0 {
		t.Fatalf("first = %+v", results[0])
	}
	if results[1].Result != "acked" || results[1].Seq != 2 {
		t.Fatalf("commit ack = %+v", results[1])
	}
	if results[2].Result != "repair" || len(results[2].Steps) == 0 ||
		results[2].Stats == nil || results[2].DAG == nil {
		t.Fatalf("repair = %+v", results[2])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(strings.Builder)
	if _, err := bufio.NewReader(mresp.Body).WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"netupdate_step_acks_total 1",
		"netupdate_repairs_total 1",
		"netupdate_repair_failures_total 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf)
		}
	}
}

// TestServeStdioAckRepair: the same ack lines work on the stdin/stdout
// surface.
func TestServeStdioAckRepair(t *testing.T) {
	in := strings.Join([]string{
		strings.TrimSpace(stdioStream[:strings.Index(stdioStream, "\n{\"reroute\"")]),
		`{"reroute":[{"class":"c","path":[0,2,3]}]}`,
		`{"ack":{"step":0}}`,
		`{"ack":{"failed":true}}`,
	}, "\n") + "\n"
	p := server.NewPool(server.PoolOptions{Workers: 1})
	var out, errw lockedBuffer
	if err := server.ServeStdio(context.Background(), strings.NewReader(in),
		&out, &errw, p, core.Options{}, true); err != nil {
		t.Fatal(err)
	}
	lines := out.lines()
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	var kinds []string
	for _, l := range lines {
		var r server.Result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		kinds = append(kinds, r.Result)
	}
	if kinds[0] != "plan" || kinds[1] != "acked" || kinds[2] != "repair" {
		t.Fatalf("kinds = %v", kinds)
	}
}
