package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/server"
)

// TestEvictionIsInvisibleInAnswers drives one scripted stream over three
// tenants through two pools: one with a budget of one session, where every
// request that changes tenant parks one session and resumes another, and
// an unbounded one. The script has reroutes, a flap back the plan cache
// answers, an infeasible intent asked twice (the second answer is the
// memo's), a target that violates its class and commit acks. Both pools
// must write the same result lines, durations aside, and count the same
// per tenant; the bounded one must have resumed exactly the requests that
// found their tenant parked, and rebuilt none cold. A failure ack for a
// plan whose tenant was evicted since is refused: a parked handle carries
// no repair state.
func TestEvictionIsInvisibleInAnswers(t *testing.T) {
	flap, err := makeTenantLoad("flap", 60, 0, server.OptionsSpec{}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(flap.Pairs) < 2 {
		t.Fatalf("%d diamonds on the flap tenant, want 2", len(flap.Pairs))
	}
	retry, err := makeRetryLoad("retry", 40, 1, server.OptionsSpec{}, 43)
	if err != nil {
		t.Fatal(err)
	}
	waypointed := &server.TenantSpec{StreamHeader: config.StreamHeader{
		Name: "waypointed",
		Topology: config.TopologyFile{
			Switches: 4,
			Links:    [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}},
			Hosts:    []config.HostFile{{ID: 100, Switch: 0}, {ID: 101, Switch: 3}},
		},
		Classes: []config.StreamClass{{Name: "c", Src: 100, Dst: 101, Path: []int{0, 1, 3}, Spec: "sw=0 -> F sw=1"}},
	}}
	specs := []*server.TenantSpec{flap.Spec, retry.Spec, waypointed}

	move := func(pi int, onB bool) *config.StreamDelta {
		p := flap.Pairs[pi]
		path := p.A
		if onB {
			path = p.B
		}
		return &config.StreamDelta{Reroute: []config.Reroute{{Class: p.Class, Path: path}}}
	}
	infeasible := &retry.Deltas[0]
	violating := &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 2, 3}}}}
	type request struct {
		tenant int
		delta  *config.StreamDelta
		ack    *server.StepAck
		want   string
	}
	script := []request{
		{tenant: 0, delta: move(0, true), want: "plan"},
		{tenant: 1, delta: infeasible, want: "impossible"},
		{tenant: 2, delta: violating, want: "error"},
		{tenant: 0, ack: &server.StepAck{Step: 0}, want: "acked"},
		{tenant: 1, delta: infeasible, want: "impossible"},
		{tenant: 0, delta: move(0, false), want: "plan"},
		{tenant: 2, ack: &server.StepAck{Step: 0}, want: "acked"},
		{tenant: 0, delta: move(0, true), want: "plan"}, // the first request again: a cache hit
		{tenant: 2, delta: violating, want: "error"},
		{tenant: 0, delta: move(1, true), want: "plan"},
	}

	ctx := context.Background()
	type run struct {
		p     *server.Pool
		ids   []string
		lines []string
	}
	serve := func(budget int) *run {
		r := &run{p: server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: budget})}
		for _, spec := range specs {
			info, err := r.p.Register(spec)
			if err != nil {
				t.Fatal(err)
			}
			r.ids = append(r.ids, info.ID)
		}
		for n, req := range script {
			id := r.ids[req.tenant]
			reqCtx := obs.WithRequestID(ctx, fmt.Sprintf("req-%d", n))
			var res server.Result
			if req.ack != nil {
				plan, err := r.p.Ack(reqCtx, id, req.ack)
				res = server.NewAckResult(n+1, id, plan, err)
			} else {
				plan, err := r.p.Synthesize(reqCtx, id, req.delta)
				res = server.NewResult(n+1, id, plan, err)
			}
			if res.Result != req.want {
				t.Fatalf("budget %d, request %d: %q (%s), want %q", budget, n, res.Result, res.Error, req.want)
			}
			if st := res.Stats; st != nil {
				st.ElapsedMS, st.RebindMS, st.SearchMS, st.WaitRemovalMS, st.VerifyMS, st.CacheVerifyMS = 0, 0, 0, 0, 0, 0
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			r.lines = append(r.lines, string(line))
		}
		return r
	}

	// Which requests find their tenant parked at a budget of one: those
	// that need a session for a tenant other than the last one that had it.
	parked, warm := 0, len(specs)-1
	for _, req := range script {
		if req.delta != nil && req.tenant != warm {
			parked, warm = parked+1, req.tenant
		}
	}
	bounded, unbounded := serve(1), serve(-1)
	for n := range script {
		if bounded.lines[n] != unbounded.lines[n] {
			t.Fatalf("request %d answered\n%s\nat a budget of one session, and\n%s\nunbounded", n, bounded.lines[n], unbounded.lines[n])
		}
	}
	for i, id := range bounded.ids {
		b, err := bounded.p.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		u, err := unbounded.p.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if b.Plans != u.Plans || b.Failures != u.Failures || b.CacheHits != u.CacheHits || b.CacheMisses != u.CacheMisses || b.Acks != u.Acks {
			t.Errorf("tenant %d: plans, failures, cache hits, misses, acks %d %d %d %d %d bounded, %d %d %d %d %d unbounded", i,
				b.Plans, b.Failures, b.CacheHits, b.CacheMisses, b.Acks, u.Plans, u.Failures, u.CacheHits, u.CacheMisses, u.Acks)
		}
	}
	if st, _ := bounded.p.TenantStats(bounded.ids[0]); st.CacheHits != 1 {
		t.Errorf("the flap back: %d cache hits, want 1", st.CacheHits)
	}
	if st, _ := bounded.p.TenantStats(bounded.ids[1]); st.CacheHits != 1 {
		t.Errorf("the infeasible intent asked again: %d memo hits, want 1", st.CacheHits)
	}
	if got := bounded.p.Metric("snapshot_restores_total"); got != float64(parked) {
		t.Errorf("%g resumes, %d requests found their tenant parked", got, parked)
	}
	if got := bounded.p.Metric("cold_rebuilds_total"); got != 0 {
		t.Errorf("%g cold rebuilds", got)
	}

	// The flap tenant's last plan was issued before the waypointed
	// tenant's request evicted it.
	if _, err := bounded.p.Synthesize(ctx, bounded.ids[2], violating); err == nil {
		t.Fatal("the violating target was served")
	}
	_, err = bounded.p.Ack(ctx, bounded.ids[0], &server.StepAck{Failed: true, Committed: []int{}})
	want := fmt.Sprintf("server: tenant %s: session evicted, cannot repair: %v", bounded.ids[0], core.ErrNoPlan)
	if err == nil || err.Error() != want {
		t.Errorf("failure ack after eviction: %v, want %q", err, want)
	}
	for _, r := range []*run{bounded, unbounded} {
		if err := r.p.CheckAtRest(); err != nil {
			t.Error(err)
		}
	}
}
