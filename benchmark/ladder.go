package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/server"
)

// The ladder replays one workload's identical request sequence with one
// sequential client at four rungs, each adding one layer:
//
//	session  core.Session.Synthesize, in-process
//	pool     server.Pool.Synthesize, in-process
//	daemon   HTTP to a netupdated subprocess
//	lb       HTTP through netupdatelb to that daemon
//
// so a layer's self time is the p50 difference between adjacent rungs,
// measured entirely from outside the programs:
//
//	server.pool_self_us      = pool - session
//	netupdated.http_self_us  = daemon - pool
//	netupdatelb.hop_us       = lb - daemon
//
// and the three add up to lb - session by construction.

// rungNames in climbing order.
var rungNames = []string{"session", "pool", "daemon", "lb"}

// rung is what one rung measured.
type rung struct {
	lat       []float64 // ms per timed op, request order
	p50       float64
	wallS     float64 // timed region
	attempted int
	failed    int
	firstFail string

	// session rung only: per-op engine statistics and which ops they are.
	stats      []core.Stats
	wants      []string
	allocs     float64 // heap allocations per timed op
	newSession []float64
	snapshotMS []float64
	restoreMS  []float64
	snapshotKB []float64

	registerMS []float64 // pool rung: Pool.Register per tenant

	// HTTP rungs.
	daemonM, lbM promMetrics
	lbCPU, lbRSS float64
	truncated    int // lb rung: responses the router cut short (counted, not failed: see serve.go)
}

// ladderPlan is how many ops each rung replays: per tenant, warm-up then
// timed, visiting tenants round-robin.
type ladderPlan struct{ warm, timed int }

// inproc replays the sequence against an in-process callee. call serves
// one decoded request for tenant ti and returns the plan or the engine's
// error; after is told the engine statistics of the op just served. A
// positive budget ends the timed region early, on a round boundary, once
// it is spent.
func inproc(w *workload, lp ladderPlan, budget time.Duration, tr *tracer, lane int, name string,
	call func(ti int, rl *requestLine) (*core.Plan, error), after func(want string, plan *core.Plan)) *rung {
	r := &rung{}
	streams := make([]*opStream, len(w.tenants))
	nodes := make([]int, len(w.tenants))
	for i, t := range w.tenants {
		streams[i] = t.ops()
	}
	var m0, m1 runtime.MemStats
	var begin time.Time
	total := (lp.warm + lp.timed) * len(w.tenants)
	for n := 0; n < total; n++ {
		if n == lp.warm*len(w.tenants) {
			runtime.ReadMemStats(&m0)
			begin = time.Now()
		}
		ti := n % len(w.tenants)
		if budget > 0 && ti == 0 && n > lp.warm*len(w.tenants) && time.Since(begin) > budget {
			break
		}
		o := streams[ti].next(nodes[ti])
		var rl requestLine
		if err := json.Unmarshal(o.line, &rl); err != nil {
			panic(err) // own line
		}
		t0 := time.Now()
		plan, err := call(ti, &rl)
		d := time.Since(t0)
		got := "error"
		switch {
		case err == nil && rl.Ack != nil:
			got = wantRepair
		case err == nil:
			got = wantPlan
		case errors.Is(err, core.ErrNoOrdering):
			got = wantImpossible
		}
		if plan != nil {
			nodes[ti] = len(plan.Updates())
		}
		r.attempted++
		if got != o.want {
			r.failed++
			if r.firstFail == "" {
				r.firstFail = fmt.Sprintf("%s rung, %s op %d: got %s (%v), generator expected %s", name, w.tenants[ti].name, n/len(w.tenants), got, err, o.want)
			}
		}
		if n >= lp.warm*len(w.tenants) {
			r.lat = append(r.lat, float64(d.Nanoseconds())/1e6)
			tr.span(trackLadder, lane, name+":"+o.want, t0, d, 0, "")
			if after != nil {
				after(o.want, plan)
			}
		}
	}
	r.wallS = time.Since(begin).Seconds()
	runtime.ReadMemStats(&m1)
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(r.lat))
	r.p50 = percentile(append([]float64(nil), r.lat...), 0.50)
	return r
}

// tenantBase decodes a tenant's registration document as the pool does.
func tenantBase(t *tenant) (*server.TenantSpec, *config.StreamBase, core.Options, error) {
	spec := new(server.TenantSpec)
	dec := json.NewDecoder(bytes.NewReader(t.spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, nil, core.Options{}, err
	}
	base, err := spec.StreamHeader.Build()
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	opts, err := spec.Options.Build()
	return spec, base, opts, err
}

// sessionRung is the bottom rung: each tenant's core.Session driven
// directly, doing what the pool does per request minus the pool itself
// (apply the delta to the current configuration, synthesize, advance).
func sessionRung(w *workload, lp ladderPlan, budget time.Duration, tr *tracer) (*rung, error) {
	type ten struct {
		base *config.StreamBase
		opts core.Options
		sess *core.Session
		cur  *config.Config
	}
	tens := make([]*ten, len(w.tenants))
	var newSession []float64
	for i, t := range w.tenants {
		_, base, opts, err := tenantBase(t)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sess, err := core.NewSession(base.Topo, base.Init, base.Specs, opts)
		if err != nil {
			return nil, err
		}
		newSession = append(newSession, float64(time.Since(t0).Nanoseconds())/1e6)
		sess.EnableCache() // the pool attaches a plan cache to every session
		tens[i] = &ten{base: base, opts: opts, sess: sess, cur: base.Init}
	}
	var r *rung
	var stats []core.Stats
	var wants []string
	var last int
	r = inproc(w, lp, budget, tr, 0, "session", func(ti int, rl *requestLine) (*core.Plan, error) {
		t := tens[ti]
		last = ti
		if rl.Ack != nil {
			plan, err := t.sess.Repair(rl.Ack.Committed, nil)
			if err == nil {
				t.cur = t.sess.Current()
			}
			return plan, err
		}
		target, err := t.base.Apply(t.cur, &rl.StreamDelta)
		if err != nil {
			return nil, err
		}
		plan, err := t.sess.Synthesize(target)
		if err == nil {
			t.cur = target
		}
		return plan, err
	}, func(want string, plan *core.Plan) {
		st := tens[last].sess.LastStats()
		if plan != nil {
			st = plan.Stats
		}
		stats = append(stats, st)
		wants = append(wants, want)
	})
	r.stats, r.wants, r.newSession = stats, wants, newSession
	// What the pool does to a session it evicts and later needs again.
	for _, t := range tens {
		t0 := time.Now()
		img, err := t.sess.Snapshot()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := core.RestoreSession(t.base.Topo, t.base.Specs, t.opts, img); err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.span(trackProbes, 1, "core.Session.Snapshot", t0, t1.Sub(t0), 0, "")
		tr.span(trackProbes, 1, "core.RestoreSession", t1, t2.Sub(t1), 0, "")
		r.snapshotMS = append(r.snapshotMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		r.restoreMS = append(r.restoreMS, float64(t2.Sub(t1).Nanoseconds())/1e6)
		r.snapshotKB = append(r.snapshotKB, float64(len(img))/1024)
	}
	return r, nil
}

// poolRung drives an in-process server.Pool configured as netupdated
// configures its own.
func poolRung(w *workload, lp ladderPlan, tr *tracer) (*rung, error) {
	pool := server.NewPool(server.PoolOptions{MaxSessions: w.maxSessions, DefaultTimeout: 30 * time.Second})
	ids := make([]string, len(w.tenants))
	var registerMS []float64
	for i, t := range w.tenants {
		spec, _, _, err := tenantBase(t)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		info, err := pool.Register(spec)
		if err != nil {
			return nil, err
		}
		registerMS = append(registerMS, float64(time.Since(t0).Nanoseconds())/1e6)
		ids[i] = info.ID
	}
	ctx := context.Background()
	r := inproc(w, lp, 0, tr, 1, "pool", func(ti int, rl *requestLine) (*core.Plan, error) {
		if rl.Ack != nil {
			return pool.Ack(ctx, ids[ti], rl.Ack)
		}
		return pool.Synthesize(ctx, ids[ti], &rl.StreamDelta)
	}, nil)
	r.registerMS = registerMS
	return r, pool.Close(ctx)
}

// httpRung drives a fresh stack over HTTP with one client, directly or
// through the router.
func httpRung(e *env, w *workload, lp ladderPlan, tr *tracer, lane int, name string) (*rung, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s, err := startStack(e, w, w.name+"-ladder-"+name, name == "lb")
	if err != nil {
		return nil, err
	}
	defer s.stop()
	d := newDriver(w, s)
	d.run(1, lp.warm, 0)
	skip := make([]int, len(d.records))
	for i, recs := range d.records {
		skip[i] = len(recs)
	}
	var cpu0 float64
	if s.lb != nil {
		if cpu0, err = procCPUSeconds(s.lb.pid()); err != nil {
			return nil, err
		}
	}
	wall := d.run(1, lp.timed, 0)
	r := &rung{wallS: wall.Seconds()}
	if r.daemonM, err = scrape(s.daemonURL); err != nil {
		return nil, err
	}
	if s.lb != nil {
		cpu1, err := procCPUSeconds(s.lb.pid())
		if err != nil {
			return nil, err
		}
		r.lbCPU = cpu1 - cpu0
		if r.lbRSS, err = procPeakRSSMB(s.lb.pid()); err != nil {
			return nil, err
		}
		if r.lbM, err = scrape(s.lbURL); err != nil {
			return nil, err
		}
	}
	for ti, recs := range d.records {
		for i := range recs {
			rec := &recs[i]
			rec.judge()
			r.attempted++
			switch {
			case rec.fail == "":
			case s.lb != nil && strings.HasPrefix(rec.fail, "transport:"):
				r.truncated++
				continue
			default:
				r.failed++
				if r.firstFail == "" {
					r.firstFail = fmt.Sprintf("%s rung, %s op %d: %s", name, w.tenants[ti].name, i, rec.fail)
				}
			}
			if i >= skip[ti] {
				r.lat = append(r.lat, rec.latMS)
				tr.span(trackLadder, lane, name+":"+rec.op.want, s.epoch.Add(time.Duration(rec.startNS)), time.Duration(rec.latMS*1e6), 0, "")
			}
		}
	}
	r.p50 = percentile(append([]float64(nil), r.lat...), 0.50)
	return r, nil
}

// climb runs all four rungs on the same sequence. The session rung goes
// first and may stop early when its share of the budget is spent; the
// rungs above replay exactly as many ops as it served.
func climb(e *env, w *workload, sz *sizes, budget time.Duration, tr *tracer) (map[string]*rung, error) {
	lp := ladderPlan{warm: w.warmup, timed: max(1, sz.ladderOps/len(w.tenants))}
	rungs := map[string]*rung{}
	var err error
	if rungs["session"], err = sessionRung(w, lp, budget/4, tr); err != nil {
		return nil, fmt.Errorf("session rung: %w", err)
	}
	lp.timed = len(rungs["session"].lat) / len(w.tenants)
	if rungs["pool"], err = poolRung(w, lp, tr); err != nil {
		return nil, fmt.Errorf("pool rung: %w", err)
	}
	if rungs["daemon"], err = httpRung(e, w, lp, tr, 2, "daemon"); err != nil {
		return nil, fmt.Errorf("daemon rung: %w", err)
	}
	if rungs["lb"], err = httpRung(e, w, lp, tr, 3, "lb"); err != nil {
		return nil, fmt.Errorf("lb rung: %w", err)
	}
	return rungs, nil
}
