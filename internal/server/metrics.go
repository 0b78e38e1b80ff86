package server

import (
	"errors"
	"sync/atomic"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/obs"
)

// outcome is how one request finished. A request is classified once and
// counted once, on its tenant (tenantCounters.count). Everything else is
// a view of those counts: the pool-wide families on GET /metrics are
// sums over the tenants, sampled at render time, and GET
// /v1/tenants/{id}/stats is one tenant's row — so the two cannot
// disagree, and no counter can be bumped in one place and forgotten in
// another.
type outcome int

const (
	outPlan         outcome = iota // synthesis answered with a plan
	outInfeasible                  // no correct ordering exists
	outFailed                      // any other engine or session-rebuild failure
	outBadDelta                    // semantically invalid delta; the engine never ran
	outShed                        // refused by the tenant's queue bound
	outExpired                     // deadline fired, queued or mid-search
	outCanceled                    // context canceled, queued or mid-search
	outAcked                       // commit ack recorded
	outRepaired                    // failure ack answered with a repair plan
	outRepairFailed                // failure ack that could not be repaired
	numOutcomes
)

// outcomeFamilies are the /metrics counters of the outcomes, rendered in
// this order.
var outcomeFamilies = [numOutcomes]struct{ name, help string }{
	outPlan:         {"netupdate_plans_total", "Requests answered with a plan."},
	outInfeasible:   {"netupdate_infeasible_total", "Requests with no correct ordering."},
	outFailed:       {"netupdate_failures_total", "Requests failed for other reasons."},
	outBadDelta:     {"netupdate_bad_requests_total", "Semantically invalid deltas."},
	outShed:         {"netupdate_rejected_queue_full_total", "Requests shed by per-tenant queue bounds."},
	outExpired:      {"netupdate_deadline_expired_total", "Requests whose deadline fired."},
	outCanceled:     {"netupdate_canceled_total", "Requests canceled by the client."},
	outAcked:        {"netupdate_step_acks_total", "Plan-step commit acks recorded."},
	outRepaired:     {"netupdate_repairs_total", "Failure acks answered with a repair plan."},
	outRepairFailed: {"netupdate_repair_failures_total", "Failure acks that could not be repaired."},
}

// outcomeOf classifies a synthesis error (or a queued request's expiry).
func outcomeOf(err error) outcome {
	switch {
	case err == nil:
		return outPlan
	case errors.Is(err, core.ErrNoOrdering):
		return outInfeasible
	case errors.Is(err, core.ErrCanceled):
		return outCanceled
	case errors.Is(err, core.ErrTimeout):
		return outExpired
	}
	return outFailed
}

// tenantCounters is one tenant's serving record.
type tenantCounters struct {
	// requests is the tenant's netupdate_tenant_requests_total series,
	// resolved once at Register.
	requests *obs.Counter
	outcomes [numOutcomes]atomic.Int64
	// Session constructions after the first (evict → rebuild round trips
	// and installed migration images), split by how they were served: from
	// a snapshot, or by a cold build. Rebuilds are their sum, so no view
	// of the split can go negative.
	restores, coldRebuilds atomic.Int64
	// snapRejects counts the session images that did not become the
	// tenant's warm state: refused outright, or in an older format and
	// kept for their configuration only (which is also a cold rebuild).
	snapRejects atomic.Int64
	// classBuilds counts the classes requests built on first need: what a
	// restored session's first requests pay that a warm one's do not.
	classBuilds            atomic.Int64
	cacheHits, cacheMisses atomic.Int64
	// runs counts engine calls (syntheses and repairs), with the last and
	// total engine time.
	runs, lastNS, totalNS atomic.Int64
}

func (c *tenantCounters) count(o outcome) { c.outcomes[o].Add(1) }

// ran records one engine call and its latency, in the tenant's totals and
// in the pool histogram the call belongs to (hit, miss, or repair).
func (c *tenantCounters) ran(lat *obs.Histogram, elapsed time.Duration) {
	c.runs.Add(1)
	c.lastNS.Store(elapsed.Nanoseconds())
	c.totalNS.Add(elapsed.Nanoseconds())
	lat.Observe(elapsed)
}

func (c *tenantCounters) rebuilds() int64 { return c.restores.Load() + c.coldRebuilds.Load() }

// failures is every admitted request that was answered with neither a
// plan nor an ack, bad deltas aside.
func (c *tenantCounters) failures() int64 {
	var n int64
	for _, o := range [...]outcome{outInfeasible, outFailed, outExpired, outCanceled, outRepairFailed} {
		n += c.outcomes[o].Load()
	}
	return n
}

// poolMetrics are the pool's own instruments: the events that belong to
// no tenant (requests for unknown tenants are still requests), and the
// latency histograms. Synthesis latency is split three ways — plan-cache
// hit, full-search miss, and repair — so tail inspection does not
// conflate a sub-millisecond replay with a multi-second cold search.
type poolMetrics struct {
	reg *obs.Registry

	requests, evictions *obs.Counter

	queueWait   *obs.Histogram
	synthHit    *obs.Histogram
	synthMiss   *obs.Histogram
	synthRepair *obs.Histogram
	snapRestore *obs.Histogram
	// sessionEvict times what an eviction costs the request that triggered
	// it: capturing the snapshot, under the pool mutex.
	sessionEvict *obs.Histogram
	// hitDistance is each plan-cache hit's distance
	// (core.Stats.CacheHitDistance): how far back in its store's
	// insertions the answer sat, which is what a store's bound must reach.
	hitDistance *obs.Histogram

	tenantRequests *obs.CounterVec
}

// initMetrics registers the pool's metric families in the order /metrics
// has always rendered them. Gauges and tenant sums sample the pool at
// render time, so /metrics needs no snapshotting pass of its own.
func (p *Pool) initMetrics() {
	reg := obs.NewRegistry()
	m := &p.m
	m.reg = reg
	// sum is a family whose value is a per-tenant quantity added up.
	sum := func(of func(*tenant) int64) func() float64 {
		return func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			var n int64
			for _, t := range p.tenants {
				n += of(t)
			}
			return float64(n)
		}
	}
	learned := func(of func(core.PlanCacheStats) int64) func() float64 {
		return func() float64 { return float64(of(p.learnTotals())) }
	}

	reg.Gauge("netupdate_pool_tenants", "Registered tenants.", sum(func(*tenant) int64 { return 1 }))
	reg.Gauge("netupdate_pool_warm_sessions", "Sessions currently held warm.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.lru.Len())
	})
	reg.Gauge("netupdate_pool_workers", "Global synthesis worker budget.", func() float64 {
		return float64(cap(p.slots))
	})
	m.requests = reg.Counter("netupdate_requests_total", "Synthesis requests received.")
	for o, fam := range outcomeFamilies {
		o := outcome(o)
		reg.FuncCounter(fam.name, fam.help, sum(func(t *tenant) int64 { return t.outcomes[o].Load() }))
	}
	m.evictions = reg.Counter("netupdate_evictions_total", "Warm sessions evicted under the LRU budget.")
	reg.FuncCounter("netupdate_session_rebuilds_total", "Sessions rebuilt after eviction.",
		sum(func(t *tenant) int64 { return t.rebuilds() }))
	reg.FuncCounter("netupdate_snapshot_restores_total", "Rebuilds served by resuming a parked session or installing an image.",
		sum(func(t *tenant) int64 { return t.restores.Load() }))
	reg.FuncCounter("netupdate_cold_rebuilds_total", "Rebuilds that paid the full cold construction.",
		sum(func(t *tenant) int64 { return t.coldRebuilds.Load() }))
	reg.FuncCounter("netupdate_snapshot_rejects_total", "Session images refused, or kept for their configuration only and rebuilt cold.",
		sum(func(t *tenant) int64 { return t.snapRejects.Load() }))
	reg.FuncCounter("netupdate_class_builds_total", "Classes a request built on first need, on a session restored with none.",
		sum(func(t *tenant) int64 { return t.classBuilds.Load() }))
	reg.Gauge("netupdate_shared_arenas", "Distinct topology shapes with a shared state arena.", func() float64 {
		return float64(p.arenas.len())
	})
	reg.FuncCounter("netupdate_queue_wait_seconds_total", "Total time requests spent queued.", func() float64 {
		return m.queueWait.SumSeconds()
	})
	reg.FuncCounter("netupdate_synthesis_seconds_total", "Total engine time.", func() float64 {
		return m.synthHit.SumSeconds() + m.synthMiss.SumSeconds() + m.synthRepair.SumSeconds()
	})
	reg.Gauge("netupdate_synthesis_seconds_max", "Slowest synthesis so far.", func() float64 {
		return float64(max(m.synthHit.MaxNanos(), m.synthMiss.MaxNanos(), m.synthRepair.MaxNanos())) / 1e9
	})
	reg.FuncCounter("netupdate_plan_cache_hits_total", "Syntheses served from the verification-first plan cache.",
		learned(func(c core.PlanCacheStats) int64 { return c.Hits }))
	reg.FuncCounter("netupdate_plan_cache_misses_total", "Syntheses that ran the full search with a cache attached.",
		learned(func(c core.PlanCacheStats) int64 { return c.Misses }))
	reg.FuncCounter("netupdate_plan_cache_verify_failures_total", "Cached plans that failed replay verification and were evicted.",
		learned(func(c core.PlanCacheStats) int64 { return c.VerifyFailures }))
	reg.FuncCounter("netupdate_plan_cache_evictions_total", "Plan-cache capacity evictions.",
		learned(func(c core.PlanCacheStats) int64 { return c.Evictions }))
	reg.Gauge("netupdate_plan_cache_entries", "Cached instances across all shared learning stores.",
		learned(func(c core.PlanCacheStats) int64 { return int64(c.Entries) }))
	reg.Gauge("netupdate_learn_stores", "Shared cross-tenant learning stores held.", func() float64 {
		return float64(p.learn.len())
	})

	m.queueWait = reg.Histogram("netupdate_queue_wait_seconds", "Time requests spent waiting for the tenant gate and a worker slot.")
	m.synthHit = reg.Histogram("netupdate_synthesis_hit_seconds", "Synthesis latency of plan-cache hits.")
	m.synthMiss = reg.Histogram("netupdate_synthesis_miss_seconds", "Synthesis latency of full-search runs (including failures).")
	m.synthRepair = reg.Histogram("netupdate_synthesis_repair_seconds", "Synthesis latency of repair runs.")
	m.snapRestore = reg.Histogram("netupdate_snapshot_restore_seconds", "Time to resume an evicted session.")
	m.sessionEvict = reg.Histogram("netupdate_session_evict_seconds", "Time to park an evicted session.")
	distance := []float64{0} // powers of two up to the plan cache's bound, which ends them
	for n := 1; n < core.DefaultPlanCacheEntries; n *= 2 {
		distance = append(distance, float64(n))
	}
	m.hitDistance = reg.CountHistogram("netupdate_plan_cache_hit_distance",
		"Entries a plan cache stored between the store of the entry a hit used and the hit.", append(distance, core.DefaultPlanCacheEntries))
	m.tenantRequests = reg.CounterVec("netupdate_tenant_requests_total", "Requests received per tenant.", "tenant")
}

// Metrics exposes the pool's metric registry: GET /metrics renders it, and
// Registry.Value reads one family by name.
func (p *Pool) Metrics() *obs.Registry { return p.m.reg }
