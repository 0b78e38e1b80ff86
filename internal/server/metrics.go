package server

import (
	"netupdate/internal/obs"
)

// poolMetrics are the pool's registry-backed serving instruments behind
// GET /metrics. Every family the hand-rolled writer used to emit keeps
// its exact name, help text, and type; the latency totals that were bare
// counters (queue wait, synthesis seconds, synthesis max) are now derived
// from real histograms, which /metrics additionally exposes with full
// bucket series. Synthesis latency is split three ways — plan-cache hit,
// full-search miss, and repair — so tail inspection does not conflate a
// sub-millisecond replay with a multi-second cold search.
type poolMetrics struct {
	reg *obs.Registry

	requests, plans, infeasible, failures *obs.Counter
	badRequests                           *obs.Counter
	rejectedQueue, expired, canceled      *obs.Counter
	acks, repairs, repairFailures         *obs.Counter
	evictions, rebuilds, snapshotRestores *obs.Counter

	queueWait   *obs.Histogram
	synthHit    *obs.Histogram
	synthMiss   *obs.Histogram
	synthRepair *obs.Histogram
	snapRestore *obs.Histogram
	// sessionEvict times what an eviction costs the request that triggered
	// it: capturing the snapshot, under the pool mutex.
	sessionEvict *obs.Histogram

	tenantRequests *obs.CounterVec
}

// initMetrics registers the pool's metric families in the order /metrics
// has always rendered them, with the histogram and per-tenant families
// appended after. Gauges and derived counters sample the pool at render
// time, so /metrics needs no snapshotting pass of its own.
func (p *Pool) initMetrics() {
	reg := obs.NewRegistry()
	m := &p.m
	m.reg = reg

	reg.Gauge("netupdate_pool_tenants", "Registered tenants.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.tenants))
	})
	reg.Gauge("netupdate_pool_warm_sessions", "Sessions currently held warm.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.lru.Len())
	})
	reg.Gauge("netupdate_pool_workers", "Global synthesis worker budget.", func() float64 {
		return float64(p.opts.workers())
	})
	m.requests = reg.Counter("netupdate_requests_total", "Synthesis requests received.")
	m.plans = reg.Counter("netupdate_plans_total", "Requests answered with a plan.")
	m.infeasible = reg.Counter("netupdate_infeasible_total", "Requests with no correct ordering.")
	m.failures = reg.Counter("netupdate_failures_total", "Requests failed for other reasons.")
	m.badRequests = reg.Counter("netupdate_bad_requests_total", "Semantically invalid deltas.")
	m.rejectedQueue = reg.Counter("netupdate_rejected_queue_full_total", "Requests shed by per-tenant queue bounds.")
	m.expired = reg.Counter("netupdate_deadline_expired_total", "Requests whose deadline fired.")
	m.canceled = reg.Counter("netupdate_canceled_total", "Requests canceled by the client.")
	m.acks = reg.Counter("netupdate_step_acks_total", "Plan-step commit acks recorded.")
	m.repairs = reg.Counter("netupdate_repairs_total", "Failure acks answered with a repair plan.")
	m.repairFailures = reg.Counter("netupdate_repair_failures_total", "Failure acks that could not be repaired.")
	m.evictions = reg.Counter("netupdate_evictions_total", "Warm sessions evicted under the LRU budget.")
	m.rebuilds = reg.Counter("netupdate_session_rebuilds_total", "Sessions rebuilt after eviction.")
	m.snapshotRestores = reg.Counter("netupdate_snapshot_restores_total", "Rebuilds served by restoring an eviction snapshot.")
	reg.FuncCounter("netupdate_cold_rebuilds_total", "Rebuilds that paid the full cold construction.", func() float64 {
		return float64(m.rebuilds.Value() - m.snapshotRestores.Value())
	})
	reg.Gauge("netupdate_snapshot_bytes", "Snapshot bytes held for evicted tenants.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		var snapBytes int64
		for _, t := range p.tenants {
			snapBytes += int64(len(t.snap))
		}
		return float64(snapBytes)
	})
	reg.Gauge("netupdate_shared_arenas", "Distinct topology shapes with a shared state arena.", func() float64 {
		return float64(p.arenas.size())
	})
	reg.FuncCounter("netupdate_queue_wait_seconds_total", "Total time requests spent queued.", func() float64 {
		return m.queueWait.SumSeconds()
	})
	reg.FuncCounter("netupdate_synthesis_seconds_total", "Total engine time.", func() float64 {
		return m.synthHit.SumSeconds() + m.synthMiss.SumSeconds() + m.synthRepair.SumSeconds()
	})
	reg.Gauge("netupdate_synthesis_seconds_max", "Slowest synthesis so far.", func() float64 {
		return float64(maxSynthNanos(m)) / 1e9
	})
	reg.FuncCounter("netupdate_plan_cache_hits_total", "Syntheses served from the verification-first plan cache.", func() float64 {
		cache, _ := p.learn.totals()
		return float64(cache.Hits)
	})
	reg.FuncCounter("netupdate_plan_cache_misses_total", "Syntheses that ran the full search with a cache attached.", func() float64 {
		cache, _ := p.learn.totals()
		return float64(cache.Misses)
	})
	reg.FuncCounter("netupdate_plan_cache_verify_failures_total", "Cached plans that failed replay verification and were evicted.", func() float64 {
		cache, _ := p.learn.totals()
		return float64(cache.VerifyFailures)
	})
	reg.FuncCounter("netupdate_plan_cache_evictions_total", "Plan-cache capacity evictions.", func() float64 {
		cache, _ := p.learn.totals()
		return float64(cache.Evictions)
	})
	reg.Gauge("netupdate_plan_cache_entries", "Cached instances across all shared learning stores.", func() float64 {
		cache, _ := p.learn.totals()
		return float64(cache.Entries)
	})
	reg.Gauge("netupdate_learn_stores", "Shared cross-tenant learning stores held.", func() float64 {
		_, stores := p.learn.totals()
		return float64(stores)
	})

	m.queueWait = reg.Histogram("netupdate_queue_wait_seconds", "Time requests spent waiting for the tenant gate and a worker slot.")
	m.synthHit = reg.Histogram("netupdate_synthesis_hit_seconds", "Synthesis latency of plan-cache hits.")
	m.synthMiss = reg.Histogram("netupdate_synthesis_miss_seconds", "Synthesis latency of full-search runs (including failures).")
	m.synthRepair = reg.Histogram("netupdate_synthesis_repair_seconds", "Synthesis latency of repair runs.")
	m.snapRestore = reg.Histogram("netupdate_snapshot_restore_seconds", "Time to restore an evicted session from its snapshot.")
	m.sessionEvict = reg.Histogram("netupdate_session_evict_seconds", "Time to capture an evicted session's snapshot.")
	m.tenantRequests = reg.CounterVec("netupdate_tenant_requests_total", "Requests received per tenant.", "tenant")
}

// maxSynthNanos is the slowest synthesis across the three latency splits.
func maxSynthNanos(m *poolMetrics) int64 {
	max := m.synthHit.MaxNanos()
	if v := m.synthMiss.MaxNanos(); v > max {
		max = v
	}
	if v := m.synthRepair.MaxNanos(); v > max {
		max = v
	}
	return max
}

// Metrics exposes the pool's metric registry (GET /metrics renders it).
func (p *Pool) Metrics() *obs.Registry { return p.m.reg }
