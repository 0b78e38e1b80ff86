package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/obs"
)

// Pool defaults.
const (
	// DefaultMaxSessions is the warm-session budget when
	// PoolOptions.MaxSessions is zero.
	DefaultMaxSessions = 64
	// DefaultQueueDepth is the per-tenant outstanding-request bound when
	// PoolOptions.QueueDepth is zero.
	DefaultQueueDepth = 8
)

// PoolOptions is pool-level serving policy; per-tenant engine options
// arrive with each TenantSpec.
type PoolOptions struct {
	// Workers is the global synthesis budget: at most this many
	// syntheses run at once across all tenants. Zero means one per CPU.
	// (Each synthesis may itself parallelize per the tenant's Parallel
	// option; operators sizing a box should budget Workers x Parallel.)
	Workers int
	// MaxSessions bounds the warm sessions held at once; the
	// least-recently-used idle session beyond it is evicted and rebuilt
	// from its tenant spec on the next request. Zero means
	// DefaultMaxSessions; negative means unbounded.
	MaxSessions int
	// QueueDepth bounds each tenant's outstanding requests (running +
	// queued); requests beyond it are shed with ErrQueueFull. Zero means
	// DefaultQueueDepth.
	QueueDepth int
	// DefaultTimeout is applied as the request deadline when the caller's
	// context has none. Zero means no default.
	DefaultTimeout time.Duration
}

func (o PoolOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o PoolOptions) maxSessions() int {
	switch {
	case o.MaxSessions > 0:
		return o.MaxSessions
	case o.MaxSessions < 0:
		return int(^uint(0) >> 1) // unbounded
	}
	return DefaultMaxSessions
}

func (o PoolOptions) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return DefaultQueueDepth
}

// tenant is the pool's runtime state for one registered scenario.
//
// Locking: the pool mutex guards the tenant map, the LRU list, and every
// tenant's sess/elem fields. The per-tenant gate (a 1-slot semaphore)
// serializes synthesis — core.Session is single-flight — and also
// protects cur, which only advances while the gate is held. Eviction
// takes a tenant's gate non-blockingly, so a session is never torn down
// under a running synthesis; every holder hands the gate back through
// Pool.release, which re-runs eviction for whatever the held gate made it
// skip.
type tenant struct {
	id   string
	spec *TenantSpec
	base *config.StreamBase
	opts core.Options

	gate    chan struct{} // cap 1: the single-flight session lock
	pending atomic.Int32  // admitted requests (running + queued)

	// learnID keys the pool's shared plan cache this tenant attaches to
	// (empty when the tenant opted out via noPlanCache); survives
	// eviction so rebuilds re-attach the same store.
	learnID string
	// arenaFP keys the pool's shared arena registry: tenants with the
	// same topology share one kripke.Arena and one warmth cache.
	arenaFP string

	cacheHits, cacheMisses atomic.Int64

	cur  *config.Config // current configuration; survives eviction
	sess *core.Session  // nil when cold
	elem *list.Element  // position in the pool LRU; nil when cold
	// snap is the session snapshot captured at eviction (nil when the
	// capture failed or after a restore consumed it); guarded by the pool
	// mutex like sess. It makes eviction cheap to undo: the next request
	// restores the warm state instead of rebuilding and re-warming it. It
	// holds the session's own state only — the plan cache stays in p.learn,
	// which outlives the session — so it is embedded (portable) before it
	// leaves the process.
	snap []byte

	snapRestores atomic.Int64 // rebuilds served by snapshot restore

	runs, plans, failures atomic.Int64
	acks, repairs         atomic.Int64
	// builds counts session constructions; every one past the first is a
	// rebuild after eviction.
	builds  atomic.Int64
	lastNS  atomic.Int64
	totalNS atomic.Int64
}

// Pool is the multi-tenant synthesis service: it owns one warm session
// per hot tenant, admits requests against bounded per-tenant queues,
// schedules them over a global worker budget, and evicts cold sessions
// under an LRU budget. All methods are safe for concurrent use.
type Pool struct {
	opts  PoolOptions
	slots chan struct{} // global worker budget

	mu       sync.Mutex // tenants, lru, closed, inflight.Add vs Close
	tenants  map[string]*tenant
	lru      *list.List // of *tenant, front = hottest; warm tenants only
	closed   bool
	inflight sync.WaitGroup

	// learn holds the shared verification-first plan caches, keyed by
	// learning fingerprint (see learn.go); tenants with the same scenario
	// shape share one cache across the pool and across restarts
	// (SaveLearning/LoadLearning).
	learn *learnRegistry

	// arenas holds the shared immutable state arenas and label-table
	// caches, keyed by topology fingerprint (see arena.go); tenants with
	// the same network shape share them copy-on-write.
	arenas *arenaRegistry

	m poolMetrics

	// beforeSynthesize is a test seam invoked while the tenant gate and a
	// worker slot are held, just before the engine runs. Nil in
	// production.
	beforeSynthesize func(tenantID string)
}

// NewPool builds an empty pool.
func NewPool(opts PoolOptions) *Pool {
	p := &Pool{
		opts:    opts,
		slots:   make(chan struct{}, opts.workers()),
		tenants: map[string]*tenant{},
		lru:     list.New(),
		learn:   newLearnRegistry(0),
		arenas:  newArenaRegistry(0),
	}
	p.initMetrics()
	return p
}

// Register validates a tenant spec, derives its fingerprint id, and
// builds the tenant's warm session (verifying the initial configuration
// against every class specification). Registering an already-known
// fingerprint is idempotent: the existing tenant is returned with
// Created=false and its warm state untouched.
func (p *Pool) Register(spec *TenantSpec) (*TenantInfo, error) {
	id, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	opts, err := spec.Options.Build()
	if err != nil {
		return nil, err
	}
	base, err := spec.StreamHeader.Build()
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if t, ok := p.tenants[id]; ok {
		info := p.infoLocked(t, false)
		p.mu.Unlock()
		return info, nil
	}
	p.mu.Unlock()

	// Pre-warm outside the pool lock: session construction verifies the
	// initial configuration and can be expensive. The tenant is published
	// only after it succeeds, so a returned id is always servable — a
	// concurrent duplicate registration at worst builds a session it then
	// discards. The session is built over the pool's shared arena and
	// warmth for this topology shape, so identically-shaped tenants
	// deduplicate the class-independent state space.
	arenaFP, err := spec.TopologyFingerprint()
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSessionWith(base.Topo, base.Init, base.Specs, opts,
		p.arenas.get(arenaFP, base.Topo))
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", id, err)
	}
	t := &tenant{
		id:      id,
		spec:    spec,
		base:    base,
		opts:    opts,
		arenaFP: arenaFP,
		gate:    make(chan struct{}, 1),
		cur:     base.Init,
	}
	// Attach the shared plan cache: tenants whose specs differ only by
	// name learn from — and replay-verify against — each other's runs.
	if !opts.NoPlanCache {
		learnID, lerr := spec.LearnFingerprint()
		if lerr != nil {
			return nil, lerr
		}
		t.learnID = learnID
		sess.SetCache(p.learn.get(learnID))
	}
	t.builds.Add(1)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if existing, ok := p.tenants[id]; ok {
		info := p.infoLocked(existing, false)
		p.mu.Unlock()
		return info, nil // lost the race; drop our duplicate session
	}
	t.sess = sess
	t.elem = p.lru.PushFront(t)
	p.tenants[id] = t
	p.evictLocked()
	info := p.infoLocked(t, true)
	p.mu.Unlock()
	return info, nil
}

func (p *Pool) infoLocked(t *tenant, created bool) *TenantInfo {
	return &TenantInfo{
		ID:       t.id,
		Created:  created,
		Name:     t.base.Name,
		Classes:  len(t.base.Specs),
		Switches: t.base.Topo.NumSwitches(),
	}
}

// Lookup reports whether a tenant id is registered.
func (p *Pool) Lookup(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.tenants[id]
	return ok
}

// Synthesize serves one request: the tenant's current configuration is
// advanced by the delta and a plan to reach it is synthesized on the
// tenant's warm session. Admission is two-staged — the bounded per-tenant
// queue sheds overload with ErrQueueFull before any queuing, then the
// request waits (under its deadline) for the tenant's single-flight gate
// and a global worker slot. The context deadline propagates into the
// engine; when the caller's context has none, PoolOptions.DefaultTimeout
// is applied. Failed syntheses (including core.ErrNoOrdering and
// deadline expiry) leave the tenant at its previous configuration.
func (p *Pool) Synthesize(ctx context.Context, id string, delta *config.StreamDelta) (*core.Plan, error) {
	p.m.requests.Inc()
	t, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	defer p.inflight.Done()
	defer t.pending.Add(-1)
	p.m.tenantRequests.With(t.id).Inc()

	// Every admitted request carries a request id: the daemon propagates
	// the client's (or the LB's) X-Netupdate-Request-Id into the context,
	// and direct API callers get one minted here. The engine stamps it on
	// the run's stats and trace.
	if obs.RequestIDFrom(ctx) == "" {
		ctx = obs.WithRequestID(ctx, obs.NewRequestID())
	}

	if p.opts.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.opts.DefaultTimeout)
			defer cancel()
		}
	}

	// Tenant gate first (sessions are single-flight), then a worker slot
	// — never the reverse, so a tenant's queued requests cannot hog the
	// global budget while waiting on their own serialization.
	enqueued := time.Now()
	select {
	case t.gate <- struct{}{}:
	case <-ctx.Done():
		return nil, p.expireErr(ctx, t)
	}
	defer p.release(t)
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, p.expireErr(ctx, t)
	}
	defer func() { <-p.slots }()
	p.m.queueWait.Observe(time.Since(enqueued))

	if hook := p.beforeSynthesize; hook != nil {
		hook(t.id)
	}

	target, err := t.base.Apply(t.cur, delta)
	if err != nil {
		p.m.badRequests.Inc()
		return nil, fmt.Errorf("server: tenant %s: %w", t.id, err)
	}

	sess, err := p.ensureWarm(t)
	if err != nil {
		p.m.failures.Inc()
		t.failures.Add(1)
		return nil, fmt.Errorf("server: tenant %s: session rebuild: %w", t.id, err)
	}

	// A ?trace=1 request gets a per-request span recorder attached for
	// exactly this run (the gate is held, so no other request races the
	// session) — unless the tenant's options already hold a persistent one.
	if obs.TracingFrom(ctx) && sess.Trace() == nil {
		sess.SetTrace(obs.NewTrace(0))
		defer sess.SetTrace(nil)
	}

	start := time.Now()
	plan, serr := sess.SynthesizeContext(ctx, target)
	elapsed := time.Since(start)
	t.runs.Add(1)
	t.lastNS.Store(elapsed.Nanoseconds())
	t.totalNS.Add(elapsed.Nanoseconds())
	hit := false
	if sess.Cache() != nil && (serr == nil || isInfeasible(serr)) {
		// Only completed runs vote: an expired request's LastStats may
		// belong to an earlier run.
		hit = sess.LastStats().CacheHit
		if hit {
			t.cacheHits.Add(1)
		} else {
			t.cacheMisses.Add(1)
		}
	}
	if hit {
		p.m.synthHit.Observe(elapsed)
	} else {
		p.m.synthMiss.Observe(elapsed)
	}
	switch {
	case serr == nil:
		t.cur = target
		t.plans.Add(1)
		p.m.plans.Inc()
		return plan, nil
	case isInfeasible(serr):
		p.m.infeasible.Inc()
	case isExpiry(serr):
		p.countExpiry(serr)
	default:
		p.m.failures.Inc()
	}
	t.failures.Add(1)
	return nil, fmt.Errorf("server: tenant %s: %w", t.id, serr)
}

// Ack records one plan-step acknowledgement for a tenant. Commit acks
// (Failed false) are bookkeeping only and return (nil, nil) without
// queuing. Failure reports trigger repair: under the tenant's gate and a
// global worker slot — repair is a synthesis — the warm session
// resynthesizes from the reported committed state (core.Session.Repair,
// with its 2-simple and scoped-two-phase fallback ladder armed) back to
// the stranded target, and the repair plan is returned. On success the
// tenant's current configuration is realigned with the session. A tenant
// whose session was evicted since the plan was issued cannot repair (the
// partially-committed state died with the session) and reports
// core.ErrNoPlan; clients fall back to requesting a fresh delta from the
// crash state they know.
func (p *Pool) Ack(ctx context.Context, id string, ack *StepAck) (*core.Plan, error) {
	t, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	defer p.inflight.Done()
	defer t.pending.Add(-1)

	if !ack.Failed {
		t.acks.Add(1)
		p.m.acks.Inc()
		return nil, nil
	}

	if obs.RequestIDFrom(ctx) == "" {
		ctx = obs.WithRequestID(ctx, obs.NewRequestID())
	}

	if p.opts.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.opts.DefaultTimeout)
			defer cancel()
		}
	}
	select {
	case t.gate <- struct{}{}:
	case <-ctx.Done():
		return nil, p.expireErr(ctx, t)
	}
	defer p.release(t)
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, p.expireErr(ctx, t)
	}
	defer func() { <-p.slots }()

	p.mu.Lock()
	sess := t.sess
	if sess != nil {
		p.lru.MoveToFront(t.elem)
	}
	p.mu.Unlock()
	if sess == nil {
		p.m.repairFailures.Inc()
		t.failures.Add(1)
		return nil, fmt.Errorf("server: tenant %s: session evicted, cannot repair: %w", t.id, core.ErrNoPlan)
	}

	if obs.TracingFrom(ctx) && sess.Trace() == nil {
		sess.SetTrace(obs.NewTrace(0))
		defer sess.SetTrace(nil)
	}

	start := time.Now()
	plan, rerr := sess.RepairContext(ctx, ack.Committed, nil)
	elapsed := time.Since(start)
	t.runs.Add(1)
	t.lastNS.Store(elapsed.Nanoseconds())
	t.totalNS.Add(elapsed.Nanoseconds())
	p.m.synthRepair.Observe(elapsed)
	if rerr != nil {
		p.m.repairFailures.Inc()
		t.failures.Add(1)
		return nil, fmt.Errorf("server: tenant %s: repair: %w", t.id, rerr)
	}
	// The session rebound itself to the crash state and advanced to the
	// plan's target; realign the tenant's view.
	t.cur = sess.Current()
	t.repairs.Add(1)
	p.m.repairs.Inc()
	return plan, nil
}

// admit performs queue admission: tenant lookup, closed check, the
// bounded pending counter, and in-flight accounting for drain. On
// success the caller owns one pending slot and one inflight token.
func (p *Pool) admit(id string) (*tenant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	t, ok := p.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	depth := int32(p.opts.queueDepth())
	for {
		n := t.pending.Load()
		if n >= depth {
			p.m.rejectedQueue.Inc()
			return nil, fmt.Errorf("%w (tenant %s, %d outstanding)", ErrQueueFull, t.id, n)
		}
		if t.pending.CompareAndSwap(n, n+1) {
			break
		}
	}
	p.inflight.Add(1)
	return t, nil
}

// expireErr maps a context that fired while the request was queued.
func (p *Pool) expireErr(ctx context.Context, t *tenant) error {
	err := ctxQueueErr(ctx)
	p.countExpiry(err)
	t.failures.Add(1)
	return fmt.Errorf("server: tenant %s: request expired while queued: %w", t.id, err)
}

func (p *Pool) countExpiry(err error) {
	if isCanceled(err) {
		p.m.canceled.Inc()
	} else {
		p.m.expired.Inc()
	}
}

func ctxQueueErr(ctx context.Context) error {
	if ctx.Err() == context.DeadlineExceeded {
		return core.ErrTimeout
	}
	return core.ErrCanceled
}

func isInfeasible(err error) bool { return errors.Is(err, core.ErrNoOrdering) }

func isExpiry(err error) bool {
	return errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrCanceled)
}

func isCanceled(err error) bool { return errors.Is(err, core.ErrCanceled) }

// ensureWarm returns the tenant's session, rebuilding it when cold, and
// refreshes the tenant's LRU position. Must be called with the tenant
// gate held. An evicted tenant is restored from the snapshot captured at
// eviction — orders of magnitude cheaper than a cold build, since the
// shared arena, recorded transition relations, and interned labels skip
// state enumeration, table application, and relabeling — and falls back
// to a cold build from the stored spec when the snapshot is missing,
// rejected, or out of step with the tenant's configuration. Either way
// the session is pointed back at the tenant's shared plan cache, which
// stayed in p.learn while the session was gone: nothing is decoded or
// merged here, so a restore costs the same however much the tenant has
// learned. A build beyond the budget evicts the least-recently-used idle
// session.
func (p *Pool) ensureWarm(t *tenant) (*core.Session, error) {
	p.mu.Lock()
	if t.sess != nil {
		p.lru.MoveToFront(t.elem)
		sess := t.sess
		p.mu.Unlock()
		return sess, nil
	}
	snap := t.snap
	p.mu.Unlock()

	// Build outside the pool lock: construction rebuilds every per-class
	// structure and may take longer than other tenants can wait. The gate
	// keeps this single-flight per tenant (t.cur cannot move under us).
	res := p.arenas.get(t.arenaFP, t.base.Topo)
	var sess *core.Session
	restored := false
	if len(snap) > 0 {
		restoreStart := time.Now()
		if s2, err := core.RestoreSessionWith(t.base.Topo, t.base.Specs, t.opts, snap, res); err == nil {
			if diff := config.Diff(s2.Current(), t.cur); len(diff) == 0 {
				sess, restored = s2, true
				p.m.snapRestore.Observe(time.Since(restoreStart))
			}
		}
	}
	if sess == nil {
		var err error
		sess, err = core.NewSessionWith(t.base.Topo, t.cur, t.base.Specs, t.opts, res)
		if err != nil {
			return nil, err
		}
	}
	p.attachLearning(t, sess)
	if t.builds.Add(1) > 1 {
		p.m.rebuilds.Inc()
	}
	if restored {
		t.snapRestores.Add(1)
		p.m.snapshotRestores.Inc()
	}

	p.mu.Lock()
	t.snap = nil // consumed (or superseded by the fresh session)
	t.sess = sess
	t.elem = p.lru.PushFront(t)
	p.evictLocked()
	p.mu.Unlock()
	return sess, nil
}

// attachLearning points a rebuilt session at the tenant's shared plan
// cache.
func (p *Pool) attachLearning(t *tenant, sess *core.Session) {
	if t.learnID != "" {
		sess.SetCache(p.learn.get(t.learnID))
	}
}

// portable turns a pool-held session image into one that can leave the
// process by embedding the tenant's shared plan cache, so the receiving
// pool (InstallSnapshot) learns what this one knew.
func (p *Pool) portable(t *tenant, img []byte) ([]byte, error) {
	if t.learnID == "" {
		return img, nil
	}
	return core.EmbedCache(img, p.learn.get(t.learnID))
}

// release hands back a tenant's gate and re-enforces the session budget:
// evictLocked skips gate-held tenants, so whatever it skipped while this
// gate was held is evicted now — the budget holds whenever no request is
// in flight.
func (p *Pool) release(t *tenant) {
	<-t.gate
	p.mu.Lock()
	p.evictLocked()
	p.mu.Unlock()
}

// evictLocked enforces the warm-session budget: walk the LRU from the
// cold end, dropping sessions whose tenants are idle (their gate can be
// taken without blocking) until the budget holds. Busy tenants are
// skipped — a session is never torn down mid-synthesis — and caught up
// with when their gate is released (release). Each evicted session leaves
// a compact snapshot behind so the next request restores warm state
// instead of paying a cold rebuild; a failed capture leaves no snapshot
// and the tenant rebuilds cold.
func (p *Pool) evictLocked() {
	budget := p.opts.maxSessions()
	for e := p.lru.Back(); e != nil && p.lru.Len() > budget; {
		prev := e.Prev()
		t := e.Value.(*tenant)
		select {
		case t.gate <- struct{}{}:
			start := time.Now()
			t.snap, _ = t.sess.Snapshot()
			t.sess = nil
			t.elem = nil
			p.lru.Remove(e)
			p.m.evictions.Inc()
			p.m.sessionEvict.Observe(time.Since(start))
			<-t.gate
		default:
			// In flight (or its caller holds the gate): skip.
		}
		e = prev
	}
}

// TenantStats returns one tenant's serving summary.
func (p *Pool) TenantStats(id string) (*TenantStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	st := &TenantStats{
		ID:       t.id,
		Name:     t.base.Name,
		Classes:  len(t.base.Specs),
		Switches: t.base.Topo.NumSwitches(),
		Warm:     t.sess != nil,
		Pending:  int(t.pending.Load()),
		Runs:     t.runs.Load(),
		Plans:    t.plans.Load(),
		Failures: t.failures.Load(),
		Acks:     t.acks.Load(),
		Repairs:  t.repairs.Load(),
	}
	if b := t.builds.Load(); b > 1 {
		st.Rebuilds = b - 1
	}
	st.SnapshotRestores = t.snapRestores.Load()
	st.ColdRebuilds = st.Rebuilds - st.SnapshotRestores
	st.SnapshotBytes = len(t.snap)
	st.CacheHits = t.cacheHits.Load()
	st.CacheMisses = t.cacheMisses.Load()
	st.LastSynthMS = float64(t.lastNS.Load()) / 1e6
	if st.Runs > 0 {
		st.MeanSynthMS = float64(t.totalNS.Load()) / 1e6 / float64(st.Runs)
	}
	return st, nil
}

// PoolStats is the pool-wide serving summary behind GET /metrics.
type PoolStats struct {
	Tenants      int   `json:"tenants"`
	WarmSessions int   `json:"warmSessions"`
	Workers      int   `json:"workers"`
	Requests     int64 `json:"requests"`
	Plans        int64 `json:"plans"`
	Infeasible   int64 `json:"infeasible"`
	Failures     int64 `json:"failures"`
	BadRequests  int64 `json:"badRequests"`
	// RejectedQueueFull counts load-shed admissions (ErrQueueFull).
	RejectedQueueFull int64 `json:"rejectedQueueFull"`
	// DeadlineExpired counts requests whose deadline fired (queued or
	// mid-search); Canceled counts outright context cancellations.
	DeadlineExpired int64 `json:"deadlineExpired"`
	Canceled        int64 `json:"canceled"`
	Evictions       int64 `json:"evictions"`
	SessionRebuilds int64 `json:"sessionRebuilds"`
	// SnapshotRestores counts rebuilds served from an eviction-time
	// snapshot; ColdRebuilds are the rest (missing, rejected, or stale
	// snapshots). SnapshotBytesHeld is the total size of snapshots
	// currently held for evicted tenants; SharedArenas counts the
	// distinct topology shapes whose state arenas tenants share.
	SnapshotRestores  int64 `json:"snapshotRestores"`
	ColdRebuilds      int64 `json:"coldRebuilds"`
	SnapshotBytesHeld int64 `json:"snapshotBytesHeld"`
	SharedArenas      int   `json:"sharedArenas"`
	// StepAcks counts recorded plan-step commit acks; Repairs counts
	// failure reports answered with a repair plan, RepairFailures those
	// that could not be repaired (evicted session, invalid committed set,
	// infeasible even through the fallback ladder).
	StepAcks       int64 `json:"stepAcks"`
	Repairs        int64 `json:"repairs"`
	RepairFailures int64 `json:"repairFailures"`
	// Latency totals for deriving rates and means externally.
	QueueWaitMSTotal float64 `json:"queueWaitMsTotal"`
	SynthMSTotal     float64 `json:"synthMsTotal"`
	SynthMSMax       float64 `json:"synthMsMax"`
	// Shared plan-cache totals, aggregated across the pool's learning
	// stores (learn.go). PlanCacheHits counts requests served from the
	// verification-first fast path; PlanCacheVerifyFailures counts stale
	// or corrupted entries caught by replay (each fell back to the full
	// search); PlanCacheEvictions counts capacity evictions.
	PlanCacheHits           int64 `json:"planCacheHits"`
	PlanCacheMisses         int64 `json:"planCacheMisses"`
	PlanCacheVerifyFailures int64 `json:"planCacheVerifyFailures"`
	PlanCacheEvictions      int64 `json:"planCacheEvictions"`
	PlanCacheEntries        int   `json:"planCacheEntries"`
	LearnStores             int   `json:"learnStores"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	tenants := len(p.tenants)
	warm := p.lru.Len()
	var snapBytes int64
	for _, t := range p.tenants {
		snapBytes += int64(len(t.snap))
	}
	p.mu.Unlock()
	cache, stores := p.learn.totals()
	synthNS := p.m.synthHit.SumNanos() + p.m.synthMiss.SumNanos() + p.m.synthRepair.SumNanos()
	return PoolStats{
		PlanCacheHits:           cache.Hits,
		PlanCacheMisses:         cache.Misses,
		PlanCacheVerifyFailures: cache.VerifyFailures,
		PlanCacheEvictions:      cache.Evictions,
		PlanCacheEntries:        cache.Entries,
		LearnStores:             stores,
		Tenants:                 tenants,
		WarmSessions:            warm,
		Workers:                 p.opts.workers(),
		Requests:                p.m.requests.Value(),
		Plans:                   p.m.plans.Value(),
		Infeasible:              p.m.infeasible.Value(),
		Failures:                p.m.failures.Value(),
		BadRequests:             p.m.badRequests.Value(),
		RejectedQueueFull:       p.m.rejectedQueue.Value(),
		DeadlineExpired:         p.m.expired.Value(),
		Canceled:                p.m.canceled.Value(),
		Evictions:               p.m.evictions.Value(),
		SessionRebuilds:         p.m.rebuilds.Value(),
		SnapshotRestores:        p.m.snapshotRestores.Value(),
		ColdRebuilds:            p.m.rebuilds.Value() - p.m.snapshotRestores.Value(),
		SnapshotBytesHeld:       snapBytes,
		SharedArenas:            p.arenas.size(),
		StepAcks:                p.m.acks.Value(),
		Repairs:                 p.m.repairs.Value(),
		RepairFailures:          p.m.repairFailures.Value(),
		QueueWaitMSTotal:        float64(p.m.queueWait.SumNanos()) / 1e6,
		SynthMSTotal:            float64(synthNS) / 1e6,
		SynthMSMax:              float64(maxSynthNanos(&p.m)) / 1e6,
	}
}

// Close drains the pool: new requests (and registrations) are refused
// with ErrPoolClosed immediately, in-flight syntheses run to completion,
// and Close returns once they have — or when ctx expires, in which case
// the stragglers keep their worker slots but the pool accepts nothing
// new. Close is idempotent.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}
