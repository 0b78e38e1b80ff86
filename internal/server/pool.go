package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
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
	// (A synthesis whose diff splits into independent components searches
	// them concurrently, on up to GOMAXPROCS goroutines of its own.)
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
	// SnapshotDir, when set, carries the tenants' warm state across a
	// restart: Close writes every tenant's image there as <id>.nuss, and
	// registering a new tenant installs its image if the directory holds
	// one (see restoreSaved).
	SnapshotDir string
}

// resolved replaces the zero and negative values with what they stand for.
func (o PoolOptions) resolved() PoolOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxSessions == 0:
		o.MaxSessions = DefaultMaxSessions
	case o.MaxSessions < 0:
		o.MaxSessions = math.MaxInt
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	return o
}

// tenant is the pool's runtime state for one registered scenario.
//
// Locking: the pool mutex guards the tenant map, the LRU list, and every
// tenant's sess/elem fields. The per-tenant gate (a 1-slot semaphore)
// serializes synthesis — core.Session is single-flight — and also
// protects cur, which only advances while the gate is held. Eviction
// takes a tenant's gate non-blockingly, so a session is never torn down
// under a running synthesis; requests hold the gate through an admission,
// whose leave hands it back through Pool.release, which re-runs eviction
// for whatever the held gate made it skip.
type tenant struct {
	id   string
	spec *TenantSpec
	base *config.StreamBase
	opts core.Options

	gate    chan struct{} // cap 1: the single-flight session lock
	pending atomic.Int32  // admitted requests (running + queued)

	// learnID keys the pool's shared plan cache this tenant attaches to;
	// survives eviction so rebuilds re-attach the same store.
	learnID string
	// arenaFP keys the pool's shared arena registry: tenants with the
	// same topology share one kripke.Arena and one warmth cache.
	arenaFP string
	// ctxFP is core.ContextFingerprint of base and opts, computed once at
	// registration: every session of the tenant is handed it, so a restore
	// compares the image's fingerprint with it instead of hashing the
	// topology, the hosts and the formulas on every request.
	ctxFP []byte

	cur  *config.Config // current configuration; survives eviction
	sess *core.Session  // nil when cold
	elem *list.Element  // position in the pool LRU; nil when cold
	// parked is the handle the evicted session left (core.Session.Park;
	// nil while warm, and after a cold rebuild); guarded by the pool mutex
	// like sess. It makes eviction cheap to undo: the next request resumes
	// the session at cur instead of rebuilding and re-warming it. It holds
	// the session's own state only — the plan cache stays in p.learn, which
	// outlives the session — and never leaves the process: an export
	// encodes it (SnapshotAll, SnapshotTenant).
	parked *core.Parked

	tenantCounters
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
	// shape share one cache across the pool, and across restarts through
	// the images under PoolOptions.SnapshotDir.
	learn *lruMap[*core.PlanCache]

	// arenas holds the shared immutable state arenas and label-table
	// caches, keyed by topology fingerprint (see arena.go); tenants with
	// the same network shape share them copy-on-write.
	arenas *lruMap[core.SessionResources]

	m poolMetrics

	// beforeSynthesize is a test seam invoked while the tenant gate and a
	// worker slot are held, just before the engine runs. Nil in
	// production.
	beforeSynthesize func(tenantID string)
}

// NewPool builds an empty pool.
func NewPool(opts PoolOptions) *Pool {
	opts = opts.resolved()
	p := &Pool{
		opts:    opts,
		slots:   make(chan struct{}, opts.Workers),
		tenants: map[string]*tenant{},
		lru:     list.New(),
		learn:   newLRUMap[*core.PlanCache](DefaultMaxLearnStores),
		arenas:  newLRUMap[core.SessionResources](DefaultMaxArenaStores),
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
	// Built first: the header refuses an oversized registration
	// (config.MaxClassPorts) before the spec is encoded to fingerprint it.
	base, err := spec.StreamHeader.Build()
	if err != nil {
		return nil, badSpecError{err}
	}
	id, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	opts := core.Options(spec.Options)

	p.mu.Lock()
	info, err := p.registeredLocked(id)
	p.mu.Unlock()
	if info != nil || err != nil {
		return info, err
	}

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
	learnID, err := spec.LearnFingerprint()
	if err != nil {
		return nil, err
	}
	t := &tenant{
		id:      id,
		spec:    spec,
		base:    base,
		opts:    opts,
		learnID: learnID,
		arenaFP: arenaFP,
		ctxFP:   core.ContextFingerprint(base.Topo, base.Specs, opts),
		gate:    make(chan struct{}, 1),
		cur:     base.Init,
	}
	sess, err := core.NewSessionWith(base.Topo, base.Init, base.Specs, opts, p.sessionResources(t))
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", id, err)
	}
	t.requests = p.m.tenantRequests.With(id)
	// Attach the shared plan cache: tenants whose specs differ only by
	// name learn from — and replay-verify against — each other's runs.
	sess.SetCache(p.planCache(t.learnID))

	p.mu.Lock()
	if info, err := p.registeredLocked(id); info != nil || err != nil {
		p.mu.Unlock()
		return info, err // lost the race; drop our duplicate session
	}
	p.tenants[id] = t
	p.warmLocked(t, sess)
	p.mu.Unlock()
	p.restoreSaved(t)
	return t.info(true), nil
}

// registeredLocked answers a registration that needs no session built:
// the pool is closed, or the id is registered already.
func (p *Pool) registeredLocked(id string) (*TenantInfo, error) {
	if p.closed {
		return nil, ErrPoolClosed
	}
	if t, ok := p.tenants[id]; ok {
		return t.info(false), nil
	}
	return nil, nil
}

func (t *tenant) info(created bool) *TenantInfo {
	return &TenantInfo{
		ID:       t.id,
		Created:  created,
		Name:     t.base.Name,
		Classes:  len(t.base.Specs),
		Switches: t.base.Topo.NumSwitches(),
	}
}

// tenantLocked finds a registered tenant.
func (p *Pool) tenantLocked(id string) (*tenant, error) {
	if t, ok := p.tenants[id]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
}

// warmLocked makes sess the tenant's warm session — at the hot end of the
// LRU, with no parked handle left to go stale beside it — and evicts
// whatever that pushes over the budget.
func (p *Pool) warmLocked(t *tenant, sess *core.Session) {
	t.sess, t.parked = sess, nil
	if t.elem != nil {
		p.lru.MoveToFront(t.elem)
	} else {
		t.elem = p.lru.PushFront(t)
	}
	p.evictLocked()
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
	a, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	defer a.leave()
	t := a.t
	t.requests.Inc()
	if ctx, err = a.wait(ctx, true); err != nil {
		return nil, err
	}
	p.m.queueWait.Observe(a.waited)

	if hook := p.beforeSynthesize; hook != nil {
		hook(t.id)
	}

	target, err := t.base.Apply(t.cur, delta)
	if err != nil {
		t.count(outBadDelta)
		return nil, fmt.Errorf("server: tenant %s: %w", t.id, err)
	}
	sess, err := p.ensureWarm(t)
	if err != nil {
		t.count(outFailed)
		return nil, fmt.Errorf("server: tenant %s: session rebuild: %w", t.id, err)
	}

	start := time.Now()
	plan, serr := p.synthesizeOn(ctx, t, sess, target)
	if errors.Is(serr, core.ErrClassBuild) {
		// The session is not in the state it claims; the tenant is where
		// it was. Serve the request on a session built from the spec.
		if sess, err = p.rebuildCold(t, serr); err != nil {
			t.count(outFailed)
			return nil, fmt.Errorf("server: tenant %s: session rebuild: %w", t.id, err)
		}
		plan, serr = p.synthesizeOn(ctx, t, sess, target)
	}
	elapsed := time.Since(start)
	lat := p.m.synthMiss
	if sess.Cache() != nil && (serr == nil || errors.Is(serr, core.ErrNoOrdering)) {
		// Only completed runs vote: an expired request's LastStats may
		// belong to an earlier run.
		if st := sess.LastStats(); st.CacheHit {
			t.cacheHits.Add(1)
			lat = p.m.synthHit
			p.m.hitDistance.ObserveCount(int64(st.CacheHitDistance))
		} else {
			t.cacheMisses.Add(1)
		}
	}
	t.ran(lat, elapsed)
	t.count(outcomeOf(serr))
	if serr != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", t.id, serr)
	}
	t.cur = target
	return plan, nil
}

// synthesizeOn runs one request on sess under the request's trace
// settings, and counts the classes it had to build for it.
func (p *Pool) synthesizeOn(ctx context.Context, t *tenant, sess *core.Session, target *config.Config) (*core.Plan, error) {
	defer traceRequest(ctx, sess)()
	built := sess.ClassBuilds()
	plan, err := sess.SynthesizeContext(ctx, target)
	t.classBuilds.Add(int64(sess.ClassBuilds() - built))
	return plan, err
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
	a, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	defer a.leave()
	t := a.t
	if !ack.Failed {
		t.count(outAcked)
		return nil, nil
	}
	if ctx, err = a.wait(ctx, true); err != nil {
		return nil, err
	}

	sess, _ := p.warmSession(t)
	if sess == nil {
		t.count(outRepairFailed)
		return nil, fmt.Errorf("server: tenant %s: session evicted, cannot repair: %w", t.id, core.ErrNoPlan)
	}

	defer traceRequest(ctx, sess)()
	start := time.Now()
	built := sess.ClassBuilds()
	plan, rerr := sess.RepairContext(ctx, ack.Committed, nil)
	t.classBuilds.Add(int64(sess.ClassBuilds() - built))
	t.ran(p.m.synthRepair, time.Since(start))
	if rerr != nil {
		t.count(outRepairFailed)
		return nil, fmt.Errorf("server: tenant %s: repair: %w", t.id, rerr)
	}
	// The session rebound itself to the crash state and advanced to the
	// plan's target; realign the tenant's view.
	t.cur = sess.Current()
	t.count(outRepaired)
	return plan, nil
}

// traceRequest attaches a span recorder to sess for exactly one run when
// the request asked for one (?trace=1), and returns the call that
// detaches it. The caller holds the tenant's gate, so no other request
// races the session.
func traceRequest(ctx context.Context, sess *core.Session) (detach func()) {
	if !obs.TracingFrom(ctx) {
		return func() {}
	}
	sess.SetTrace(obs.NewTrace(0))
	return func() { sess.SetTrace(nil) }
}

// admission is one request's hold on its tenant, the only way into and out
// of a tenant's queue: admit grants a place in it, wait adds the tenant's
// gate (and a worker slot for engine work), and leave gives back whatever
// is held — the gate through release, so eviction is re-run on every
// return of a gate rather than by each caller remembering to.
type admission struct {
	p          *Pool
	t          *tenant
	cancel     context.CancelFunc // of the default deadline, when wait set one
	gate, slot bool
	waited     time.Duration // what wait spent blocked
}

// admit performs queue admission: tenant lookup, closed check, the
// bounded pending counter, and in-flight accounting for drain.
func (p *Pool) admit(id string) (admission, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return admission{}, ErrPoolClosed
	}
	t, err := p.tenantLocked(id)
	if err != nil {
		return admission{}, err
	}
	// pending only grows here, under the pool mutex, so checking and then
	// adding cannot overshoot the bound.
	if n := t.pending.Load(); n >= int32(p.opts.QueueDepth) {
		t.count(outShed)
		return admission{}, fmt.Errorf("%w (tenant %s, %d outstanding)", ErrQueueFull, t.id, n)
	}
	t.pending.Add(1)
	p.inflight.Add(1)
	return admission{p: p, t: t}, nil
}

// wait blocks, under ctx, for the tenant's gate — sessions are
// single-flight — and, for engine work, then for a worker slot: never the
// reverse, so a tenant's queued requests cannot hog the global budget
// while waiting on their own serialization. Engine work also gets what
// every run carries: a request id (the daemon propagates the client's or
// the LB's X-Netupdate-Request-Id; direct API callers get one minted
// here) and, when ctx has no deadline, PoolOptions.DefaultTimeout. The
// returned context is the one to run under.
func (a *admission) wait(ctx context.Context, engine bool) (context.Context, error) {
	if engine {
		if obs.RequestIDFrom(ctx) == "" {
			ctx = obs.WithRequestID(ctx, obs.NewRequestID())
		}
		if _, has := ctx.Deadline(); !has && a.p.opts.DefaultTimeout > 0 {
			ctx, a.cancel = context.WithTimeout(ctx, a.p.opts.DefaultTimeout)
		}
	}
	enqueued := time.Now()
	select {
	case a.t.gate <- struct{}{}:
		a.gate = true
	case <-ctx.Done():
		return ctx, a.expired(ctx)
	}
	if engine {
		select {
		case a.p.slots <- struct{}{}:
			a.slot = true
		case <-ctx.Done():
			return ctx, a.expired(ctx)
		}
	}
	a.waited = time.Since(enqueued)
	return ctx, nil
}

// expired accounts for a context that fired while the request was queued.
func (a *admission) expired(ctx context.Context) error {
	err := core.ErrCanceled
	if ctx.Err() == context.DeadlineExceeded {
		err = core.ErrTimeout
	}
	a.t.count(outcomeOf(err))
	return fmt.Errorf("server: tenant %s: request expired while queued: %w", a.t.id, err)
}

func (a *admission) leave() {
	if a.slot {
		<-a.p.slots
	}
	if a.gate {
		a.p.release(a.t)
	}
	if a.cancel != nil {
		a.cancel()
	}
	a.t.pending.Add(-1)
	a.p.inflight.Done()
}

// ensureWarm returns the tenant's session, rebuilding it when cold, and
// refreshes the tenant's LRU position. Must be called with the tenant
// gate held. An evicted tenant resumes the session it parked when the
// handle is at the configuration the pool holds for the tenant — an
// identity test — with no class built: the request builds the classes its
// diff touches. A tenant with no handle, or one at another configuration,
// is built cold from the stored spec. Either way the session is pointed
// back at the tenant's shared plan cache, which stayed in p.learn while
// the session was gone, so a resume costs the same however much the
// tenant has learned. A build beyond the budget evicts the
// least-recently-used idle session.
func (p *Pool) ensureWarm(t *tenant) (*core.Session, error) {
	sess, parked := p.warmSession(t)
	if sess != nil {
		return sess, nil
	}
	if parked == nil {
		return p.buildCold(t)
	}
	// The gate keeps t.cur where it is.
	if parked.Cur() != t.cur {
		return p.rebuildCold(t, errors.New("parked at another configuration than the tenant"))
	}
	start := time.Now()
	sess = p.resume(t, parked)
	p.m.snapRestore.Observe(time.Since(start))
	t.restores.Add(1)
	p.adopt(t, sess)
	return sess, nil
}

// resume makes a tenant's parked session again over the pool's shared
// resources.
func (p *Pool) resume(t *tenant, parked *core.Parked) *core.Session {
	return core.Resume(t.base.Topo, t.base.Specs, t.opts, parked, p.sessionResources(t))
}

// buildCold builds the tenant's session from its spec at its current
// configuration — every class built and verified — and makes it the warm
// one. Must be called with the tenant gate held; construction may take
// longer than other tenants can wait, so it runs outside the pool lock.
func (p *Pool) buildCold(t *tenant) (*core.Session, error) {
	sess, err := core.NewSessionWith(t.base.Topo, t.cur, t.base.Specs, t.opts, p.sessionResources(t))
	if err != nil {
		return nil, err
	}
	t.coldRebuilds.Add(1)
	p.adopt(t, sess)
	return sess, nil
}

// rebuildCold is buildCold for a tenant whose parked handle or session
// turned out unusable, for the reason given: whatever it held is dropped
// first, so a failed build leaves the tenant cold, not on a session it
// cannot trust.
func (p *Pool) rebuildCold(t *tenant, why error) (*core.Session, error) {
	t.rejectSnapshot("session state dropped, rebuilding cold", why)
	p.mu.Lock()
	if t.elem != nil {
		p.lru.Remove(t.elem)
	}
	t.sess, t.elem, t.parked = nil, nil, nil
	p.mu.Unlock()
	return p.buildCold(t)
}

// adopt attaches the tenant's shared plan cache to sess and makes it the
// tenant's warm session.
func (p *Pool) adopt(t *tenant, sess *core.Session) {
	sess.SetCache(p.planCache(t.learnID))
	p.mu.Lock()
	p.warmLocked(t, sess)
	p.mu.Unlock()
}

// warmSession returns the tenant's session, refreshing its LRU position,
// or — the tenant being cold — nil and the handle it parked.
func (p *Pool) warmSession(t *tenant) (*core.Session, *core.Parked) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.sess != nil {
		p.lru.MoveToFront(t.elem)
	}
	return t.sess, t.parked
}

// portable writes the image of a tenant's session that can leave the
// process: the session's own state with the tenant's shared plan cache
// embedded, so the receiving pool (InstallSnapshot) learns what this one
// knew.
func (p *Pool) portable(t *tenant, sess *core.Session) ([]byte, error) {
	img, err := sess.Snapshot()
	if err != nil {
		return nil, err
	}
	return core.EmbedCache(img, p.planCache(t.learnID))
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
// with when their gate is released (release). Each evicted session is
// parked, so the next request resumes it instead of paying a cold rebuild.
func (p *Pool) evictLocked() {
	budget := p.opts.MaxSessions
	for e := p.lru.Back(); e != nil && p.lru.Len() > budget; {
		prev := e.Prev()
		t := e.Value.(*tenant)
		select {
		case t.gate <- struct{}{}:
			start := time.Now()
			t.parked = t.sess.Park()
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
	t, err := p.tenantLocked(id)
	if err != nil {
		return nil, err
	}
	st := &TenantStats{
		ID:               t.id,
		Name:             t.base.Name,
		Classes:          len(t.base.Specs),
		Switches:         t.base.Topo.NumSwitches(),
		Warm:             t.sess != nil,
		Pending:          int(t.pending.Load()),
		Runs:             t.runs.Load(),
		Plans:            t.outcomes[outPlan].Load(),
		Failures:         t.failures(),
		Acks:             t.outcomes[outAcked].Load(),
		Repairs:          t.outcomes[outRepaired].Load(),
		Rebuilds:         t.rebuilds(),
		SnapshotRestores: t.restores.Load(),
		ColdRebuilds:     t.coldRebuilds.Load(),
		LastSynthMS:      float64(t.lastNS.Load()) / 1e6,
		CacheHits:        t.cacheHits.Load(),
		CacheMisses:      t.cacheMisses.Load(),
	}
	if st.Runs > 0 {
		st.MeanSynthMS = float64(t.totalNS.Load()) / 1e6 / float64(st.Runs)
	}
	return st, nil
}

// Close drains the pool: new requests (and registrations) are refused
// with ErrPoolClosed immediately, in-flight syntheses run to completion,
// and the drain ends once they have — or when ctx expires, in which case
// the stragglers keep their worker slots but the pool accepts nothing
// new. With PoolOptions.SnapshotDir set, Close then writes every tenant's
// image there (saveAll). Close is idempotent.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	return errors.Join(err, p.saveAll())
}
