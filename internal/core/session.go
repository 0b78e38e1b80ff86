package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/obs"
	"netupdate/internal/topology"
)

// Session is a long-lived synthesizer bound to one topology and one set
// of class specifications, serving a stream of target configurations. A
// production controller faces exactly this shape of load — a sequence of
// configuration changes over a fixed network — and rebuilding every
// per-class Kripke structure, re-interning every label, and re-allocating
// all engine scratch per change throws away state that is expensive to
// create and cheap to maintain. The session keeps it warm instead:
//
//   - per-class Kripke structures are rebound in place over the existing
//     state-space arena (kripke.K.Rebind) instead of rebuilt, touching
//     only the switches whose tables changed;
//   - checkers persist across syntheses through mc.Checker.Rebind, so
//     interned label sets, closure-extension memos, sink-label caches and
//     translated automata survive; the mc.Warmth cache additionally
//     shares closures and label tables between all checkers of one
//     formula;
//   - engine scratch — the visited set, the current-table map, the
//     ordering-analysis marks and buffers, and the undo frames — is
//     borrowed from a process-level pool for the length of a run and reset
//     instead of reallocated.
//
// There is one slot per class, holding the class's structure and checker
// or nothing, and everything a request does — verifying the target,
// replaying a cached plan, the search, the resync — happens on the built
// ones. NewSession builds and verifies every class. A session restored
// onto a configuration its holder vouches for (RestoreSessionWith) starts
// with every slot empty, and a request builds, at the current
// configuration, the classes some changed rule of its diff matches: a
// class still unbuilt is one no request since the restore could affect,
// so its verdict at the current configuration is the one the holder
// vouched for.
//
// Synthesize(final) produces the plan from the session's current
// configuration to final and, on success, advances the current
// configuration. A Session must not be used from more than one goroutine
// at a time (a Synthesize runs on the caller's goroutine, and runs the
// independent components of a diff concurrently, see decompose.go).
// Configurations handed to the session are retained — the class
// structures read their tables through the current one (kripke.K) — and
// must not be mutated by the caller afterwards.
type Session struct {
	topo  *topology.Topology
	specs []config.ClassSpec
	opts  Options
	abl   Ablation
	cur   *config.Config

	// arena is the class-independent Kripke state space every per-class
	// structure is built over. It is immutable and may be shared with
	// other sessions on the same topology (see SessionResources).
	arena *kripke.Arena
	warm  *mc.Warmth
	// factory builds the checkers in place of the incremental checker over
	// warm (SessionResources.Factory); nil otherwise.
	factory mc.Factory
	// ks[i] and checkers[i] are class i's slot: both set, or both nil until
	// a request first needs the class (buildClasses). Every built structure
	// is based on cur with nothing moved whenever no request is running.
	ks       []*kripke.K
	checkers []mc.Checker
	// classBuilds counts the slots filled on first need.
	classBuilds int

	// What a request computes once and every phase reads: its per-switch
	// rule-diff list and the classes those rules can match (the only ones
	// verification, replay, footprints, search and resync visit). stateBuf
	// is the resync's rewired-state list.
	diffBuf  []swDiff
	aff      affectedClasses
	stateBuf []int

	runs int
	// restoredCold marks a session RestoreSession built at the
	// configuration of an image in an older format.
	restoredCold bool
	// ephemeral marks a single-use session (the one-shot Synthesize
	// wrapper): the post-run resync that keeps warm structures consistent
	// is pure waste on structures about to be discarded, so it is skipped.
	ephemeral bool

	// Repair bookkeeping (repair.go). The last successful plan and its
	// endpoints let Repair reconstruct the exact mid-plan configuration
	// from a committed-step report; lastStats additionally survives failed
	// runs so callers can see which components committed their class
	// structures before an abort.
	lastPlan  *Plan
	lastInit  *config.Config
	lastFinal *config.Config
	lastStats Stats
	// repairing arms the graceful-degradation ladder: a component that
	// reports ErrNoOrdering is retried at 2-simple granularity and then
	// falls back to scoped two-phase instead of failing the run.
	repairing bool

	// Verification-first plan cache (cache.go), attached via EnableCache
	// or SetCache (the pool shares one cache across tenants with the same
	// learning fingerprint). Nil means every synthesis runs the full
	// search. ctxFP memoizes the session's context fingerprint; the
	// hashedCur/pending pairs memoize configuration hashes by pointer
	// identity so a steady-state stream hashes one configuration per
	// request.
	cache       *PlanCache
	ctxFP       []byte
	hashedCur   *config.Config
	curHash     cfgHash
	pendingCfg  *config.Config
	pendingHash cfgHash

	// Span recorder (internal/obs), nil unless Options.Trace was set or a
	// per-request recorder was attached via SetTrace. Every recording call
	// is nil-safe, so the disabled path costs one pointer compare.
	// traceOuter parents the next synthesize root (Repair sets it to its
	// own root span so the inner synthesis nests under the repair);
	// traceSearch parents per-component and fallback-ladder spans while a
	// search is running. Both use the recorder's 0 = "no parent" sentinel.
	trace       *obs.Trace
	traceOuter  int
	traceSearch int
}

// engineScratch is the pooled per-run state handed to each engine: reset
// is O(live entries), not O(capacity), and nothing is reallocated across
// syntheses. Every working buffer of a synthesis is here, so what a miss
// allocates is its answer — the plan's steps and DAG — and little else.
// frames[d] holds the undo frames of the update applied at search depth d
// (a cache replay's, all of them, in frames[0]).
type engineScratch struct {
	// e is the engine itself and sc the scenario it runs on: a request's,
	// or one component sub-search's, whose class specifications are specs.
	e         engine
	sc        config.Scenario
	specs     []config.ClassSpec
	visited   *bitsetSet
	curTables map[int]network.Table
	deps      *depScratch
	frames    [][]frame

	// units are the engine's units: a request's computeUnits output, or a
	// component's renumbered copy of its share of them. path is the
	// search's: the updates from the root to the node the DFS stands at.
	units []unit
	path  []Step
	// A request's composition: upd holds each component's path at the
	// component's offset (the sum of the earlier components' unit counts),
	// steps the careful sequence composed from them, and waits the wait
	// removal's output before its copy into the plan.
	upd, steps, waits []Step

	// A request's decomposition: the units' footprints back to back, the
	// components and their results, and the arena the components' lists and
	// the partition's working arrays are carved from.
	fps     []int
	comps   []component
	results []compResult
	ints    arena[int]

	// The affected vectors of the request's ordering analyses, remembered by
	// step position, and the arena their rows are carved from. A row is
	// indexed by one tenant's class list, so both are reset per request
	// (newEngineShellWith).
	affMemo []affectedMemo
	affRows arena[bool]
}

// arena hands out slices of one block instead of one allocation each. A
// reset (used = 0) hands the block out again; where it is short, a larger
// one replaces it, and what was handed out keeps the old.
type arena[T any] struct {
	block []T
	used  int
}

// take returns n elements of the block, not zeroed.
func (a *arena[T]) take(n int) []T {
	if len(a.block)-a.used < n {
		a.block, a.used = make([]T, max(2*len(a.block), 4*n, 256)), 0
	}
	out := a.block[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

func newEngineScratch() *engineScratch {
	return &engineScratch{
		visited:   newBitsetSet(),
		curTables: map[int]network.Table{},
		deps:      &depScratch{},
	}
}

// scratchPool lends an engineScratch to one engine at a time — a request's
// or one of its component sub-searches' — as kripke's cyclePool lends the
// loop check's: a session restored to serve one request allocates none and
// a warm one holds none while idle. The ordering analysis' stamps only
// grow, so a scratch laid out for one tenant's classes and switches serves
// the next tenant's (depScratch.reset).
var scratchPool = sync.Pool{New: func() any { return newEngineScratch() }}

// putScratch returns scr to the pool without the structures, checkers,
// tables, deltas and tokens its engine, units, steps and frames name: they
// belong to a session and a request the pool must not keep alive.
func putScratch(scr *engineScratch) {
	for i, fs := range scr.frames {
		scr.frames[i] = emptied(fs)
	}
	scr.e = scr.e.buffers()
	scr.sc = config.Scenario{}
	scr.specs = emptied(scr.specs)
	scr.units = emptied(scr.units)
	scr.path = emptied(scr.path)
	scr.upd = emptied(scr.upd)
	scr.steps = emptied(scr.steps)
	scr.waits = emptied(scr.waits)
	scr.affMemo = emptied(scr.affMemo)
	scr.comps = emptied(scr.comps)
	scr.results = emptied(scr.results)
	scratchPool.Put(scr)
}

// emptied zeroes a buffer's elements and returns it empty, its capacity
// kept.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// SessionResources are the read-only structures a session may share with
// other sessions over the same topology instead of building privately:
// the Kripke state arena and the formula-keyed warmth cache (closures and
// label tables). Both are immutable or internally synchronized, so the
// pool deduplicates them across identically-shaped tenants. Nil fields
// mean "build a private one".
//
// ContextFP, when set, is ContextFingerprint of the very topology, specs
// and options the session is built or restored with, computed once by a
// caller that keeps them fixed across many sessions: images carry it,
// cache keys start with it, and a restore compares the image's with it.
// Nil means "compute it when first needed".
//
// Current, when set, is the configuration the caller holds for the tenant
// an image belongs to. RestoreSessionWith compares the image's
// configuration section with it as it decodes, and where the two agree
// rule for rule the restored session and its structures bind to this
// object instead of a decoded copy — so the caller's "is the image where
// the tenant is" check is a pointer comparison, and the request that
// follows diffs and hashes against its own target by identity. Where they
// differ the session is at the image's configuration, as without the
// field. NewSessionWith ignores it.
//
// Factory, when set, builds the per-class checkers in place of the
// incremental checker over Warmth. It is the seam the figure harness
// (internal/bench) drives its comparison backends through; such a session
// cannot be snapshotted, and RestoreSessionWith ignores the field (an
// image holds the incremental checker's labeling). Ablation is the
// harness's other seam: the Section 4.2 optimizations the session's
// searches leave out.
type SessionResources struct {
	Arena     *kripke.Arena
	Warmth    *mc.Warmth
	Factory   mc.Factory
	Ablation  Ablation
	ContextFP []byte
	Current   *config.Config
}

// NewSession builds the warm per-class structures over the initial
// configuration and verifies it against every specification (returning
// ErrInitialViolation otherwise). The granularity and search options are
// fixed for the session's lifetime.
func NewSession(topo *topology.Topology, init *config.Config, specs []config.ClassSpec, opts Options) (*Session, error) {
	return NewSessionWith(topo, init, specs, opts, SessionResources{})
}

// NewSessionWith is NewSession drawing the state arena, the warmth cache
// and the checker constructor from res where provided.
func NewSessionWith(topo *topology.Topology, init *config.Config, specs []config.ClassSpec, opts Options, res SessionResources) (*Session, error) {
	s := newSessionShell(topo, init, specs, opts, res)
	s.factory = res.Factory
	switches := init.Switches()
	for i := range specs {
		if err := s.buildClass(i, switches); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSessionShell assembles the session fields common to cold
// construction and snapshot restore: shared or private resources, every
// class slot empty.
func newSessionShell(topo *topology.Topology, init *config.Config, specs []config.ClassSpec, opts Options, res SessionResources) *Session {
	arena := res.Arena
	if arena == nil {
		arena = kripke.NewArena(topo)
	}
	warm := res.Warmth
	if warm == nil {
		warm = mc.NewWarmth()
	}
	s := &Session{
		topo:     topo,
		specs:    specs,
		opts:     opts,
		abl:      res.Ablation,
		cur:      init,
		arena:    arena,
		warm:     warm,
		ks:       make([]*kripke.K, len(specs)),
		checkers: make([]mc.Checker, len(specs)),
		ctxFP:    res.ContextFP,
	}
	if opts.Trace {
		s.trace = obs.NewTrace(0)
	}
	return s
}

// buildClass fills class i's slot at the current configuration, whose
// switches with a table the caller lists (config.Config.Switches): the
// structure, its checker with the initial labeling, and the verdict, which
// must hold — ErrInitialViolation otherwise.
func (s *Session) buildClass(i int, switches []int) error {
	cs := s.specs[i]
	k, err := s.arena.BuildOn(s.cur, switches, cs.Class)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInitialViolation, err)
	}
	var chk mc.Checker
	if s.factory != nil {
		chk, err = s.factory(k, cs.Formula)
	} else {
		chk, err = mc.NewIncrementalWarm(k, cs.Formula, s.warm)
	}
	if err != nil {
		return err
	}
	if !chk.Check().OK {
		return fmt.Errorf("%w: class %v", ErrInitialViolation, cs.Class)
	}
	s.ks[i], s.checkers[i] = k, chk
	return nil
}

// buildClasses fills the empty slots among the listed classes — a
// request's affected classes — at the current configuration, before
// anything of the request reads a structure. The configuration is one the
// session verified or its holder vouched for, so a class that does not
// build or does not hold there means the session's state is not what it
// claims: ErrClassBuild, on which the holder drops the session.
func (s *Session) buildClasses(classes []int) error {
	var switches []int
	for _, ci := range classes {
		if s.ks[ci] != nil {
			continue
		}
		if switches == nil {
			switches = s.cur.Switches()
		}
		if err := s.buildClass(ci, switches); err != nil {
			return fmt.Errorf("%w: %v", ErrClassBuild, err)
		}
		s.classBuilds++
	}
	return nil
}

// CheckAtRest reports a violation of what holds of the class slots
// whenever no request is running: a class has a structure and a checker
// or neither, and every built structure is based on the session's current
// configuration with no table of its own over it, and holds no undo log
// (every update the request made was reverted or committed).
func (s *Session) CheckAtRest() error {
	for i, k := range s.ks {
		if (k == nil) != (s.checkers[i] == nil) {
			return fmt.Errorf("core: class %d has a structure or a checker, not both", i)
		}
		if k == nil {
			continue
		}
		if cfg, moved := k.Base(); cfg != s.cur || moved != 0 {
			return fmt.Errorf("core: class %d is based on another configuration than the session's, or holds %d tables over it", i, moved)
		}
		if k.HoldsLog() {
			return fmt.Errorf("core: class %d holds an undo log", i)
		}
	}
	return nil
}

// ClassBuilds returns the number of class slots the session has filled on
// first need (zero for a session that was built whole).
func (s *Session) ClassBuilds() int { return s.classBuilds }

// SetTrace attaches (or, with nil, detaches) a span recorder for the
// following runs. The pool uses it to trace exactly one request on a
// warm session (the daemon's trace=1) without paying for tracing on the
// rest of the stream.
func (s *Session) SetTrace(t *obs.Trace) { s.trace = t }

// Trace returns the attached span recorder, or nil.
func (s *Session) Trace() *obs.Trace { return s.trace }

// EnableCache attaches a private verification-first plan cache (cache.go)
// with the default capacity and returns it, creating one if the session
// has none. It is a no-op returning nil when Options.NoPlanCache is set.
func (s *Session) EnableCache() *PlanCache {
	if s.opts.NoPlanCache {
		return nil
	}
	if s.cache == nil {
		s.cache = NewPlanCache(0)
	}
	return s.cache
}

// SetCache attaches an existing (possibly shared) plan cache; nil
// detaches. Ignored when Options.NoPlanCache is set.
func (s *Session) SetCache(c *PlanCache) {
	if s.opts.NoPlanCache {
		return
	}
	s.cache = c
}

// Cache returns the attached plan cache, or nil.
func (s *Session) Cache() *PlanCache { return s.cache }

// Current returns the configuration the session is at: the initial one,
// or the target of the last successful Synthesize.
func (s *Session) Current() *config.Config { return s.cur }

// Runs returns the number of Synthesize calls served so far.
func (s *Session) Runs() int { return s.runs }

// RestoredCold reports whether RestoreSession made the session from an
// image in an older format: the configuration and run counter are the
// image's, every class was built at that configuration, and whatever else
// the image held was not read.
func (s *Session) RestoredCold() bool { return s.restoredCold }

// LastStats returns the statistics of the most recent synthesis attempt,
// successful or not. After a failed or aborted run,
// Stats.CommittedComponents names the components whose sub-searches
// finished and left their classes' structures at the target tables.
func (s *Session) LastStats() Stats { return s.lastStats }

// Synthesize runs ORDERUPDATE from the session's current configuration
// to final, reusing the warm per-class structures, and advances the
// current configuration on success. Failed syntheses (including
// ErrNoOrdering) leave the session at its previous configuration, ready
// for the next target.
func (s *Session) Synthesize(final *config.Config) (*Plan, error) {
	return s.synthesize(context.Background(), "", final)
}

// SynthesizeContext is Synthesize with a request context: the search
// polls ctx and aborts with ErrTimeout when its deadline expires before
// Options.Timeout (the earlier of the two bounds the search) or
// ErrCanceled when it is canceled outright. An aborted synthesis behaves
// like any failed one — the session resyncs to its previous configuration
// and serves the next target normally.
func (s *Session) SynthesizeContext(ctx context.Context, final *config.Config) (*Plan, error) {
	return s.synthesize(ctx, "", final)
}

func (s *Session) synthesize(ctx context.Context, name string, final *config.Config) (*Plan, error) {
	start := time.Now()
	if ctx != nil && ctx.Err() != nil {
		// Dead on arrival: do not touch the warm structures at all.
		return nil, ctxErr(ctx)
	}
	s.runs++
	scr := scratchPool.Get().(*engineScratch)
	defer putScratch(scr)
	scr.sc = config.Scenario{Name: name, Topo: s.topo, Init: s.cur, Final: final, Specs: s.specs}
	sc := &scr.sc
	// The request's diff — the switches on which the target differs from
	// the current configuration, their rule changes, and the classes those
	// rules can match — is computed once and serves the unit list, the
	// cached plan's coverage check and replay, the final verification, the
	// footprints, the search and the post-run resync.
	diff := config.Diff(s.cur, final)
	s.diffBuf = ruleDiffs(s.diffBuf, s.cur, final, diff)
	s.aff.reset(s.specs, s.diffBuf)
	reqID := obs.RequestIDFrom(ctx)
	tr := s.trace
	if tr != nil && !s.repairing {
		// A repair run nests under RepairContext's root; an ordinary run
		// starts a fresh trace.
		tr.Reset()
		tr.SetRequestID(reqID)
	}
	root := tr.Begin("synthesize", s.traceOuter)
	// refuse ends a request the session will not search: the attempt is
	// still the most recent one, and its trace is complete.
	refuse := func(st Stats, err error) (*Plan, error) {
		s.lastStats = st
		tr.End(root)
		return nil, err
	}
	units, err := computeUnits(scr.units[:0], sc, diff, s.opts.RuleGranularity, s.opts.TwoSimple)
	scr.units = units
	if err != nil {
		return refuse(Stats{RequestID: reqID}, err)
	}
	if err := s.buildClasses(s.aff.classes); err != nil {
		return refuse(Stats{RequestID: reqID}, err)
	}
	e := newEngineShellWith(sc, s.opts, s.abl, units, scr)
	e.bindContext(ctx)
	e.stats.RequestID = reqID
	// Every other class has an empty delta for every unit of the diff: the
	// engine would skip it at every check.
	s.attach(e, s.aff.classes)

	// Verification-first fast path (cache.go): with a cache attached,
	// fingerprint the instance and try a lookup. A cached plan is replayed
	// step by step through the warm checkers — every intermediate
	// configuration is model-checked again — so a hit is exactly as sound
	// as a fresh search, while a stale or corrupted entry fails replay, is
	// evicted, and the run falls through to the ordinary search. A
	// memoized infeasibility fails fast, except in repair mode, which must
	// run the fallback ladder and so searches afresh.
	var cacheKey string
	var ent *cacheEntry
	if s.cache != nil {
		clSpan := tr.Begin("cache-lookup", root)
		cacheKey = s.instanceKey(final)
		ent = s.cache.lookup(cacheKey)
		tr.End(clSpan)
	}
	var steps []Step
	var runErr error
	var dag *PlanDAG
	fromCache, searched := false, false
	if ent != nil && ent.hasPlan() {
		e.snapshotCheckerStats()
		cvStart := time.Now()
		cvSpan := tr.Begin("cache-verify", root)
		frames, ok := e.replayCached(ent, final, diff)
		tr.End(cvSpan)
		e.stats.CacheVerifyElapsed = time.Since(cvStart)
		if ok {
			// The replay left every affected class's structure at the
			// target, checked after its last change: verifying the target
			// is reading the verdicts. A target that holds keeps the
			// replayed updates.
			vfStart := time.Now()
			vfSpan := tr.Begin("final-verify", root)
			if ok = s.targetHolds(e); ok {
				e.commit(frames)
			} else {
				e.revert(frames)
			}
			tr.End(vfSpan)
			e.stats.VerifyElapsed = time.Since(vfStart)
		}
		if ok {
			steps, dag = ent.plan()
			fromCache = true
			e.stats.CacheHit = true
			e.stats.Components = int(ent.components)
			s.cache.noteHit()
		} else {
			e.stats.CacheVerifyFailed = true
			s.cache.evictPoisoned(cacheKey)
		}
	}
	if !fromCache {
		// Verify the target before searching: if it violates the spec, no
		// sequence can be correct (Figure 4, line 2). The initial endpoint
		// was verified when the session was opened, so a scenario whose
		// endpoints are both bad reports ErrInitialViolation (from
		// NewSession) rather than ErrFinalViolation.
		vfStart := time.Now()
		vfSpan := tr.Begin("final-verify", root)
		err := s.verifyFinal(e, final)
		tr.End(vfSpan)
		e.stats.VerifyElapsed = time.Since(vfStart)
		if err != nil {
			return refuse(e.stats, err)
		}
	}
	switch {
	case fromCache:
	case ent != nil && ent.infeasible && !s.repairing:
		e.stats.CacheHit = true
		s.cache.noteHit()
		runErr = ErrNoOrdering
	default:
		if s.cache != nil {
			s.cache.noteMiss()
		}
		searched = true
		// Partition the diff into independent subproblems (decompose.go)
		// and run one search per subproblem.
		dcSpan := tr.Begin("decompose", root)
		comps, derr := s.decompose(e)
		tr.End(dcSpan)
		searchStart := time.Now()
		searchSpan := tr.Begin("search", root)
		s.traceSearch = searchSpan
		runErr = derr
		if derr == nil {
			steps, runErr = s.runComponents(e, comps, final)
		}
		s.traceSearch = 0
		tr.End(searchSpan)
		e.stats.SearchElapsed = time.Since(searchStart)
	}
	var plan *Plan
	if runErr == nil {
		if fromCache {
			// Cached plans were wait-removed when first synthesized and
			// carry their DAG; only the counters need refreshing. The
			// replay's checker work is read against the snapshot taken
			// before it (a search's arrives per component, addSearch).
			e.stats.WaitsBefore = countWaits(steps)
			e.stats.WaitsAfter = e.stats.WaitsBefore
			e.collectCheckerStats()
		} else {
			e.stats.WaitsBefore = countWaits(steps)
			// The careful sequence is the request scratch's; the plan gets
			// its own copy, made once: wait removal's output, or the careful
			// sequence itself. Two-phase fallback segments (repair ladder) are
			// version-tagged, not careful: the class-trace argument behind
			// wait removal and the dependency analysis does not cover them, so
			// such plans keep every wait and carry a sequential chain DAG
			// instead.
			tagged := e.stats.TwoPhaseComponents > 0
			if !s.opts.NoWaitRemoval && !tagged {
				wrStart := time.Now()
				wrSpan := tr.Begin("wait-removal", root)
				steps = e.removeWaits(steps)
				tr.End(wrSpan)
				e.stats.WaitRemovalElapsed = time.Since(wrStart)
			} else {
				steps = ownSteps(steps)
			}
			e.stats.WaitsAfter = countWaits(steps)
			// Lift the ordering facts into the dependency DAG (dag.go). Built
			// over the final — possibly composed — step sequence, which for
			// decomposed runs yields the disjoint union of the component
			// sub-DAGs (components share no class and no switch, so no chain
			// crosses a component boundary).
			dbSpan := tr.Begin("dag-build", root)
			if tagged {
				dag = chainDAG(steps)
			} else {
				dag = e.buildDAG(steps)
			}
			tr.End(dbSpan)
		}
		e.stats.DAGDepth, e.stats.DAGWidth = dag.Depth, dag.Width
		e.stats.Elapsed = time.Since(start)
		plan = &Plan{Steps: steps, Stats: e.stats, DAG: dag}
	}
	// Memoize the outcome (cache.go): a fresh successful search stores its
	// plan and DAG, and a proven infeasibility stores the memo. Repair-mode
	// runs never store: their ladder products (escalated granularity,
	// version-tagged segments) are not ordinary careful plans for this
	// instance key.
	if s.cache != nil && searched && !s.repairing {
		csSpan := tr.Begin("cache-store", root)
		switch {
		case runErr == nil:
			s.cache.storePlan(cacheKey, steps, dag, final, e.stats.Components)
		case errors.Is(runErr, ErrNoOrdering):
			s.cache.storeInfeasible(cacheKey)
		}
		tr.End(csSpan)
	}
	s.lastStats = e.stats

	// Resync the warm structures to a known configuration: the new
	// current one on success, the previous one otherwise. The rebind is
	// diff-aware, so where the search already left the structures there it
	// is a table-equality sweep and the checkers are not touched at all. A
	// single-use session skips this — its structures are discarded with
	// the session.
	if s.ephemeral {
		if runErr != nil {
			tr.End(root)
			return nil, runErr
		}
		s.noteAdvance(final)
		s.cur = final
		if tr != nil {
			tr.End(root)
			plan.Trace = tr.Snapshot()
		}
		return plan, nil
	}
	target := s.cur
	if runErr == nil {
		target = final
	}
	// Only the diff's switches can deviate from target: the search and
	// the footprint pre-pass mutate nothing else, and target differs from
	// the previous configuration exactly on the diff the units cover.
	// Restricting the rebind to those switches — and, per class, to the
	// ones whose rule changes can affect it — keeps resync cost
	// proportional to the diff, not the network times the class count. The
	// rule diffs span the two endpoints (s.cur vs final, not vs target):
	// even when the run failed and target is s.cur, a decomposed run's
	// *successful* components left their classes' structures at final
	// tables, and a class the endpoint diff cannot affect is forwarded
	// alike under either endpoint's table while every other class gets a
	// real rebind against its actual structure state. Every built structure
	// ends rebased on target.
	rbStart := time.Now()
	rbSpan := tr.Begin("rebind", root)
	if rerr := s.resync(target); rerr != nil {
		// target was verified loop-free for every class (the initial
		// configuration at session construction, every successful
		// final here), so this indicates structure corruption.
		return nil, fmt.Errorf("core: session resync: %v", rerr)
	}
	tr.End(rbSpan)
	// The resync runs after Elapsed and lastStats were stamped, so the
	// rebind duration is patched into both (and into the plan's copy).
	reb := time.Since(rbStart)
	s.lastStats.RebindElapsed = reb
	if plan != nil {
		plan.Stats.RebindElapsed = reb
	}
	if runErr != nil {
		tr.End(root)
		return nil, runErr
	}
	s.lastPlan, s.lastInit, s.lastFinal = plan, s.cur, final
	s.noteAdvance(final)
	s.cur = final
	if tr != nil {
		tr.End(root)
		plan.Trace = tr.Snapshot()
	}
	return plan, nil
}

// verifyFinal checks the target configuration against every class
// specification on the search structures, which sit at the current
// configuration: per affected class, the request's diff is applied as one
// step — every switch whose change the class can see rewired, one loop
// check over the result, the checker updated once over the states that
// moved — the verdict read, and the step undone as a DFS backtrack undoes
// one: the saved successor lists, tables and labels go back, nothing is
// recomputed. A class no changed rule matches is left alone: its standing
// verdict is read if it is built, and is the one its holder vouched for
// if it is not. A target that forwards some class in a cycle is the
// search's loop protocol: the structure is reverted and the checker never
// sees it. Passing or not, every structure and label is back where it was
// when verifyFinal returns, the structures rebased on the current
// configuration: a refused target reaches no resync.
func (s *Session) verifyFinal(e *engine, final *config.Config) error {
	frames := e.frameBuf(0)
	defer func() {
		e.revert(frames)
		for _, f := range frames {
			e.ks[f.class].Rebase(s.cur)
		}
		e.scr.frames[0] = frames
	}()
	pos := 0
	for ci, cs := range s.specs {
		e.stats.Checks++
		var verdict mc.Verdict
		switch {
		case pos < len(s.aff.classes) && s.aff.classes[pos] == ci:
			delta, err := e.ks[pos].UpdateSwitches(final, s.aff.switchesOf(pos))
			if delta != nil { // applied, even where it closed a loop
				frames = append(frames, frame{class: pos, delta: delta})
			}
			if err != nil {
				return fmt.Errorf("%w: %v", ErrFinalViolation, err)
			}
			if len(delta.Changed()) == 0 {
				verdict = e.checkers[pos].Check()
			} else {
				verdict, frames[len(frames)-1].token = e.checkers[pos].Update(delta)
			}
			pos++
		case s.checkers[ci] != nil:
			verdict = s.checkers[ci].Check()
		default:
			continue
		}
		if !verdict.OK {
			return fmt.Errorf("%w: class %v", ErrFinalViolation, cs.Class)
		}
	}
	return nil
}

// targetHolds reads the verdicts of the affected classes off structures
// that already sit at the target (a replayed cached plan left them
// there); every other class stands where the current configuration left
// it, and is counted as checked all the same.
func (s *Session) targetHolds(e *engine) bool {
	e.stats.Checks += len(s.specs) - len(e.checkers)
	for _, chk := range e.checkers {
		e.stats.Checks++
		if !chk.Check().OK {
			return false
		}
	}
	return true
}

// swDiff records the rules that change on one switch between the
// configuration a structure is bound to and the rebind target.
type swDiff struct {
	sw             int
	removed, added []network.Rule
}

// affects reports whether any changed rule matches the class packet: if
// none does, the class's forwarding at the switch is identical under both
// tables and its structure has nothing to recompute.
func (d *swDiff) affects(pkt network.Packet) bool {
	return rulesAffect(d.removed, d.added, pkt)
}

// rulesAffect reports whether any of the changed rules matches the class
// packet. A class no changed rule matches keeps identical forwarding
// under both tables — table application is priority-set semantics, so a
// rule that cannot match contributes nothing and a pure reorder of
// identical rules changes nothing either. This single predicate backs
// both the footprint pre-filter and the affected-class list.
func rulesAffect(removed, added []network.Rule, pkt network.Packet) bool {
	for _, r := range removed {
		if headerMatches(r.Match, pkt) {
			return true
		}
	}
	for _, r := range added {
		if headerMatches(r.Match, pkt) {
			return true
		}
	}
	return false
}

// ruleDiffs collects the per-switch rule changes between from and to over
// the candidate switches, once — the diff is class-independent, so every
// class's rebind shares it. An entry of dst keeps its rule lists' memory
// for the next request.
func ruleDiffs(dst []swDiff, from, to *config.Config, cands []int) []swDiff {
	dst = dst[:0]
	for _, sw := range cands {
		dst = slices.Grow(dst, 1)[:len(dst)+1] // an entry left by the last request keeps its lists
		d := &dst[len(dst)-1]
		d.sw = sw
		d.removed, d.added = appendDiff(emptied(d.removed), emptied(d.added), from.Table(sw), to.Table(sw))
		if len(d.removed) == 0 && len(d.added) == 0 {
			dst = dst[:len(dst)-1]
		}
	}
	return dst
}

// affectedClasses is a request's class list: the classes some changed
// rule of its diff matches, as ascending spec indexes, each with the diff
// switches (ascending) whose change it can see. Every other class is
// forwarded alike at every switch under both endpoints and under every
// table a plan installs in between, so no phase of the request visits it.
type affectedClasses struct {
	classes []int
	// sws[ends[i-1]:ends[i]] are the switches of classes[i].
	ends, sws []int
}

// reset computes the list for the rule diffs of one request.
func (a *affectedClasses) reset(specs []config.ClassSpec, diffs []swDiff) {
	a.classes, a.ends, a.sws = a.classes[:0], a.ends[:0], a.sws[:0]
	for ci, cs := range specs {
		pkt, n := cs.Class.Packet(), len(a.sws)
		for di := range diffs {
			if d := &diffs[di]; d.affects(pkt) {
				a.sws = append(a.sws, d.sw)
			}
		}
		if len(a.sws) > n {
			a.classes = append(a.classes, ci)
			a.ends = append(a.ends, len(a.sws))
		}
	}
}

// switchesOf returns the diff switches classes[pos] can see.
func (a *affectedClasses) switchesOf(pos int) []int {
	from := 0
	if pos > 0 {
		from = a.ends[pos-1]
	}
	return a.sws[from:a.ends[pos]]
}

// attach hands the engine the structures and checkers of the given
// classes (ascending spec indexes, all built), in that order.
func (s *Session) attach(e *engine, classes []int) {
	e.classes, e.ks, e.checkers = classes, e.ks[:0], e.checkers[:0]
	for _, ci := range classes {
		e.ks = append(e.ks, s.ks[ci])
		e.checkers = append(e.checkers, s.checkers[ci])
	}
}

// resync brings every built structure (and its checker) to target, which
// differs from what the structures hold on the switches of diffBuf at
// most. Per affected class, the diff switches it can see are rebound and
// the checker relabels from the arrival states of the switches whose
// transitions moved. A diff switch a class cannot see needs nothing: the
// class is forwarded there alike under either table, and its structure,
// rebased on target at the end (kripke.K.Rebase), reads the new one from
// it.
func (s *Session) resync(target *config.Config) error {
	for pos, ci := range s.aff.classes {
		k := s.ks[ci]
		changed, err := k.RebindSwitches(target, s.aff.switchesOf(pos))
		if err != nil {
			return err
		}
		if len(changed) > 0 {
			rewired := s.stateBuf[:0]
			for _, sw := range changed {
				rewired = append(rewired, k.StatesOf(sw)...)
			}
			s.stateBuf = rewired
			s.checkers[ci].Rebind(rewired)
		}
	}
	for _, k := range s.ks {
		if k != nil {
			k.Rebase(target)
		}
	}
	return nil
}
