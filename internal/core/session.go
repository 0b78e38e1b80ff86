package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/engine"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
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
// ones. NewSession builds and verifies every class. A session made again
// from a parked handle (Resume) starts with every slot empty, and a
// request builds, at the current configuration, the classes some changed
// rule of its diff matches: a class still unbuilt is one no request since
// the resume could affect, so its verdict at the current configuration is
// the one the parked session verified.
//
// Synthesize(final) produces the plan from the session's current
// configuration to final and, on success, advances the current
// configuration. A Session must not be used from more than one goroutine
// at a time (a Synthesize runs on the caller's goroutine, and runs the
// independent components of a diff concurrently, see internal/engine).
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

	// What a request computes once and every phase reads: its diff and the
	// classes the diff's rules can match (the only ones the target check,
	// replay, footprints, search and resync visit). stateBuf is the
	// resync's rewired-state list. memoMarks holds the affected classes'
	// checker memo marks (mc.Checker.MemoMark) from before the request's
	// search: a refused target forgets what its search and its resync
	// memoized.
	aff       engine.Affected
	stateBuf  []int
	memoMarks []int

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

	// Verification-first plan cache (cache.go), attached via EnableCache
	// or SetCache (the pool shares one cache across tenants with the same
	// learning fingerprint). Nil means every synthesis runs the full
	// search. ctxFP memoizes the session's context fingerprint.
	cache *PlanCache
	ctxFP []byte

	// The span recorder of the most recent run (internal/obs): the one
	// its context asked for (obs.TraceFrom), nil when it asked for none.
	// Every recording call is nil-safe, so an untraced run pays a pointer
	// compare per span. A successful run exports it on its plan.
	trace *obs.Trace
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
	switches := init.Switches()
	for i := range specs {
		if err := s.buildClass(i, switches); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSessionShell assembles the session fields common to cold
// construction and Resume: shared or private resources, every class slot
// empty.
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
		factory:  res.Factory,
		ks:       make([]*kripke.K, len(specs)),
		checkers: make([]mc.Checker, len(specs)),
		ctxFP:    res.ContextFP,
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
// session — or the session it was parked from — verified, so a class that
// does not build or does not hold there means the session's state is not
// what it claims: ErrClassBuild, on which the holder drops the session.
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

// EnableCache attaches a private verification-first plan cache (cache.go)
// with the default capacity and returns it, creating one if the session
// has none.
func (s *Session) EnableCache() *PlanCache {
	if s.cache == nil {
		s.cache = NewPlanCache(0)
	}
	return s.cache
}

// SetCache attaches an existing (possibly shared) plan cache; nil
// detaches.
func (s *Session) SetCache(c *PlanCache) { s.cache = c }

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
	return s.SynthesizeContext(context.Background(), final)
}

// SynthesizeContext is Synthesize with a request context, the one bound
// on the search: it polls ctx and aborts with ErrTimeout when its
// deadline expires or ErrCanceled when it is canceled outright. An
// aborted synthesis behaves like any failed one — the session resyncs to
// its previous configuration and serves the next target normally. A
// context that asks for a trace (obs.WithTracing) gets one on the plan.
func (s *Session) SynthesizeContext(ctx context.Context, final *config.Config) (*Plan, error) {
	s.trace = obs.TraceFrom(ctx)
	return s.synthesize(ctx, "", final, nil, 0)
}

// Synthesize runs ORDERUPDATE (Figure 4): it searches for a sequence of
// updates transforming the scenario's initial configuration into its
// final configuration such that every intermediate configuration
// satisfies every class specification, inserting waits between updates
// (careful sequences, Definition 5) and then removing unnecessary waits.
// The search is the paper's sequential DFS on the calling goroutine; a
// diff that splits into independent components runs one such search per
// component, concurrently (internal/engine). It returns ErrNoOrdering if
// no simple careful sequence exists at the requested granularity.
//
// Synthesize is the one-shot entry point: it is a thin wrapper that opens
// a Session for the scenario's endpoints and serves a single target.
// Callers facing a stream of configuration changes over one topology
// should hold a Session (or the netupdate.Synthesizer façade) instead and
// let the per-class structures, label tables, and engine scratch stay
// warm between syntheses.
func Synthesize(sc *config.Scenario, opts Options) (*Plan, error) {
	return SynthesizeWith(context.Background(), sc, opts, SessionResources{})
}

// SynthesizeWith is Synthesize over the given session resources (see
// NewSessionWith), the search bounded by ctx (ErrTimeout, ErrCanceled);
// the repair ladder's 2-simple rung runs through it too. It records no
// trace: its Elapsed, which covers the session's construction too, is no
// span's.
func SynthesizeWith(ctx context.Context, sc *config.Scenario, opts Options, res SessionResources) (*Plan, error) {
	start := time.Now()
	s, err := NewSessionWith(sc.Topo, sc.Init, sc.Specs, opts, res)
	if err != nil {
		return nil, err
	}
	s.ephemeral = true
	plan, err := s.synthesize(ctx, sc.Name, sc.Final, nil, 0)
	if plan != nil {
		// One-shot semantics: Elapsed covers structure construction too,
		// as it did before the session refactor. (Session callers get
		// per-run time — construction amortizes across their stream.)
		plan.Stats.Elapsed = time.Since(start)
	}
	return plan, err
}

// synthesize serves one request, recording into s.trace under outer (0
// for a root). fallback, non-nil only while the session repairs, is the
// repair ladder a stuck component walks (repairFallback).
func (s *Session) synthesize(ctx context.Context, name string, final *config.Config, fallback engine.Fallback, outer int) (*Plan, error) {
	if ctx != nil && ctx.Err() != nil {
		// Dead on arrival: do not touch the warm structures at all.
		return nil, engine.ContextErr(ctx)
	}
	tr := s.trace
	// The run's phase: Elapsed is its duration, and every other phase
	// falls inside it.
	run := tr.Start("synthesize", outer, 0)
	root := run.Span()
	s.runs++
	// The request's diff — the switches on which the target differs from
	// the current configuration, their rule changes, and the classes those
	// rules can match — is computed once and serves the unit list, the
	// cached plan's coverage check and replay, the footprints, the search
	// and its target check, and the post-run resync.
	s.aff.Reset(s.specs, s.cur, final)
	st := Stats{RequestID: obs.RequestIDFrom(ctx)}
	// fail ends a run that returns no plan: the attempt is still the most
	// recent one, and its trace is complete.
	fail := func(err error) (*Plan, error) {
		st.Elapsed = run.End()
		s.lastStats = st
		return nil, err
	}
	if err := s.buildClasses(s.aff.Classes); err != nil {
		return fail(err)
	}
	e := engine.Begin(ctx, engine.Request{
		Scenario: config.Scenario{Name: name, Topo: s.topo, Init: s.cur, Final: final, Specs: s.specs},
		// Every class but the affected ones has an empty delta for every
		// unit of the diff: the engine would skip it at every check.
		Affected: &s.aff, KS: s.ks, Checkers: s.checkers,
		Rules: s.opts.RuleGranularity, TwoSimple: s.opts.TwoSimple,
		Ablation: s.abl,
		Trace:    tr, Span: root,
	})
	defer e.Release()
	s.memoMarks = s.memoMarks[:0]
	for _, ci := range s.aff.Classes {
		s.memoMarks = append(s.memoMarks, s.checkers[ci].MemoMark())
	}

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
	if ent != nil && !ent.infeasible {
		steps, dag = ent.plan(final)
		cv := tr.Start("cache-verify", root, 0)
		fromCache = ent.fits(final, s.aff.Switches) && e.Replay(steps)
		st.CacheVerifyElapsed = cv.End()
		if fromCache {
			st.CacheHit = true
			st.CacheHitDistance = s.cache.noteHit(ent)
		} else {
			st.CacheVerifyFailed = true
			s.cache.evictPoisoned(cacheKey)
		}
	}
	if !fromCache {
		// The target must hold for every class, or no sequence can be
		// correct (Figure 4, line 2). A class the diff cannot affect holds
		// there as it does now, which is a constant-time read of its
		// standing verdict. The affected classes are checked on demand by
		// the search that visits them: when a check first fails, or when the
		// search ends without a plan and without a check. An infeasibility
		// memo was stored only after such a check passed, under a key
		// covering the target. The initial endpoint was verified when the
		// session was opened, so a scenario whose endpoints are both bad
		// reports ErrInitialViolation (from NewSession) rather than
		// ErrFinalViolation.
		//
		// Only a repair's crash rebind can leave an unaffected class
		// violated, and a clean run records no target check, so the
		// refusal's check is the one run again as a final-verify phase.
		if s.unaffectedHold() != nil {
			vf := tr.Start("final-verify", root, 0)
			err := s.unaffectedHold()
			st.Stats = e.Stats()
			st.VerifyElapsed = vf.End()
			return fail(err)
		}
	}
	switch {
	case fromCache:
	case ent != nil && ent.infeasible && fallback == nil:
		st.CacheHit = true
		st.CacheHitDistance = s.cache.noteHit(ent)
		runErr = ErrNoOrdering
	default:
		if s.cache != nil {
			s.cache.noteMiss()
		}
		searched = true
		steps, dag, st.CommittedComponents, runErr = e.Search(!s.opts.NoDecomposition, !s.opts.NoWaitRemoval, fallback)
	}
	st.Stats = e.Stats()
	if runErr == nil && fromCache {
		// Cached plans were wait-removed when first synthesized and carry
		// their DAG; only the counters need refreshing.
		st.Components = int(ent.components)
		st.WaitsBefore = (&Plan{Steps: steps}).Waits()
		st.WaitsAfter = st.WaitsBefore
		st.DAGDepth, st.DAGWidth = dag.Depth, dag.Width
	}
	// Memoize the outcome (cache.go): a fresh successful search stores its
	// plan and DAG, and a proven infeasibility stores the memo. Repair-mode
	// runs never store: their ladder products (escalated granularity,
	// version-tagged segments) are not ordinary careful plans for this
	// instance key.
	if s.cache != nil && searched && fallback == nil {
		csSpan := tr.Begin("cache-store", root)
		switch {
		case runErr == nil:
			s.cache.store(newPlanEntry(cacheKey, steps, dag, final, st.Components))
		case errors.Is(runErr, ErrNoOrdering):
			s.cache.storeInfeasible(cacheKey)
		}
		tr.End(csSpan)
	}

	// Resync the warm structures to a known configuration: the new
	// current one on success, the previous one otherwise. The rebind is
	// diff-aware, so where the search already left the structures there it
	// is a table-equality sweep and the checkers are not touched at all. A
	// single-use session skips this — its structures are discarded with
	// the session.
	//
	// Only the diff's switches can deviate from target: the search and its
	// target check mutate nothing else, the footprint pre-pass nothing at
	// all, and target differs from the previous configuration exactly on
	// the diff the units cover. Restricting the rebind to those switches —
	// and, per class, to the ones whose rule changes can affect it — keeps
	// resync cost proportional to the diff, not the network times the class
	// count. The rule diffs span the two endpoints (s.cur vs final, not vs
	// target): even when the run failed and target is s.cur, a decomposed
	// run's *successful* components left their classes' structures at final
	// tables, and a class the endpoint diff cannot affect is forwarded alike
	// under either endpoint's table while every other class gets a real
	// rebind against its actual structure state. Every built structure ends
	// rebased on target.
	if !s.ephemeral {
		target := s.cur
		if runErr == nil {
			target = final
		}
		rb := tr.Start("rebind", root, 0)
		rerr := s.resync(target)
		st.RebindElapsed = rb.End()
		if rerr != nil {
			// target was verified loop-free for every class (the initial
			// configuration at session construction, every successful
			// final here), so this indicates structure corruption.
			return fail(fmt.Errorf("core: session resync: %v", rerr))
		}
	}
	if runErr != nil {
		if errors.Is(runErr, ErrFinalViolation) {
			// The search ran only to find the target failing: as when the
			// target was checked before any search, the refusal leaves the
			// checkers' memos, and so the work of the requests after it,
			// as they were.
			for i, ci := range s.aff.Classes {
				s.checkers[ci].ForgetMemo(s.memoMarks[i])
			}
		}
		return fail(runErr)
	}
	st.Elapsed = run.End()
	s.lastStats = st
	plan := &Plan{Steps: steps, Stats: st, DAG: dag, Trace: tr.Snapshot()}
	s.lastPlan, s.lastInit, s.lastFinal = plan, s.cur, final
	s.cur = final
	return plan, nil
}

// unaffectedHold reads the standing verdict of every built class the
// request's diff cannot affect: it is forwarded under the target as under
// the current configuration, where it holds — except after a repair's
// crash rebind, which moves the session to a configuration no check has
// seen. An unbuilt class is one no request since a resume could affect;
// its verdict is the one the parked session verified.
func (s *Session) unaffectedHold() error {
	pos := 0
	for ci, chk := range s.checkers {
		if pos < len(s.aff.Classes) && s.aff.Classes[pos] == ci {
			pos++
			continue
		}
		if chk != nil && !chk.Check().OK {
			return fmt.Errorf("%w: class %v", ErrFinalViolation, s.specs[ci].Class)
		}
	}
	return nil
}

// resync brings every built structure (and its checker) to target, which
// differs from what the structures hold on the request's diff switches at
// most. Per affected class, the diff switches it can see are rebound and
// the checker relabels from the arrival states of the switches whose
// transitions moved. A diff switch a class cannot see needs nothing: the
// class is forwarded there alike under either table, and its structure,
// rebased on target at the end (kripke.K.Rebase), reads the new one from
// it.
func (s *Session) resync(target *config.Config) error {
	for pos, ci := range s.aff.Classes {
		k := s.ks[ci]
		changed, err := k.RebindSwitches(target, s.aff.SwitchesOf(pos))
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
