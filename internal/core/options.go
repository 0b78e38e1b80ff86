// Package core serves the update-synthesis algorithm of Section 4
// (internal/engine) to a stream of requests: warm sessions that keep every
// class's Kripke structure and checker between syntheses, the
// verification-first plan cache, parked sessions and session images, and
// the repair ladder for a plan that stopped halfway.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"netupdate/internal/engine"
	"netupdate/internal/tenantspec"
)

// Options configures synthesis: the option set a tenant may choose,
// defined with the tenant spec that carries it.
type Options = tenantspec.Options

// Ablation switches off the Section 4.2 optimizations one at a time
// (engine.Ablation). It reaches a session only through
// SessionResources.Ablation; every engine the session runs reads it.
type Ablation = engine.Ablation

// writeFingerprint digests the options as one word of flag bits, after
// a constant 0: persisted fingerprints carried a checker-backend kind
// there, and 0 was the incremental checker, the only one sessions now
// build — so every image written under it keeps its key. A field whose
// plan tag is not a bit number is a programming error: guessing would
// silently change a persisted fingerprint.
func writeFingerprint(w *hashWriter, o Options) {
	w.writeInt(0)
	v, flags := reflect.ValueOf(o), 0
	for i := 0; i < v.NumField(); i++ {
		plan := v.Type().Field(i).Tag.Get("plan")
		bit, err := strconv.Atoi(plan)
		if err != nil || bit < 0 {
			panic(fmt.Sprintf("core: Options.%s: bad plan tag %q", v.Type().Field(i).Name, plan))
		}
		if v.Field(i).Bool() {
			flags |= 1 << bit
		}
	}
	w.writeInt(flags)
}

// Synthesis failure modes.
var (
	// ErrNoOrdering reports that no simple careful update sequence exists
	// at the requested granularity (the algorithm's "impossible" answer,
	// Figure 8h).
	ErrNoOrdering = engine.ErrNoOrdering
	// ErrTimeout reports that the deadline of the search's context
	// expired before it finished.
	ErrTimeout = engine.ErrTimeout
	// ErrCanceled reports that the search's context was canceled before
	// it finished.
	ErrCanceled = engine.ErrCanceled
	// ErrInitialViolation reports that the initial configuration already
	// violates the specification.
	ErrInitialViolation = errors.New("core: initial configuration violates the specification")
	// ErrFinalViolation reports that the final configuration violates the
	// specification, so no update sequence can be correct.
	ErrFinalViolation = engine.ErrFinalViolation
	// ErrClassBuild reports that a class a request needed for the first
	// time did not build, or did not hold, at the configuration the
	// session stands at — one it, or the session it was parked from
	// (Resume), verified — so the session is not in the state it
	// claims. The tenant is fine: whoever holds the session drops it and
	// builds another at the configuration it knows.
	ErrClassBuild = errors.New("core: class failed to build at the session's configuration")
	// ErrNoPlan reports that Session.Repair was called with no synthesized
	// plan to repair (no prior successful Synthesize on this session).
	ErrNoPlan = errors.New("core: no synthesized plan to repair")
	// ErrBadCommit reports that the committed-step set handed to
	// Session.Repair is not a dependency-closed subset of the last plan's
	// update steps (out of range, duplicated, or missing a predecessor).
	ErrBadCommit = errors.New("core: committed set is not a dependency-closed subset of the last plan")
)

// Stats reports the work performed by one synthesis run: the engine's
// counters and timings (engine.Stats, whose fields it promotes) and what
// the session adds around the search.
type Stats struct {
	engine.Stats

	// Elapsed is the run's wall time. RebindElapsed is the post-run resync
	// of the warm per-class structures, CacheVerifyElapsed the replay of a
	// cached plan through the warm checkers (engine.Engine.Replay, whose
	// reading of the target's verdicts is also VerifyElapsed). With the
	// engine's phases they do not sum to Elapsed: scenario setup, DAG
	// build, and cache bookkeeping fall between them.
	Elapsed            time.Duration
	RebindElapsed      time.Duration
	CacheVerifyElapsed time.Duration

	// RequestID is the serving-stack request id (obs.RequestIDFrom) the
	// run was performed under; empty for direct library use.
	RequestID string

	// CommittedComponents lists the components (composition order) whose
	// searches finished and left their classes' structures at the target —
	// [0] for a finished joint run. After a failed or canceled run
	// (Session.LastStats) it names the parts of the diff already solved.
	CommittedComponents []int

	// RepairCommitted is the number of committed steps Repair resumed from.
	RepairCommitted int

	// Plan-cache counters (cache.go). CacheHit marks a run served from the
	// verification-first fast path: either a cached plan that replayed
	// cleanly through the warm checkers (Checks then counts the replay's
	// model-checker calls, and no search ran) or a memoized infeasibility
	// that failed fast. A run that found a stale or corrupted entry sets
	// CacheVerifyFailed, evicts it, and falls back to the full search.
	// CacheHitDistance is a hit's distance: the entries the cache stored
	// after the one that answered, before this run.
	CacheHit          bool
	CacheVerifyFailed bool
	CacheHitDistance  int
}
