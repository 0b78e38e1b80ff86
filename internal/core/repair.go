package core

// Failure-during-update repair. A plan executing in the network can stop
// halfway — a switch dies, installs time out, or a superseding target
// arrives — leaving the network at an intermediate configuration the
// session can reconstruct exactly: the pre-plan configuration advanced by
// the committed steps. Repair resynthesizes from that configuration
// instead of aborting the session. Because every dependency-closed
// committed set is trace-equivalent to a prefix of the sequential plan
// (the plan-DAG guarantee, dag.go), the crash-state configuration is
// loop-free and spec-satisfying for every class, so it is a valid
// synthesis start point; the warm per-class structures are rebound to it
// diff-proportionally and the ordinary (decomposed,
// interference-partitioned) search runs from there.
//
// Graceful degradation. A crash state can be genuinely harder than the
// original endpoints — e.g. a superseding target may strand a component
// with no careful ordering. In repair mode a component that reports
// ErrNoOrdering walks a fallback ladder instead of failing the run:
//
//	rung 1 — escalate granularity: re-solve just that component as a
//	         2-simple search (each switch may pass through the merged
//	         union of both rule generations), which is careful and
//	         composes with the other components' plans as usual;
//	rung 2 — scoped two-phase: version-tag only the stuck component
//	         (twophase.BuildScoped) — consistent by construction, ends at
//	         exactly the target tables, and confined to the component's
//	         switches plus its classes' ingress switches.
//
// Plans containing a two-phase segment are not careful sequences, so
// they skip wait removal and carry a sequential chain DAG rather than
// the dependency DAG (engine.Search) — correctness over completion time for
// the rare hard case. The ladder means a feasible repair never surfaces
// a bare ErrNoOrdering: only timeouts, cancellation, and genuine
// endpoint violations remain terminal.

import (
	"context"
	"errors"
	"fmt"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/obs"
	"netupdate/internal/twophase"
)

// Repair resynthesizes from a partially-committed plan execution: the
// network is at the last successful plan's initial configuration advanced
// by exactly the steps in committed (indexes into Plan.Updates(), which
// must form a dependency-closed set — every committed step's DAG
// predecessors committed too). The session's warm structures are rebound
// to that crash-state configuration and a fresh synthesis runs from it to
// newTarget (nil means the stranded original target), with the fallback
// ladder armed so a stuck component degrades to 2-simple granularity and
// then to scoped two-phase version-tagging instead of failing.
//
// On success the session's current configuration advances to the target,
// exactly as for Synthesize; on failure it stays at the crash state —
// which is where the network actually is.
func (s *Session) Repair(committed []int, newTarget *config.Config) (*Plan, error) {
	return s.RepairContext(context.Background(), committed, newTarget)
}

// RepairContext is Repair with a request context bounding the search. A
// context that asks for a trace (obs.WithTracing) gets one on the plan,
// rooted at a repair span.
func (s *Session) RepairContext(ctx context.Context, committed []int, newTarget *config.Config) (*Plan, error) {
	if s.lastPlan == nil {
		return nil, ErrNoPlan
	}
	ups := s.lastPlan.Updates()
	seen := make([]bool, len(ups))
	for _, j := range committed {
		if j < 0 || j >= len(ups) || seen[j] {
			return nil, fmt.Errorf("%w: step %d", ErrBadCommit, j)
		}
		seen[j] = true
	}
	if d := s.lastPlan.DAG; d != nil {
		for _, j := range committed {
			for _, p := range d.Preds[j] {
				if !seen[p] {
					return nil, fmt.Errorf("%w: step %d committed before its predecessor %d", ErrBadCommit, j, p)
				}
			}
		}
	}
	crash := s.lastPlan.ConfigAfter(s.lastInit, committed)
	target := s.lastFinal
	if newTarget != nil {
		target = newTarget
	}
	tr := obs.TraceFrom(ctx)
	s.trace = tr
	root := tr.Begin("repair", 0)
	// Move the session to the crash state: rebind every warm structure
	// (diff-proportionally — only switches that differ between the current
	// binding and the crash state are examined). The crash state is
	// trace-equivalent to a verified plan prefix, so it is loop-free and
	// spec-satisfying for every class and the rebind cannot fail on a
	// healthy session.
	crSpan := tr.Begin("rebind-to-crash", root)
	if err := s.rebindTo(crash); err != nil {
		return nil, err
	}
	tr.End(crSpan)
	s.cur = crash
	plan, err := s.synthesize(ctx, "repair", target, s.repairFallback, root)
	tr.End(root)
	if plan != nil {
		plan.Stats.RepairCommitted = len(committed)
		s.lastStats.RepairCommitted = len(committed)
		if tr != nil {
			// Re-snapshot under the closed repair root so the exported tree
			// includes the crash rebind and the full nested synthesis.
			plan.Trace = tr.Snapshot()
		}
	}
	return plan, err
}

// rebindTo moves the session from its current configuration to cfg: the
// classes the move can affect are built where they were not yet, and
// every built structure (and checker) is rebound.
func (s *Session) rebindTo(cfg *config.Config) error {
	s.aff.Reset(s.specs, s.cur, cfg)
	if err := s.buildClasses(s.aff.Classes); err != nil {
		return err
	}
	if err := s.resync(cfg); err != nil {
		return fmt.Errorf("core: repair rebind: %v", err)
	}
	s.cur = cfg
	return nil
}

// repairFallback is the graceful-degradation ladder for one stuck
// component (an engine.Fallback): sc is the component's problem — the
// session's current configuration with the component's switches moved to
// the target tables, checked against the component's classes — and the
// rungs' spans go under span. It returns the replacement steps and whether
// they are a two-phase (version-tagged, non-careful) segment.
func (s *Session) repairFallback(ctx context.Context, sc *config.Scenario, span int) ([]Step, bool, error) {
	// Rung 1: escalate to 2-simple granularity (skipped when the session
	// already searches an escalated granularity). The sub-search gets its
	// own ephemeral structures; the session's warm state is untouched.
	if !s.opts.TwoSimple && !s.opts.RuleGranularity {
		opts := s.opts
		opts.TwoSimple = true
		opts.NoDecomposition = true
		rung := s.trace.Begin("fallback-2simple", span)
		plan, err := SynthesizeWith(ctx, sc, opts, SessionResources{Ablation: s.abl})
		s.trace.End(rung)
		if err == nil {
			return plan.Steps, false, nil
		}
		if !errors.Is(err, ErrNoOrdering) {
			return nil, false, err
		}
	}
	// Rung 2: scoped two-phase version-tagging — consistent by
	// construction and always constructible.
	rung := s.trace.Begin("fallback-twophase", span)
	tp := twophase.BuildScoped(sc.Topo, sc.Init, sc.Final, sc.Specs)
	s.trace.End(rung)
	return commandSteps(tp.Commands), true, nil
}

// commandSteps lowers a command schedule (two-phase output) to plan
// steps: table installs become update steps and each incr/flush pair
// becomes a wait barrier. Plan.Commands() round-trips it.
func commandSteps(cmds []network.Command) []Step {
	var out []Step
	for _, c := range cmds {
		switch c.Kind {
		case network.CmdUpdate:
			out = append(out, Step{Switch: c.Switch, Table: c.Table})
		case network.CmdFlush:
			out = append(out, Step{Wait: true})
		}
	}
	return out
}
