// Package netupdate synthesizes correct software-defined-network update
// sequences from formal LTL specifications, reproducing "Efficient
// Synthesis of Network Updates" (McClurg, Hojjat, Černý, Foster — PLDI
// 2015).
//
// Given an initial configuration, a final configuration, and a Linear
// Temporal Logic property over single-packet traces, Synthesize returns
// an ordering update: a sequence of per-switch (or per-rule) updates,
// separated by wait barriers only where needed, such that every
// intermediate configuration satisfies the property — or reports that no
// such ordering exists.
//
// A library caller cannot trace a synthesis: the span recorder is
// attached only by the serving stack, so traces come from
// `netupdate -trace-out` and the daemon's `?trace=1`.
//
// The package is a façade over the internal engine:
//
//   - internal/ltl      — LTL formulas, closure, property library
//   - internal/network  — the operational network model (Section 3)
//   - internal/topology — FatTree / Small-World / WAN topologies
//   - internal/config   — configurations and scenario generators
//   - internal/kripke   — network Kripke structures (Section 3.3)
//   - internal/mc       — the incremental labeling checker (Section 5)
//     and its batch oracle
//   - internal/buchi    — automaton-theoretic batch checker (NuSMV
//     stand-in), driven only by the Figure 7 harness (internal/bench)
//   - internal/hsa      — header-space checker (NetPlumber stand-in),
//     likewise
//   - internal/sat      — CDCL solver for early search termination
//   - internal/engine   — the ORDERUPDATE synthesis engine (Section 4)
//   - internal/core     — warm sessions, plan cache and repair around it
//   - internal/twophase — two-phase and naive update baselines
//   - internal/sim      — discrete-event simulator for the Figure 2 experiments
package netupdate

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/twophase"
)

// Core synthesis types.
type (
	// Topology is an undirected switch graph with hosts.
	Topology = topology.Topology
	// Config maps switches to forwarding tables.
	Config = config.Config
	// Class identifies a traffic class (one src->dst host flow).
	Class = config.Class
	// ClassSpec pairs a class with its LTL property.
	ClassSpec = config.ClassSpec
	// Scenario is a full synthesis problem instance.
	Scenario = config.Scenario
	// Formula is an LTL formula over network-state propositions.
	Formula = ltl.Formula
	// Options configures the synthesizer.
	Options = core.Options
	// Plan is a synthesized update sequence.
	Plan = core.Plan
	// PlanDAG is the dependency-DAG form of a plan: per-step predecessor
	// edges (waits become edges, drain-marked where in-flight traffic must
	// quiesce) that any decentralized executor can commit against.
	PlanDAG = core.PlanDAG
	// Step is one plan element (update or wait).
	Step = core.Step
	// Stats reports synthesis work counters.
	Stats = core.Stats
	// Command is an operational controller command.
	Command = network.Command
	// Rule is a prioritized forwarding rule.
	Rule = network.Rule
	// Table is a forwarding table.
	Table = network.Table
	// SimParams configures the discrete-event simulator.
	SimParams = sim.Params
	// SimResult is a probe-delivery time series.
	SimResult = sim.Result
	// SimFaults configures seeded fault injection for the decentralized
	// executor (switch crash, ack loss/duplication, install loss).
	SimFaults = sim.Faults
	// SimCrash schedules a switch failure inside SimFaults.
	SimCrash = sim.Crash
	// DiamondOptions parameterizes the diamond workload generator.
	DiamondOptions = config.DiamondOptions
	// InfeasibleOptions parameterizes the double-diamond generator.
	InfeasibleOptions = config.InfeasibleOptions
	// MultiRegionOptions parameterizes the multi-region workload
	// generator (independent update regions plus coupling cross traffic),
	// the natural workload for the decomposition layer.
	MultiRegionOptions = config.MultiRegionOptions
	// RollingStream is the generated rolling-update workload.
	RollingStream = config.RollingStream
	// RollingOptions parameterizes the rolling-update generator.
	RollingOptions = config.RollingOptions
	// Property selects a specification family for the generators.
	Property = config.Property
	// Fig1Nodes names the switches of the Figure 1 example topology.
	Fig1Nodes = config.Fig1Nodes
)

// PropReachability selects the reachability family for the workload
// generators.
const PropReachability = config.Reachability

// Synthesis failure modes (see internal/core).
var (
	ErrNoOrdering       = core.ErrNoOrdering
	ErrTimeout          = core.ErrTimeout
	ErrCanceled         = core.ErrCanceled
	ErrInitialViolation = core.ErrInitialViolation
	ErrFinalViolation   = core.ErrFinalViolation
	// ErrNoPlan: Repair was called before any successful synthesis.
	ErrNoPlan = core.ErrNoPlan
	// ErrBadCommit: the committed set passed to Repair is not a
	// dependency-closed subset of the last plan's DAG.
	ErrBadCommit = core.ErrBadCommit
)

// Synthesize runs the ORDERUPDATE algorithm on a scenario, returning an
// executable update plan or an error (ErrNoOrdering when no correct
// simple careful sequence exists). The search is the paper's sequential
// DFS — one per independent component of the diff, run concurrently — and
// is deterministic: it returns the same plan on any number of CPUs.
func Synthesize(sc *Scenario, opts Options) (*Plan, error) {
	return core.Synthesize(sc, opts)
}

// SynthesizeContext is Synthesize bounded by a context: the search aborts
// with ErrTimeout when its deadline expires, ErrCanceled when it is
// canceled.
func SynthesizeContext(ctx context.Context, sc *Scenario, opts Options) (*Plan, error) {
	return core.SynthesizeWith(ctx, sc, opts, core.SessionResources{})
}

// Synthesizer is the long-lived, stream-oriented entry point: bound to
// one topology and one set of class specifications, it serves a sequence
// of target configurations — the steady-state shape of a production
// controller's load — while keeping expensive state warm between
// syntheses. Per-class Kripke structures are rebound in place instead of
// rebuilt, model-checker caches (interned labels, closure memos,
// translated automata) persist across runs, and engine scratch is pooled;
// see DESIGN.md "Session architecture". Synthesize is the one-shot
// equivalent and is itself a thin wrapper over a single-use session.
//
// A Synthesizer is NOT goroutine-safe: it must not be used from more
// than one goroutine at a time. The warm per-class structures are
// mutated in place during a synthesis, so overlapping calls would corrupt
// them; a cheap atomic guard detects overlapping calls and fails the
// latecomer with ErrConcurrentUse instead. Callers that need concurrency
// should serialize externally or hold one Synthesizer per goroutine —
// the internal/server pool does exactly that for the daemon.
// Configurations passed in are retained and must not be mutated
// afterwards.
type Synthesizer struct {
	s *core.Session
	// inFlight guards against concurrent misuse; see Synthesize.
	inFlight atomic.Bool
}

// ErrConcurrentUse reports that two Synthesize calls overlapped on one
// Synthesizer, which is not goroutine-safe. The offending call performed
// no work; the in-flight call is unaffected.
var ErrConcurrentUse = errors.New("netupdate: concurrent use of Synthesizer (not goroutine-safe)")

// NewSynthesizer opens a session at the initial configuration, verifying
// it against every class specification (ErrInitialViolation otherwise).
func NewSynthesizer(topo *Topology, init *Config, specs []ClassSpec, opts Options) (*Synthesizer, error) {
	s, err := core.NewSession(topo, init, specs, opts)
	if err != nil {
		return nil, err
	}
	return &Synthesizer{s: s}, nil
}

// Synthesize plans the update from the session's current configuration to
// final and advances the session on success. A failed synthesis
// (including ErrNoOrdering) leaves the session at its previous
// configuration, ready for the next target. Overlapping calls from other
// goroutines fail with ErrConcurrentUse.
func (sy *Synthesizer) Synthesize(final *Config) (*Plan, error) {
	return sy.SynthesizeContext(context.Background(), final)
}

// SynthesizeContext is Synthesize bounded by a request context: the
// search aborts with core.ErrTimeout when the context deadline expires or
// ErrCanceled when the context is canceled, leaving the session at its
// previous configuration.
func (sy *Synthesizer) SynthesizeContext(ctx context.Context, final *Config) (*Plan, error) {
	if !sy.inFlight.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer sy.inFlight.Store(false)
	return sy.s.SynthesizeContext(ctx, final)
}

// Repair resynthesizes after a stalled plan execution: committed lists
// the plan-DAG node indices that took effect before the stall (it must
// be dependency-closed — the decentralized executor's Committed report
// always is), and the session replans from exactly that
// partially-updated configuration back to the stranded target, or to
// newTarget when the update was superseded mid-flight (nil keeps the
// original target). Infeasible components escalate through the repair
// ladder (2-simple, then scoped two-phase) before any error is
// returned; see DESIGN.md "Failure model and repair". On success the
// session advances to the target, ready for the next delta.
func (sy *Synthesizer) Repair(committed []int, newTarget *Config) (*Plan, error) {
	return sy.RepairContext(context.Background(), committed, newTarget)
}

// RepairContext is Repair bounded by a request context, with the same
// expiry semantics as SynthesizeContext.
func (sy *Synthesizer) RepairContext(ctx context.Context, committed []int, newTarget *Config) (*Plan, error) {
	if !sy.inFlight.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer sy.inFlight.Store(false)
	return sy.s.RepairContext(ctx, committed, newTarget)
}

// Current returns the configuration the session is at.
func (sy *Synthesizer) Current() *Config { return sy.s.Current() }

// Runs returns the number of syntheses served so far.
func (sy *Synthesizer) Runs() int { return sy.s.Runs() }

// Counterexample is a violating packet trace through a configuration.
type Counterexample struct {
	Class Class
	// Trace lists the (switch, port) locations visited, in order.
	Trace []kripke.State
}

func (c *Counterexample) String() string {
	s := fmt.Sprintf("class %v:", c.Class)
	for _, st := range c.Trace {
		s += " " + st.String()
	}
	return s
}

// Verify checks a single static configuration against every class
// specification, returning a counterexample trace on failure (nil
// counterexample with ok=false means the configuration has a forwarding
// loop or another structural defect described by err).
func Verify(topo *Topology, cfg *Config, specs []ClassSpec) (ok bool, cex *Counterexample, err error) {
	for _, cs := range specs {
		k, kerr := kripke.Build(topo, cfg, cs.Class)
		if kerr != nil {
			if loop, isLoop := kerr.(*kripke.ErrLoop); isLoop {
				return false, &Counterexample{Class: cs.Class, Trace: loop.Cycle}, nil
			}
			return false, nil, kerr
		}
		chk, cerr := mc.NewIncremental(k, cs.Formula)
		if cerr != nil {
			return false, nil, cerr
		}
		v := chk.Check()
		if !v.OK {
			cex := &Counterexample{Class: cs.Class}
			for _, id := range v.Cex {
				cex.Trace = append(cex.Trace, k.StateAt(id))
			}
			return false, cex, nil
		}
	}
	return true, nil, nil
}

// ParseFormula parses the textual LTL syntax (see internal/ltl.Parse):
//
//	sw=1 -> F sw=5
//	sw=1 -> ((sw!=5) U ((sw=3) & F sw=5))
func ParseFormula(s string) (*Formula, error) { return ltl.Parse(s) }

// Property and topology constructors.
var (
	// Reachability is the paper's reachability property (Section 6):
	// (sw=src) -> F (sw=dst).
	Reachability = ltl.Reachability
	// NewTopology creates an empty topology with n switches.
	NewTopology = topology.New
	// FatTree builds the k-ary fat-tree datacenter topology.
	FatTree = topology.FatTree
	// SmallWorld builds a Watts-Strogatz small-world graph.
	SmallWorld = topology.SmallWorld
)

// Configuration helpers.
var (
	// NewConfig creates an empty configuration.
	NewConfig = config.New
	// InstallPath routes a class along a switch path.
	InstallPath = config.InstallPath
	// PathOf traces a class's forwarding path through a configuration.
	PathOf = config.PathOf
)

// Scenario generators from the paper's evaluation.
var (
	// RollingUpdates random-walks diamond targets over one topology, the
	// generated steady-state workload for long-lived sessions (see
	// DESIGN.md "Session architecture").
	RollingUpdates = config.RollingUpdates
	// Diamonds builds the diamond-update workload of Section 6.
	Diamonds = config.Diamonds
	// Infeasible builds the switch-granularity-impossible workload of
	// Figure 8(h).
	Infeasible = config.Infeasible
	// MultiRegion builds k independent diamond regions plus optional
	// cross-traffic classes that couple them; see DESIGN.md
	// "Decomposition layer".
	MultiRegion = config.MultiRegion
	// Fig1RedGreen and Fig1RedBlue are Overview scenarios on the Figure 1
	// datacenter; Fig1Topology builds the bare topology with its named
	// nodes.
	Fig1RedGreen = config.Fig1RedGreen
	Fig1RedBlue  = config.Fig1RedBlue
	Fig1Topology = config.Fig1Topology
)

// TwoPhasePlan builds the two-phase (consistent) update baseline for a
// scenario, as in Figure 2.
func TwoPhasePlan(sc *Scenario) ([]Command, map[int]int) {
	p := twophase.Build(sc)
	return p.Commands, p.PeakRules
}

// NaivePlan builds the unsynchronized worst-order update baseline.
func NaivePlan(sc *Scenario) []Command { return twophase.Naive(sc) }

// Simulate runs the discrete-event simulator: probes are injected for
// every class while the command schedule executes.
func Simulate(topo *Topology, init *Config, cmds []Command, classes []Class, p SimParams) *SimResult {
	return sim.Run(topo, init, cmds, classes, p)
}

// SimulateDAG runs the plan decentralized: each switch commits its update
// as soon as its dependency-DAG predecessors' acks are visible (drain
// edges additionally wait for the predecessor's pre-commit traffic to
// leave the network), with no central controller schedule. Compare
// SimResult.CompleteAt against Simulate over plan.Commands() for the
// completion-time gap.
func SimulateDAG(topo *Topology, init *Config, plan *Plan, classes []Class, p SimParams) *SimResult {
	return sim.RunPlanDAG(topo, init, plan, classes, p)
}
