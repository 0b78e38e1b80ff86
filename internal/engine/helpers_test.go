package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/topology"
)

// grain is how a test has a diff cut and searched: the granularity a
// Request carries, and Search's two bits, negated so the zero value is the
// default plan.
type grain struct {
	rules, twoSimple bool
	joint, keepWaits bool
}

// plan is what a test keeps of a search: its steps, its DAG and the
// engine's counters.
type plan struct {
	Steps []Step
	DAG   *PlanDAG
	Stats Stats
}

// Updates returns the non-wait steps in order.
func (p *plan) Updates() []Step {
	var out []Step
	for _, s := range p.Steps {
		if !s.Wait {
			out = append(out, s)
		}
	}
	return out
}

func (p *plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// structures builds every class's structure and incremental checker at
// sc.Init over one arena, and checks that the class holds there: what a
// caller keeps warm between requests.
func structures(tb testing.TB, sc *config.Scenario) ([]*kripke.K, []mc.Checker) {
	tb.Helper()
	arena := kripke.NewArena(sc.Topo)
	warm := mc.NewWarmth()
	ks := make([]*kripke.K, len(sc.Specs))
	checkers := make([]mc.Checker, len(sc.Specs))
	for i, cs := range sc.Specs {
		k, err := arena.Build(sc.Init, cs.Class)
		if err != nil {
			tb.Fatal(err)
		}
		chk, err := mc.NewIncrementalWarm(k, cs.Formula, warm)
		if err != nil {
			tb.Fatal(err)
		}
		if !chk.Check().OK {
			tb.Fatalf("%s: class %v violates its specification at the initial configuration", sc.Name, cs.Class)
		}
		ks[i], checkers[i] = k, chk
	}
	return ks, checkers
}

// engineFor begins an engine for sc's own diff at the given grain, every
// class built at sc.Init.
func engineFor(tb testing.TB, sc *config.Scenario, g grain) *Engine {
	tb.Helper()
	return begin(tb, context.Background(), sc, g, Ablation{})
}

func begin(tb testing.TB, ctx context.Context, sc *config.Scenario, g grain, abl Ablation) *Engine {
	tb.Helper()
	ks, checkers := structures(tb, sc)
	aff := &Affected{}
	aff.Reset(sc.Specs, sc.Init, sc.Final)
	return Begin(ctx, Request{Scenario: *sc, Affected: aff, KS: ks, Checkers: checkers, Rules: g.rules, TwoSimple: g.twoSimple, Ablation: abl})
}

// newEngineShell builds an engine with no structure attached for sc's own
// diff, as Begin does for a request's: what the ordering analysis, which
// reads tables only, runs on.
func newEngineShell(sc *config.Scenario, g grain) *Engine {
	aff := &Affected{}
	aff.Reset(sc.Specs, sc.Init, sc.Final)
	e := newEngineShellWith(sc, Ablation{}, computeUnits(nil, sc, aff.Switches, aff.flows, g.rules, g.twoSimple), nil)
	e.rules, e.twoSimple, e.aff = g.rules, g.twoSimple, aff
	return e
}

// synthesize searches sc from its initial configuration with structures
// of its own, as a one-shot caller would.
func synthesize(tb testing.TB, sc *config.Scenario, g grain) (*plan, error) {
	tb.Helper()
	return synthesizeWith(tb, context.Background(), sc, g, Ablation{})
}

func synthesizeWith(tb testing.TB, ctx context.Context, sc *config.Scenario, g grain, abl Ablation) (*plan, error) {
	tb.Helper()
	e := begin(tb, ctx, sc, g, abl)
	defer e.Release()
	steps, dag, _, err := e.Search(!g.joint, !g.keepWaits, nil)
	if err != nil {
		return nil, err
	}
	return &plan{Steps: steps, DAG: dag, Stats: e.Stats()}, nil
}

// conformanceCase is one synthesis problem posed to every configuration
// under test.
type conformanceCase struct {
	name string
	sc   *config.Scenario
	g    grain
}

// conformanceCases covers every scenario family in internal/config: the
// three Figure 1 examples, feasible diamond workloads on generated
// topologies, and the infeasible double-diamond gadget at all three
// granularities (switch, rule, 2-simple).
func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	cases := []conformanceCase{
		{name: "fig1-red-green", sc: config.Fig1RedGreen()},
		{name: "fig1-red-blue", sc: config.Fig1RedBlue()},
		{name: "fig1-waypoint", sc: config.Fig1RedBlueWaypoint()},
	}
	sc, err := config.Diamonds(topology.SmallWorld(60, 4, 0.3, 60), config.DiamondOptions{
		Pairs: 2, Property: config.Reachability, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, conformanceCase{name: "diamond-60-reach", sc: sc})
	scW, err := config.Diamonds(topology.SmallWorld(80, 4, 0.3, 9), config.DiamondOptions{
		Pairs: 2, Property: config.Waypointing, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, conformanceCase{name: "diamond-80-waypoint", sc: scW})
	scInf, err := config.Infeasible(topology.SmallWorld(40, 4, 0.3, 21), config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return append(cases,
		conformanceCase{name: "infeasible-switch", sc: scInf},
		conformanceCase{name: "infeasible-rules", sc: scInf, g: grain{rules: true}},
		conformanceCase{name: "infeasible-2simple", sc: scInf, g: grain{twoSimple: true}},
	)
}

// synthesizeOutcome runs one configuration and normalizes the result to
// (feasible, plan). Terminal errors other than ErrNoOrdering fail the test.
func synthesizeOutcome(t *testing.T, name string, sc *config.Scenario, g grain) (bool, *plan) {
	t.Helper()
	p, err := synthesize(t, sc, g)
	if err != nil {
		if errors.Is(err, ErrNoOrdering) {
			return false, nil
		}
		t.Fatalf("%s: %v", name, err)
	}
	return true, p
}

// multiRegionScenario builds the decomposition workload: regions
// independent diamond groups, optionally coupled by cross classes.
func multiRegionScenario(t testing.TB, regions, pairs, cross int, seed int64) *config.Scenario {
	t.Helper()
	sc, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: regions, PairsPerRegion: pairs, CrossClasses: cross,
		Property: config.Reachability, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// atProcs runs f with GOMAXPROCS — which sizes the component scheduler —
// set to n: 1 searches the components one at a time, more concurrently.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}
