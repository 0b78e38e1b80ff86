package core

import (
	"errors"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// conformanceCase is one synthesis problem posed identically to every
// engine configuration under test.
type conformanceCase struct {
	name string
	sc   *config.Scenario
	opts Options // base options; Parallelism varied by the tests
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
	topo := topology.SmallWorld(60, 4, 0.3, 60)
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 2, Property: config.Reachability, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, conformanceCase{name: "diamond-60-reach", sc: sc})
	topoW := topology.SmallWorld(80, 4, 0.3, 9)
	scW, err := config.Diamonds(topoW, config.DiamondOptions{
		Pairs: 2, Property: config.Waypointing, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, conformanceCase{name: "diamond-80-waypoint", sc: scW})
	topoI := topology.SmallWorld(40, 4, 0.3, 21)
	scInf, err := config.Infeasible(topoI, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		conformanceCase{name: "infeasible-switch", sc: scInf},
		conformanceCase{name: "infeasible-rules", sc: scInf, opts: Options{RuleGranularity: true}},
		conformanceCase{name: "infeasible-2simple", sc: scInf, opts: Options{TwoSimple: true}},
	)
	return cases
}

// synthesizeOutcome runs one configuration and normalizes the result to
// (feasible, plan). Terminal errors other than ErrNoOrdering fail the test.
func synthesizeOutcome(t *testing.T, name string, sc *config.Scenario, opts Options) (bool, *Plan) {
	t.Helper()
	plan, err := Synthesize(sc, opts)
	if err != nil {
		if errors.Is(err, ErrNoOrdering) {
			return false, nil
		}
		t.Fatalf("%s: %v", name, err)
	}
	return true, plan
}

// TestSequentialParallelConformance: the parallel engine — deterministic
// and first-plan-wins, at several worker counts — must agree with the
// sequential engine on feasibility for every scenario, and every plan it
// returns must be valid. The deterministic mode must additionally return
// exactly the sequential plan.
func TestSequentialParallelConformance(t *testing.T) {
	for _, c := range conformanceCases(t) {
		seqOpts := c.opts
		seqOpts.Parallelism = 1
		seqFeasible, seqPlan := synthesizeOutcome(t, c.name+"/seq", c.sc, seqOpts)
		for _, workers := range []int{2, 4, 8} {
			parOpts := c.opts
			parOpts.Parallelism = workers
			feasible, plan := synthesizeOutcome(t, c.name+"/par", c.sc, parOpts)
			if feasible != seqFeasible {
				t.Fatalf("%s: parallel(%d) feasible=%v, sequential=%v",
					c.name, workers, feasible, seqFeasible)
			}
			if feasible {
				verifyPlan(t, c.sc, plan)
				if got, want := plan.String(), seqPlan.String(); got != want {
					t.Fatalf("%s: deterministic parallel(%d) plan diverged:\n got %s\nwant %s",
						c.name, workers, got, want)
				}
			}
			racyOpts := parOpts
			racyOpts.FirstPlanWins = true
			feasible, plan = synthesizeOutcome(t, c.name+"/racy", c.sc, racyOpts)
			if feasible != seqFeasible {
				t.Fatalf("%s: first-plan-wins(%d) feasible=%v, sequential=%v",
					c.name, workers, feasible, seqFeasible)
			}
			if feasible {
				verifyPlan(t, c.sc, plan)
			}
		}
	}
}

// TestParallelPlansReplay: plans from the parallel engine execute
// correctly on the operational model under random interleavings with live
// traffic (the replay machinery of replay_test.go).
func TestParallelPlansReplay(t *testing.T) {
	topo := topology.SmallWorld(120, 4, 0.3, 15)
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 2, Property: config.ServiceChaining, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Parallelism: 4},
		{Parallelism: 4, FirstPlanWins: true},
	} {
		plan, err := Synthesize(sc, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		replayCheckTraces(t, sc, plan, 10)
	}
	topoI := topology.SmallWorld(40, 4, 0.3, 21)
	scInf, err := config.Infeasible(topoI, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Synthesize(scInf, Options{RuleGranularity: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	replayCheckTraces(t, scInf, plan, 10)
}

// TestParallelRandomScenarios mirrors TestSynthesisSoundnessRandom on the
// parallel engine: random diamonds, every produced plan verified, and
// feasibility compared against the sequential engine.
func TestParallelRandomScenarios(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	produced := 0
	for _, seed := range seeds {
		topo := topology.SmallWorld(40+int(seed%3)*20, 4, 0.3, seed*97)
		sc, err := config.Diamonds(topo, config.DiamondOptions{
			Pairs: 2, Property: config.Reachability, Seed: seed * 13,
		})
		if err != nil {
			continue
		}
		seqFeasible, _ := synthesizeOutcome(t, "random/seq", sc, Options{Parallelism: 1})
		parFeasible, plan := synthesizeOutcome(t, "random/par", sc, Options{Parallelism: 4})
		if parFeasible != seqFeasible {
			t.Fatalf("seed %d: parallel feasible=%v, sequential=%v", seed, parFeasible, seqFeasible)
		}
		if parFeasible {
			produced++
			verifyPlan(t, sc, plan)
		}
	}
	if produced == 0 {
		t.Fatal("no plans produced; generator or synthesizer broken")
	}
}
