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
	opts Options
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
