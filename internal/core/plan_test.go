package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// TestPlanOwnsItsMemory: a plan's steps and DAG are its own. The search
// path, the composed careful sequence and wait removal's output live in
// pooled engine scratch, so a plan that kept a view of one would change
// under the next synthesis that borrows the scratch. Plans are taken with
// and without wait removal — the two ways the careful sequence becomes a
// plan — deep-copied, and then syntheses run from several goroutines, the
// test's own among them, on sessions of other switch and class counts:
// decomposed and joint, with the plan cache and without, and in repair
// mode. Every plan must read as it did.
func TestPlanOwnsItsMemory(t *testing.T) {
	sc := multiRegionScenario(t, 4, 2, 0, 11)
	var plans []keptPlan
	for _, opts := range []Options{{}, {NoWaitRemoval: true}, {NoDecomposition: true}, {}, {NoWaitRemoval: true}} {
		s, err := NewSession(sc.Topo, sc.Init, sc.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Synthesize(sc.Final)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.Components < 2 && !opts.NoDecomposition {
			t.Fatalf("%+v: %d components, want a decomposed plan", opts, plan.Stats.Components)
		}
		plans = append(plans, keptPlan{fmt.Sprintf("%+v", opts), plan, deepCopySteps(plan.Steps), deepCopyDAG(plan.DAG)})
	}
	for _, k := range plans {
		verifyPlan(t, sc, &Plan{Steps: k.steps}) // the plan as it was returned
	}
	check(t, "under the next plans' syntheses", plans)

	work := func(g int) error {
		n := 60 + 40*g
		other, err := config.Diamonds(topology.SmallWorld(n, 4, 0.3, int64(n)), config.DiamondOptions{
			Pairs: 2 + g, Property: config.Reachability, Seed: int64(n),
		})
		if err != nil {
			return err
		}
		for _, opts := range []Options{{}, {NoDecomposition: true}, {NoPlanCache: true}, {RuleGranularity: true}} {
			s, err := NewSession(other.Topo, other.Init, other.Specs, opts)
			if err != nil {
				return err
			}
			s.EnableCache()
			for round := 0; round < 3; round++ {
				for _, to := range []*config.Config{other.Final, other.Init} {
					if _, err := s.Synthesize(to); err != nil {
						return fmt.Errorf("%d switches, %+v: %v", n, opts, err)
					}
				}
			}
			// Repair mode: the last plan stalls after its first update, and
			// is resynthesized from there.
			if _, err := s.Synthesize(other.Final); err != nil {
				return err
			}
			if _, err := s.Repair([]int{0}, nil); err != nil {
				return fmt.Errorf("%d switches, %+v: repair: %v", n, opts, err)
			}
		}
		return nil
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := 1; g < len(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = work(g)
		}()
	}
	errs[0] = work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	check(t, "under other syntheses", plans)
}

// keptPlan is a plan and the deep copy taken when it was returned.
type keptPlan struct {
	name  string
	plan  *Plan
	steps []Step
	dag   PlanDAG
}

func check(t *testing.T, when string, plans []keptPlan) {
	t.Helper()
	for _, k := range plans {
		if !sameSteps(k.plan.Steps, k.steps) {
			t.Errorf("%s: the plan's steps changed %s:\n got %v\nwant %v", k.name, when, k.plan.Steps, k.steps)
		}
		if !reflect.DeepEqual(*k.plan.DAG, k.dag) {
			t.Errorf("%s: the plan's DAG changed %s:\n got %+v\nwant %+v", k.name, when, *k.plan.DAG, k.dag)
		}
	}
}

// sameSteps compares two step lists element by element, the tables and
// rules by content.
func sameSteps(a, b []Step) bool {
	return slices.EqualFunc(a, b, func(x, y Step) bool {
		return x.Wait == y.Wait && x.Switch == y.Switch && x.IsRule == y.IsRule && x.RuleAdd == y.RuleAdd &&
			x.Rule.Equal(y.Rule) && x.Table.Equal(y.Table)
	})
}

func deepCopySteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, st := range steps {
		out[i] = st
		out[i].Table = st.Table.Clone()
	}
	return out
}

func deepCopyDAG(d *PlanDAG) PlanDAG {
	out := *d
	out.Preds, out.Drain = nil, nil
	for _, lists := range []struct{ from, to *[][]int }{{&d.Preds, &out.Preds}, {&d.Drain, &out.Drain}} {
		if *lists.from == nil {
			continue
		}
		*lists.to = make([][]int, len(*lists.from))
		for j, l := range *lists.from {
			if l != nil {
				(*lists.to)[j] = append([]int{}, l...)
			}
		}
	}
	return out
}
