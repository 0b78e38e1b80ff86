package core

import (
	"math/rand"
	"reflect"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
)

// checkDAGShape validates the structural invariants of a plan's DAG: one
// node per update step, ascending duplicate-free predecessor lists with
// edges pointing lower-to-higher (acyclic by construction), drain lists
// that are subsets of the predecessor lists, and Depth/Width consistent
// with Levels() and mirrored into Stats.
func checkDAGShape(t *testing.T, name string, plan *Plan) {
	t.Helper()
	d := plan.DAG
	if d == nil {
		t.Fatalf("%s: plan has no DAG", name)
	}
	ups := plan.Updates()
	if d.NumNodes() != len(ups) {
		t.Fatalf("%s: DAG has %d nodes, plan has %d updates", name, d.NumNodes(), len(ups))
	}
	if len(d.Drain) != len(d.Preds) {
		t.Fatalf("%s: Drain covers %d nodes, Preds %d", name, len(d.Drain), len(d.Preds))
	}
	for j, ps := range d.Preds {
		prev := -1
		for _, i := range ps {
			if i < 0 || i >= j {
				t.Fatalf("%s: edge %d->%d does not point lower-to-higher", name, i, j)
			}
			if i <= prev {
				t.Fatalf("%s: preds of %d not ascending/unique: %v", name, j, ps)
			}
			prev = i
		}
		for _, i := range d.Drain[j] {
			found := false
			for _, p := range ps {
				if p == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: drain pred %d of node %d is not a pred (%v)", name, i, j, ps)
			}
		}
	}
	levels := d.Levels()
	if len(levels) != d.Depth {
		t.Fatalf("%s: Depth = %d, Levels() has %d", name, d.Depth, len(levels))
	}
	w := 0
	for _, l := range levels {
		if len(l) > w {
			w = len(l)
		}
	}
	if w != d.Width {
		t.Fatalf("%s: Width = %d, widest level has %d", name, d.Width, w)
	}
	if plan.Stats.DAGDepth != d.Depth || plan.Stats.DAGWidth != d.Width {
		t.Fatalf("%s: Stats depth/width %d/%d != DAG %d/%d",
			name, plan.Stats.DAGDepth, plan.Stats.DAGWidth, d.Depth, d.Width)
	}
}

// randomTopoOrder draws one uniform-ish random linearization of the DAG
// (a random ack schedule: any order in which a decentralized executor
// could commit the nodes).
func randomTopoOrder(r *rand.Rand, d *PlanDAG) []int {
	n := d.NumNodes()
	indeg := make([]int, n)
	succs := make([][]int, n)
	for j, ps := range d.Preds {
		indeg[j] = len(ps)
		for _, i := range ps {
			succs[i] = append(succs[i], j)
		}
	}
	var ready []int
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			ready = append(ready, j)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		x := r.Intn(len(ready))
		j := ready[x]
		ready[x] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, j)
		for _, s := range succs[j] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

func snapshotLabels(inc *mc.Incremental, k *kripke.K) [][]ltl.Valuation {
	out := make([][]ltl.Valuation, k.NumStates())
	for id := range out {
		out[id] = append([]ltl.Valuation(nil), inc.Labels(id)...)
	}
	return out
}

func labelsEqual(a, b [][]ltl.Valuation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestDAGShapeConformance: every synthesized plan carries a structurally
// well-formed DAG, on every conformance scenario.
func TestDAGShapeConformance(t *testing.T) {
	for _, c := range conformanceCases(t) {
		opts := c.opts
		feasible, plan := synthesizeOutcome(t, c.name, c.sc, opts)
		if !feasible {
			continue
		}
		checkDAGShape(t, c.name, plan)
	}
}

// TestDAGAckScheduleTraceEquivalence is the metamorphic soundness test of
// the dependency DAG: for every example scenario, >= 100 random ack
// schedules (random linearizations of the DAG — every order a
// decentralized executor could commit the updates in) must be
// trace-equivalent to the sequential plan. Equivalence is checked with
// the warm incremental checkers, per class and per committed prefix: the
// verdict must stay OK (no transient violation under any schedule) and
// the per-state labels must equal the sequential reference at the
// corresponding per-class version (the class has then seen exactly the
// same subsequence of structure-changing updates, in the same order).
func TestDAGAckScheduleTraceEquivalence(t *testing.T) {
	const schedules = 100
	warmth := mc.NewWarmth()
	for _, c := range conformanceCases(t) {
		opts := c.opts
		feasible, plan := synthesizeOutcome(t, c.name, c.sc, opts)
		if !feasible {
			continue
		}
		checkDAGShape(t, c.name, plan)
		ups := plan.Updates()
		if len(ups) == 0 {
			continue
		}

		// Sequential reference: per class, label snapshots keyed by the
		// class's structure version (count of structure-changing steps),
		// plus which sequential step changed the class's structure.
		type classRef struct {
			spec    config.ClassSpec
			snaps   [][][]ltl.Valuation
			changed []bool
		}
		var refs []*classRef
		for _, cs := range c.sc.Specs {
			k, err := kripke.Build(c.sc.Topo, c.sc.Init, cs.Class)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			chk, err := mc.NewIncrementalWarm(k, cs.Formula, warmth)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			inc := chk.(*mc.Incremental)
			if !inc.Check().OK {
				t.Fatalf("%s: initial configuration violates the spec", c.name)
			}
			ref := &classRef{spec: cs}
			ref.snaps = append(ref.snaps, snapshotLabels(inc, k))
			for si, st := range ups {
				delta, err := k.UpdateSwitch(st.Switch, st.Table)
				if err != nil {
					t.Fatalf("%s: sequential step %d: %v", c.name, si, err)
				}
				if v, _ := inc.Update(delta); !v.OK {
					t.Fatalf("%s: sequential prefix %d violates the spec", c.name, si)
				}
				ch := len(delta.Changed()) > 0
				ref.changed = append(ref.changed, ch)
				if ch {
					ref.snaps = append(ref.snaps, snapshotLabels(inc, k))
				}
			}
			refs = append(refs, ref)
		}

		r := rand.New(rand.NewSource(int64(len(ups))*1009 + 7))
		for s := 0; s < schedules; s++ {
			order := randomTopoOrder(r, plan.DAG)
			if len(order) != len(ups) {
				t.Fatalf("%s: linearization covered %d of %d nodes (cycle?)", c.name, len(order), len(ups))
			}
			for _, ref := range refs {
				k, err := kripke.Build(c.sc.Topo, c.sc.Init, ref.spec.Class)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				chk, err := mc.NewIncrementalWarm(k, ref.spec.Formula, warmth)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				inc := chk.(*mc.Incremental)
				version := 0
				for pos, j := range order {
					st := ups[j]
					delta, err := k.UpdateSwitch(st.Switch, st.Table)
					if err != nil {
						t.Fatalf("%s sched %d: forwarding loop committing node %d at pos %d: %v",
							c.name, s, j, pos, err)
					}
					if v, _ := inc.Update(delta); !v.OK {
						t.Fatalf("%s sched %d: transient violation committing node %d at pos %d (order %v)",
							c.name, s, j, pos, order)
					}
					if got := len(delta.Changed()) > 0; got != ref.changed[j] {
						t.Fatalf("%s sched %d: node %d structure-change=%v, sequential=%v",
							c.name, s, j, got, ref.changed[j])
					}
					if ref.changed[j] {
						version++
						if !labelsEqual(snapshotLabels(inc, k), ref.snaps[version]) {
							t.Fatalf("%s sched %d: labels after node %d (version %d) diverge from sequential reference (order %v)",
								c.name, s, j, version, order)
						}
					}
				}
			}
		}
	}
}

// weakComponents counts weakly-connected components of the DAG (isolated
// nodes count).
func weakComponents(d *PlanDAG) int {
	n := d.NumNodes()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for j, ps := range d.Preds {
		for _, i := range ps {
			parent[find(i)] = find(j)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[find(i)] = true
	}
	return len(seen)
}

// TestDAGDecompositionDisjointUnion: on a multi-component workload the
// composed plan's DAG must be the disjoint union of the component
// sub-DAGs — at least as many weakly-connected DAG components as
// interference components — and the plan+DAG must be byte-identical
// whether the components are searched one at a time or concurrently.
func TestDAGDecompositionDisjointUnion(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	var ref *Plan
	for _, workers := range []int{1, 4} {
		var plan *Plan
		var err error
		atProcs(workers, func() { plan, err = Synthesize(sc, Options{}) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkDAGShape(t, "multi-region", plan)
		if plan.Stats.Components != 3 {
			t.Fatalf("workers=%d: Components = %d, want 3", workers, plan.Stats.Components)
		}
		if wc := weakComponents(plan.DAG); wc < plan.Stats.Components {
			t.Fatalf("workers=%d: DAG has %d weak components, interference partition has %d",
				workers, wc, plan.Stats.Components)
		}
		if ref != nil {
			if got, want := plan.String(), ref.String(); got != want {
				t.Fatalf("workers=%d: plan diverged:\n got %s\nwant %s", workers, got, want)
			}
			if !reflect.DeepEqual(plan.DAG, ref.DAG) {
				t.Fatalf("workers=%d: DAG diverged:\n got %+v\nwant %+v", workers, plan.DAG, ref.DAG)
			}
		}
		ref = plan
	}
}

// TestMinimizeCompletionTime: the tie-breaker returns a valid plan with
// completion estimate no worse than the default plan's, deterministically,
// on every feasible conformance scenario; infeasible scenarios still
// report ErrNoOrdering.
func TestMinimizeCompletionTime(t *testing.T) {
	for _, c := range conformanceCases(t) {
		defFeasible, defPlan := synthesizeOutcome(t, c.name+"/default", c.sc, c.opts)

		opts := c.opts
		opts.MinimizeCompletionTime = true
		feasible, plan := synthesizeOutcome(t, c.name+"/min", c.sc, opts)
		if feasible != defFeasible {
			t.Fatalf("%s: MinimizeCompletionTime feasible=%v, default=%v", c.name, feasible, defFeasible)
		}
		if !feasible {
			continue
		}
		verifyPlan(t, c.sc, plan)
		checkDAGShape(t, c.name, plan)
		if got, def := plan.DAG.completionEstimate(), defPlan.DAG.completionEstimate(); got > def {
			t.Fatalf("%s: minimized completion estimate %d > default %d", c.name, got, def)
		}

		again, err := Synthesize(c.sc, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again.String() != plan.String() {
			t.Fatalf("%s: MinimizeCompletionTime not deterministic:\n got %s\nthen %s",
				c.name, plan.String(), again.String())
		}
	}
}
