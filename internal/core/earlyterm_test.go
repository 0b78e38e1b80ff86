package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/sat"
	"netupdate/internal/topology"
)

// mapEarlyTerm is the early-termination store as it was before its loop
// check moved to arrays: ordering variables in a map, the model's edges
// collected in the map's iteration order, so the cycle it forbids differs
// from run to run. Kept as the oracle for the verdicts, which are a
// property of the constraints alone.
type mapEarlyTerm struct {
	s         *sat.Solver
	vars      map[[2]int]int
	mentioned []int
	inSAT     map[int]bool
	unsat     bool
}

func newMapEarlyTerm() *mapEarlyTerm {
	return &mapEarlyTerm{s: sat.New(), vars: map[[2]int]int{}, inSAT: map[int]bool{}}
}

func (et *mapEarlyTerm) before(i, j int) sat.Lit {
	neg := false
	if i > j {
		i, j = j, i
		neg = true
	}
	v, ok := et.vars[[2]int{i, j}]
	if !ok {
		v = et.s.NewVar()
		et.vars[[2]int{i, j}] = v
	}
	if neg {
		return sat.Lit(-v)
	}
	return sat.Lit(v)
}

func (et *mapEarlyTerm) addCexConstraint(applied, unapplied []int) bool {
	if et.unsat {
		return false
	}
	if len(applied) == 0 || len(unapplied) == 0 {
		et.unsat = true
		return false
	}
	for _, us := range [][]int{applied, unapplied} {
		for _, u := range us {
			if !et.inSAT[u] {
				et.inSAT[u] = true
				et.mentioned = append(et.mentioned, u)
			}
		}
	}
	var lits []sat.Lit
	for _, b := range unapplied {
		for _, a := range applied {
			lits = append(lits, et.before(b, a))
		}
	}
	if !et.s.AddClause(lits...) {
		et.unsat = true
		return false
	}
	for {
		if !et.s.Solve() {
			et.unsat = true
			return false
		}
		cycle := et.modelCycle()
		if cycle == nil {
			return true
		}
		lits = lits[:0]
		for i := range cycle {
			lits = append(lits, et.before(cycle[i], cycle[(i+1)%len(cycle)]).Neg())
		}
		if !et.s.AddClause(lits...) {
			et.unsat = true
			return false
		}
	}
}

func (et *mapEarlyTerm) modelCycle() []int {
	succ := map[int][]int{}
	for pair, v := range et.vars {
		switch et.s.Value(v) {
		case 1:
			succ[pair[0]] = append(succ[pair[0]], pair[1])
		case -1:
			succ[pair[1]] = append(succ[pair[1]], pair[0])
		}
	}
	const (
		gray  = 1
		black = 2
	)
	color := map[int]uint8{}
	parent := map[int]int{}
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		for _, u := range succ[v] {
			switch color[u] {
			case 0:
				parent[u] = v
				if dfs(u) {
					return true
				}
			case gray:
				cycle = append(cycle, u)
				for w := v; w != u; w = parent[w] {
					cycle = append(cycle, w)
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[v] = black
		return false
	}
	for _, u := range et.mentioned {
		if color[u] == 0 && dfs(u) {
			return cycle
		}
	}
	return nil
}

// cexSequence draws a sequence of counterexample patterns over n units:
// disjoint applied/unapplied sets of one to three units, small enough that
// cyclic models and unsatisfiable prefixes both turn up.
func cexSequence(r *rand.Rand, n, length int) [][2][]int {
	seq := make([][2][]int, length)
	for i := range seq {
		perm := r.Perm(n)
		na, nu := 1+r.Intn(3), 1+r.Intn(3)
		seq[i] = [2][]int{perm[:na], perm[na : na+nu]}
	}
	return seq
}

// TestEarlyTermMatchesMapOracle: after every constraint of a random
// sequence the array store and the map store agree on whether an order can
// still exist — whichever cycles each happened to forbid on the way, and
// whether or not the array store solved at all — and once unsatisfiable
// both stay so. A satisfiable answer comes with the witness order, which
// satisfies every constraint so far.
func TestEarlyTermMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(126))
	unsatRuns := 0
	for run := 0; run < 300; run++ {
		n := 6 + r.Intn(10)
		et, oracle := newEarlyTerm(n), newMapEarlyTerm()
		seq := cexSequence(r, n, 4+r.Intn(40))
		for step, c := range seq {
			got, want := et.addCexConstraint(c[0], c[1]), oracle.addCexConstraint(c[0], c[1])
			if got != want {
				t.Fatalf("run %d, constraint %d (%v before %v): satisfiable %v, the map version says %v", run, step, c[1], c[0], got, want)
			}
			if got {
				if k := violated(et.pos, seq[:step+1]); k >= 0 {
					t.Fatalf("run %d, constraint %d: reported satisfiable, but the witness %v violates constraint %d", run, step, et.pos, k)
				}
			}
		}
		if et.unsat {
			unsatRuns++
		}
	}
	if unsatRuns == 0 || unsatRuns == 300 {
		t.Fatalf("%d of 300 runs unsatisfiable: the sequences test one verdict only", unsatRuns)
	}
}

// violated returns the index of the first constraint the order pos (a
// position per unit) does not satisfy — no unapplied unit placed before an
// applied one — or -1.
func violated(pos []int32, seq [][2][]int) int {
outer:
	for k, c := range seq {
		for _, b := range c[1] {
			for _, a := range c[0] {
				if pos[b] < pos[a] {
					continue outer
				}
			}
		}
		return k
	}
	return -1
}

// permutations returns every order of the units 0..n-1, each as a position
// per unit.
func permutations(n int) [][]int32 {
	var out [][]int32
	at := make([]int, 0, n) // at[p] is the unit at position p
	used := make([]bool, n)
	var place func()
	place = func() {
		if len(at) == n {
			pos := make([]int32, n)
			for p, u := range at {
				pos[u] = int32(p)
			}
			out = append(out, pos)
			return
		}
		for u := range used {
			if !used[u] {
				used[u] = true
				at = append(at, u)
				place()
				at = at[:len(at)-1]
				used[u] = false
			}
		}
	}
	place()
	return out
}

// TestEarlyTermMatchesPermutationOracle: an oracle that shares no code with
// the store or its solver. Over six or seven units it enumerates every
// order and keeps those that satisfy each constraint so far; after every
// constraint the store's verdict must be "some order survives", a
// satisfiable verdict must come with a witness — distinct positions — that
// satisfies every constraint so far, and an unsatisfiable one must stay.
func TestEarlyTermMatchesPermutationOracle(t *testing.T) {
	r := rand.New(rand.NewSource(128))
	all := map[int][][]int32{6: permutations(6), 7: permutations(7)}
	unsatRuns, unsolved := 0, 0
	for run := 0; run < 300; run++ {
		n := 6 + r.Intn(2)
		et, alive := newEarlyTerm(n), all[n]
		seq := cexSequence(r, n, 4+r.Intn(30))
		for step, c := range seq {
			solves, wasUnsat := et.solves, et.unsat
			got := et.addCexConstraint(c[0], c[1])
			var kept [][]int32
			for _, pos := range alive {
				if violated(pos, seq[step:step+1]) < 0 {
					kept = append(kept, pos)
				}
			}
			alive = kept
			if want := len(alive) > 0; got != want {
				t.Fatalf("run %d, constraint %d (%v before %v): satisfiable %v, %d of %d orders survive", run, step, c[1], c[0], got, len(alive), len(all[n]))
			}
			if wasUnsat && got {
				t.Fatalf("run %d, constraint %d: satisfiable again after unsatisfiable", run, step)
			}
			if !got {
				continue
			}
			if et.solves == solves {
				unsolved++
			}
			seen := make([]bool, n)
			for _, p := range et.pos {
				if p < 0 || int(p) >= n || seen[p] {
					t.Fatalf("run %d, constraint %d: witness %v is not an order", run, step, et.pos)
				}
				seen[p] = true
			}
			if k := violated(et.pos, seq[:step+1]); k >= 0 {
				t.Fatalf("run %d, constraint %d: witness %v violates constraint %d", run, step, et.pos, k)
			}
		}
		if et.unsat {
			unsatRuns++
		}
	}
	t.Logf("%d of 300 runs unsatisfiable, %d verdicts from the witness alone", unsatRuns, unsolved)
	if unsatRuns == 0 || unsatRuns == 300 || unsolved == 0 {
		t.Fatalf("%d of 300 runs unsatisfiable, %d verdicts from the witness alone: the sequences test too little", unsatRuns, unsolved)
	}
}

// TestEarlyTermWorkIsBounded: on the Figure 8(h) instances at 400 switches
// — built as bench.InfeasibleWorkload(400, prop, 14, 1200) builds them,
// searched jointly — the search refutes unit after unit at the root, and
// every counterexample's constraint reaches the store until it proves no
// order exists (~165 constraints). Closing triangles as their variables
// appear and answering from the witness order keep the store under two
// solver runs and two cycle clauses per constraint (27 and 18 for
// waypointing, 81 and 72 for service chaining); forbidding one cycle per
// re-solve took 932 and 767, and 7 886 and 7 722.
func TestEarlyTermWorkIsBounded(t *testing.T) {
	topo := topology.SmallWorld(400, 4, 0.3, 0xD00D+400)
	for _, prop := range []config.Property{config.Waypointing, config.ServiceChaining} {
		var sc *config.Scenario
		for gadgets := 14; sc == nil; gadgets-- {
			if gadgets == 0 {
				t.Fatalf("%s: cannot place any gadget", prop)
			}
			sc, _ = config.Infeasible(topo, config.InfeasibleOptions{
				Gadgets: gadgets, Property: prop, Seed: 1200, BackgroundFlows: 200,
			})
		}
		_, e := engineFor(t, sc, Options{NoDecomposition: true})
		if _, err := e.run(); !errors.Is(err, ErrNoOrdering) {
			t.Fatalf("%s: err = %v, want ErrNoOrdering", prop, err)
		}
		cons := e.stats.SATCalls
		t.Logf("%s: %d constraints, %d solver runs, %d cycle clauses", prop, cons, e.et.solves, e.et.cycleClauses)
		if cons < 100 || e.et.solves > 2*cons || e.et.cycleClauses > 2*cons {
			t.Fatalf("%s: %d solver runs and %d cycle clauses for %d constraints", prop, e.et.solves, e.et.cycleClauses, cons)
		}
	}
}

// TestEarlyTermCycleClausesAreDeterministic: variables are created, their
// triangles closed and the model read in a fixed order, so two stores fed
// one sequence add the same triangles and forbid the same cycles in the
// same order — the store does the same work on every run of a request.
// (The map version's cycles followed the map's iteration order.) Each
// constraint is driven here as addCexConstraint and solveAcyclic drive it,
// solving every time, and recording the triangles closed and the cycles
// forbidden.
func TestEarlyTermCycleClausesAreDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	triangles, forbidden := 0, 0
	for run := 0; run < 100; run++ {
		n := 6 + r.Intn(10)
		seq := cexSequence(r, n, 4+r.Intn(40))
		drive := func() (log []string) {
			et := newEarlyTerm(n)
			for _, c := range seq {
				for _, us := range c {
					for _, u := range us {
						et.mention(u)
					}
				}
				var lits []sat.Lit
				for _, b := range c[1] {
					for _, a := range c[0] {
						lits = append(lits, et.before(b, a))
					}
				}
				if !et.s.AddClause(lits...) {
					return append(log, "unsat")
				}
				for x := et.closed; x < len(et.order); x++ {
					if ks := et.thirdsOf(x); len(ks) > 0 {
						log = append(log, fmt.Sprint("triangles ", et.order[x].i, et.order[x].j, ks))
					}
				}
				if !et.closeTriangles() {
					return append(log, "unsat")
				}
				for {
					if !et.s.Solve() {
						return append(log, "unsat")
					}
					cycle := et.modelCycle()
					if cycle == nil {
						break
					}
					log = append(log, fmt.Sprint("cycle ", cycle))
					if !et.forbidCycle(cycle) {
						return append(log, "unsat")
					}
				}
			}
			return log
		}
		a, b := drive(), drive()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("run %d: two runs of one sequence log\n%v\nand\n%v", run, a, b)
		}
		for _, entry := range a {
			switch {
			case strings.HasPrefix(entry, "triangles"):
				triangles++
			case strings.HasPrefix(entry, "cycle"):
				forbidden++
			}
		}
	}
	if triangles == 0 || forbidden == 0 {
		t.Fatalf("%d variables closed triangles and %d models were cyclic: the sequences test too little", triangles, forbidden)
	}
}
