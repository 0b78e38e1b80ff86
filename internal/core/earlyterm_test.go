package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netupdate/internal/sat"
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
// still exist — whichever cycles each happened to forbid on the way — and
// once unsatisfiable both stay so.
func TestEarlyTermMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(126))
	unsatRuns := 0
	for run := 0; run < 300; run++ {
		n := 6 + r.Intn(10)
		et, oracle := newEarlyTerm(n), newMapEarlyTerm()
		for step, c := range cexSequence(r, n, 4+r.Intn(40)) {
			got, want := et.addCexConstraint(c[0], c[1]), oracle.addCexConstraint(c[0], c[1])
			if got != want {
				t.Fatalf("run %d, constraint %d (%v before %v): satisfiable %v, the map version says %v", run, step, c[1], c[0], got, want)
			}
			if got && et.modelCycle() != nil {
				t.Fatalf("run %d, constraint %d: reported satisfiable on a cyclic model", run, step)
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

// TestEarlyTermCycleClausesAreDeterministic: the loop check reads the
// model in variable-creation order, so two stores fed one sequence forbid
// the same cycles in the same order — the lazy-transitivity loop does the
// same work on every run of a request. (The map version's cycles followed
// the map's iteration order.) The loop is driven here as solveAcyclic
// drives it, recording what it forbids.
func TestEarlyTermCycleClausesAreDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	forbidden := 0
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
				for {
					if !et.s.Solve() {
						return append(log, "unsat")
					}
					cycle := et.modelCycle()
					if cycle == nil {
						break
					}
					log = append(log, fmt.Sprint(cycle))
					if !et.forbidCycle(cycle) {
						return append(log, "unsat")
					}
				}
			}
			return log
		}
		a, b := drive(), drive()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("run %d: two runs of one sequence forbid\n%v\nand\n%v", run, a, b)
		}
		forbidden += len(a)
	}
	if forbidden == 0 {
		t.Fatal("no model was ever cyclic")
	}
}
