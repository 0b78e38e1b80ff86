package sat

import (
	"math/rand"
	"testing"
)

// bruteSat decides satisfiability of a CNF by enumeration. assume maps
// variables to forced values.
func bruteSat(nVars int, cnf [][]Lit, assume map[int]bool) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		val := func(l Lit) bool {
			bit := mask>>(l.Var()-1)&1 == 1
			if l < 0 {
				return !bit
			}
			return bit
		}
		ok := true
		for v, want := range assume {
			if val(Lit(v)) != want {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				if val(l) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func randCNF(r *rand.Rand, nVars, nClauses, maxLen int) [][]Lit {
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		n := 1 + r.Intn(maxLen)
		cl := make([]Lit, n)
		for j := range cl {
			v := 1 + r.Intn(nVars)
			if r.Intn(2) == 0 {
				cl[j] = Lit(v)
			} else {
				cl[j] = Lit(-v)
			}
		}
		cnf[i] = cl
	}
	return cnf
}

func TestSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		nVars := 2 + r.Intn(7)
		cnf := randCNF(r, nVars, 1+r.Intn(20), 4)
		s := New()
		alive := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				alive = false
				break
			}
		}
		got := alive && s.Solve()
		want := bruteSat(nVars, cnf, nil)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v", iter, got, want, cnf)
		}
		if got {
			// The model must actually satisfy the formula.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if (l > 0 && v == 1) || (l < 0 && v == -1) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

func TestSolveWithAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 1000; iter++ {
		nVars := 2 + r.Intn(6)
		cnf := randCNF(r, nVars, 1+r.Intn(15), 3)
		nAssume := r.Intn(3)
		var assumptions []Lit
		assume := map[int]bool{}
		for i := 0; i < nAssume; i++ {
			v := 1 + r.Intn(nVars)
			if _, dup := assume[v]; dup {
				continue
			}
			pos := r.Intn(2) == 0
			assume[v] = pos
			if pos {
				assumptions = append(assumptions, Lit(v))
			} else {
				assumptions = append(assumptions, Lit(-v))
			}
		}
		s := New()
		alive := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				alive = false
				break
			}
		}
		got := alive && s.Solve(assumptions...)
		want := bruteSat(nVars, cnf, assume)
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v assume=%v", iter, got, want, cnf, assume)
		}
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		nVars := 2 + r.Intn(6)
		s := New()
		var cnf [][]Lit
		dead := false
		for round := 0; round < 6; round++ {
			extra := randCNF(r, nVars, 1+r.Intn(4), 3)
			for _, cl := range extra {
				cnf = append(cnf, cl)
				if !dead && !s.AddClause(cl...) {
					dead = true
				}
			}
			got := !dead && s.Solve()
			want := bruteSat(nVars, cnf, nil)
			if got != want {
				t.Fatalf("iter %d round %d: solver=%v brute=%v cnf=%v", iter, round, got, want, cnf)
			}
			if dead {
				break
			}
		}
	}
}

func TestSolveAfterUnsatStaysUnsat(t *testing.T) {
	s := New()
	s.AddClause(1)
	if s.AddClause(-1) {
		t.Fatal("adding the complementary unit should report unsat")
	}
	if s.Solve() {
		t.Fatal("solver must remain unsat")
	}
	if s.AddClause(2) {
		t.Fatal("adds after top-level unsat must fail")
	}
}

func TestAssumptionsDoNotPersist(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	if !s.Solve(-1) {
		t.Fatal("expected sat under -1")
	}
	if !s.Solve(1) {
		t.Fatal("expected sat under 1 (assumption -1 must not persist)")
	}
	if !s.Solve(-1, -2) == bruteSat(2, [][]Lit{{1, 2}}, map[int]bool{1: false, 2: false}) {
		// (1|2) & !1 & !2 is unsat
		t.Fatal("expected unsat under -1,-2")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	if !s.AddClause(1, -1) {
		t.Fatal("tautology should be accepted (dropped)")
	}
	if !s.AddClause(2, 2, 2) {
		t.Fatal("duplicate literals should collapse")
	}
	if !s.Solve() {
		t.Fatal("expected sat")
	}
	if s.Value(2) != 1 {
		t.Fatal("unit 2 should be forced true")
	}
}

func TestPigeonhole(t *testing.T) {
	// 4 pigeons, 3 holes: classic small UNSAT instance exercising
	// clause learning. Var(p,h) = p*3 + h + 1.
	s := New()
	v := func(p, h int) Lit { return Lit(p*3 + h + 1) }
	for p := 0; p < 4; p++ {
		s.AddClause(v(p, 0), v(p, 1), v(p, 2))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole 4-into-3 must be unsat")
	}
	if s.Conflicts == 0 {
		t.Fatal("expected conflicts to be counted")
	}
}

func TestLitHelpers(t *testing.T) {
	if Lit(-3).Var() != 3 || Lit(3).Var() != 3 {
		t.Fatal("Var")
	}
	if Lit(3).Neg() != Lit(-3) {
		t.Fatal("Neg")
	}
	if toILit(Lit(1)) != 0 || toILit(Lit(-1)) != 1 {
		t.Fatal("ilit encoding")
	}
}

// scanPickBranch is pickBranch as it was before the branching heap: a
// linear scan for the unassigned variable of maximal activity, the first
// such variable winning ties. Kept as the oracle for
// TestPickBranchMatchesLinearScan.
func scanPickBranch(s *Solver) int {
	best, bestAct := -1, -1.0
	for v := 0; v < s.nVars; v++ {
		if s.assign[v] == 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// solveScanChecked is Solve with every decision checked against the scan.
// It follows Solve line for line; the twin solver in the test, which runs
// the real Solve on the same clauses, must report the same answer after
// the same numbers of conflicts and decisions, so the copy cannot drift.
func solveScanChecked(t *testing.T, s *Solver, assumptions ...Lit) bool {
	t.Helper()
	if s.unsat {
		return false
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	for _, a := range assumptions {
		s.ensure(a.Var())
		il := toILit(a)
		switch s.value(il) {
		case 1:
			continue
		case -1:
			s.backtrackTo(0)
			return false
		}
		s.newDecisionLevel()
		s.enqueue(il, nil)
		if s.propagate() != nil {
			s.backtrackTo(0)
			return false
		}
	}
	nAssume := s.decisionLevel()
	for {
		conflict := s.propagate()
		if conflict != nil {
			s.Conflicts++
			if s.decisionLevel() <= nAssume {
				s.backtrackTo(0)
				if nAssume == 0 {
					s.unsat = true
				}
				return false
			}
			learnt, bt := s.analyze(conflict)
			if bt < nAssume {
				bt = nAssume
			}
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				s.backtrackTo(0)
				if !s.enqueue(learnt[0], nil) || s.propagate() != nil {
					s.unsat = true
					return false
				}
				return solveScanChecked(t, s, assumptions...)
			}
			c := &clause{lits: learnt, learnt: true}
			s.clauses = append(s.clauses, c)
			s.watch(c)
			if !s.enqueue(learnt[0], c) {
				s.backtrackTo(0)
				return false
			}
			s.varInc *= 1.05
			continue
		}
		want := scanPickBranch(s)
		v := s.pickBranch()
		if v != want {
			t.Fatalf("decision %d: heap picked variable %d, the scan picks %d", s.Decisions, v, want)
		}
		if v == -1 {
			return true
		}
		s.Decisions++
		s.newDecisionLevel()
		s.enqueue(ilit(2*v)|ilit(b2i(s.phase[v] < 0)), nil)
	}
}

// TestPickBranchMatchesLinearScan: on random CNFs near the satisfiability
// threshold, solved repeatedly under random assumptions with clauses (and
// with them new variables) added between solves, every decision of the
// branching heap is the variable the linear scan picks — through
// activity bumps, backjumps, the restart after a learnt unit, and
// activity rescaling (the bump increment starts just under the rescale
// threshold in half the instances, so rounding-induced ties occur).
func TestPickBranchMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(20150613))
	var decisions, conflicts, rescaled int64
	for iter := 0; iter < 300; iter++ {
		nVars := 8 + r.Intn(40)
		s, twin := New(), New()
		if iter%2 == 1 {
			s.varInc, twin.varInc = 1e99, 1e99
		}
		add := func(cl []Lit) bool {
			a, b := s.AddClause(cl...), twin.AddClause(cl...)
			if a != b {
				t.Fatalf("iter %d: AddClause %v: %v vs twin %v", iter, cl, a, b)
			}
			return a
		}
		// Three-literal clauses only: randCNF's unit clauses would settle
		// most variables before the first decision.
		clause3 := func() []Lit {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					cl[j] = -cl[j]
				}
			}
			return cl
		}
		alive := true
		for i := 0; i < nVars*4 && alive; i++ {
			alive = add(clause3())
		}
		for round := 0; round < 6 && alive; round++ {
			var assume []Lit
			for i := r.Intn(4); i > 0; i-- {
				l := Lit(1 + r.Intn(nVars))
				if r.Intn(2) == 0 {
					l = -l
				}
				assume = append(assume, l)
			}
			before := s.varInc
			got, want := solveScanChecked(t, s, assume...), twin.Solve(assume...)
			if got != want || s.Decisions != twin.Decisions || s.Conflicts != twin.Conflicts {
				t.Fatalf("iter %d round %d: checked solve %v after %d decisions, %d conflicts; Solve %v after %d, %d",
					iter, round, got, s.Decisions, s.Conflicts, want, twin.Decisions, twin.Conflicts)
			}
			if s.varInc < before {
				rescaled++
			}
			// Grow the formula, sometimes over a fresh variable.
			for i := r.Intn(3); i > 0 && alive; i-- {
				if r.Intn(3) == 0 {
					nVars++
				}
				alive = add(clause3())
			}
		}
		decisions += s.Decisions
		conflicts += s.Conflicts
	}
	if decisions < 2000 || conflicts < 1000 || rescaled < 20 {
		t.Fatalf("%d decisions, %d conflicts, %d rescaling solves: the instances are too easy to exercise the heap", decisions, conflicts, rescaled)
	}
}
