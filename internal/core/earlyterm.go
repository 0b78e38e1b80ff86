package core

import (
	"slices"

	"netupdate/internal/sat"
)

// earlyTerm implements the early-search-termination optimization of
// Section 4.2.B: every counterexample constrains the order in which units
// may be applied ("some unit of U-minus must precede some unit of
// U-plus"); the constraints accumulate in an incremental SAT solver over
// ordering variables, and unsatisfiability proves that no simple careful
// sequence can avoid all known-wrong configurations, so the search can
// stop and report "impossible".
//
// Transitivity of the ordering is enforced lazily (CEGAR-style): the
// solver runs without transitivity axioms, and whenever its model
// contains a precedence cycle, a single clause forbidding that cycle is
// added and the solver re-runs. Feasible instances almost always produce
// an acyclic model immediately, so the eager O(m^3) axiom instantiation
// is avoided.
type earlyTerm struct {
	s    *sat.Solver
	vars map[[2]int]int // (i, j) with i < j -> solver variable
	// order lists the ordering variables as before created them: the loop
	// check reads the model through it, so the cycle it finds — and the
	// clause that forbids it — is a function of the constraints added, not
	// of a map's iteration order.
	order     []orderVar
	mentioned []int
	inSAT     []bool // by unit id
	unsat     bool

	// Loop-check and clause scratch, reused across the SAT calls of a run.
	// The model's edges are chained per source unit: head[u] is the index
	// in order of u's first out-edge (-1: none), next[e] the one after e,
	// to[e] e's target; color and parent are by unit id.
	head, next, to, parent []int32
	color                  []uint8
	cycle                  []int
	lits                   []sat.Lit
}

// orderVar is one ordering variable: v true means unit i precedes unit j.
type orderVar struct {
	i, j int32
	v    int
}

// newEarlyTerm returns the constraint store for a search over units
// 0..units-1.
func newEarlyTerm(units int) *earlyTerm {
	return &earlyTerm{s: sat.New(), vars: map[[2]int]int{}, inSAT: make([]bool, units)}
}

// before returns the literal encoding "unit i is updated before unit j".
// Antisymmetry and totality are built into the encoding (one variable per
// unordered pair).
func (et *earlyTerm) before(i, j int) sat.Lit {
	if i == j {
		panic("core: before(i, i)")
	}
	neg := false
	if i > j {
		i, j = j, i
		neg = true
	}
	v, ok := et.vars[[2]int{i, j}]
	if !ok {
		v = et.s.NewVar()
		et.vars[[2]int{i, j}] = v
		et.order = append(et.order, orderVar{i: int32(i), j: int32(j), v: v})
	}
	if neg {
		return sat.Lit(-v)
	}
	return sat.Lit(v)
}

func (et *earlyTerm) mention(u int) {
	if !et.inSAT[u] {
		et.inSAT[u] = true
		et.mentioned = append(et.mentioned, u)
	}
}

// addCexConstraint records a counterexample pattern: the bad
// configuration has units in applied updated and units in unapplied not
// yet updated; every valid order must place some unapplied unit before
// some applied unit. It returns false when the accumulated constraints
// are unsatisfiable (no ordering can work).
func (et *earlyTerm) addCexConstraint(applied, unapplied []int) bool {
	if et.unsat {
		return false
	}
	if len(applied) == 0 || len(unapplied) == 0 {
		// A pattern matching the initial (no unit applied) or final (all
		// applied) configuration: those configurations are fixed ends of
		// every simple sequence, so no ordering can avoid the pattern.
		et.unsat = true
		return false
	}
	for _, u := range applied {
		et.mention(u)
	}
	for _, u := range unapplied {
		et.mention(u)
	}
	lits := et.lits[:0]
	for _, b := range unapplied {
		for _, a := range applied {
			lits = append(lits, et.before(b, a))
		}
	}
	et.lits = lits
	if !et.s.AddClause(lits...) {
		et.unsat = true
		return false
	}
	return et.solveAcyclic()
}

// solveAcyclic runs the solver, lazily excluding models whose precedence
// relation is cyclic, until either an acyclic model is found (some update
// order may still exist) or the constraints become unsatisfiable.
func (et *earlyTerm) solveAcyclic() bool {
	for {
		if !et.s.Solve() {
			et.unsat = true
			return false
		}
		cycle := et.modelCycle()
		if cycle == nil {
			return true
		}
		if !et.forbidCycle(cycle) {
			et.unsat = true
			return false
		}
	}
}

// forbidCycle adds the clause no model with the precedence cycle
// satisfies, reporting whether the constraints can still hold.
func (et *earlyTerm) forbidCycle(cycle []int) bool {
	lits := et.lits[:0]
	for i := range cycle {
		j := (i + 1) % len(cycle)
		lits = append(lits, et.before(cycle[i], cycle[j]).Neg())
	}
	et.lits = lits
	return et.s.AddClause(lits...)
}

// modelCycle returns a precedence cycle in the current model over the
// mentioned units, or nil if the model is a valid (acyclic) order. Only
// edges whose variables exist (i.e. appear in some constraint) matter:
// absent pairs are unconstrained and can always be ordered consistently
// with a topological order of the constrained edges. The result is valid
// until the next call.
func (et *earlyTerm) modelCycle() []int {
	if n := len(et.inSAT); len(et.head) == 0 {
		et.head, et.parent, et.color = make([]int32, n), make([]int32, n), make([]uint8, n)
	}
	if m := len(et.order); cap(et.next) < m {
		et.next, et.to = make([]int32, m, 2*m), make([]int32, m, 2*m)
	} else {
		et.next, et.to = et.next[:m], et.to[:m]
	}
	for _, u := range et.mentioned {
		et.head[u], et.color[u] = -1, 0
	}
	// Chained back to front, so a unit's edges are followed in the order
	// their variables were created.
	for e := len(et.order) - 1; e >= 0; e-- {
		ov := et.order[e]
		src, dst := ov.i, ov.j
		switch et.s.Value(ov.v) {
		case 0:
			continue
		case -1:
			src, dst = dst, src
		}
		et.next[e], et.to[e] = et.head[src], dst
		et.head[src] = int32(e)
	}
	for _, u := range et.mentioned {
		if et.color[u] == 0 && et.cycleFrom(int32(u)) {
			return et.cycle
		}
	}
	return nil
}

// cycleFrom searches depth-first from v over the model's edges and, when
// it meets a unit on its own path, leaves the cycle in et.cycle, in edge
// order.
func (et *earlyTerm) cycleFrom(v int32) bool {
	const (
		gray  = 1
		black = 2
	)
	et.color[v] = gray
	for e := et.head[v]; e >= 0; e = et.next[e] {
		u := et.to[e]
		switch et.color[u] {
		case 0:
			et.parent[u] = v
			if et.cycleFrom(u) {
				return true
			}
		case gray:
			cycle := append(et.cycle[:0], int(u))
			for w := v; w != u; w = et.parent[w] {
				cycle = append(cycle, int(w))
			}
			// Reverse into cycle order u -> ... -> v -> u.
			slices.Reverse(cycle)
			et.cycle = cycle
			return true
		}
	}
	et.color[v] = black
	return false
}
