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
// The verdict after each constraint is "some total order of the units
// satisfies every constraint so far", reached in three steps, cheapest
// first:
//
//   - Triangles. When an ordering variable is created for a pair (i, j),
//     every unit k already paired with both closes a triangle, and the two
//     3-cycles on {i, j, k} are forbidden by transitivity clauses. Every
//     total order satisfies them, and they let unit propagation refute what
//     would otherwise take one solve per cycle.
//   - Witness. The store keeps a total order (pos) that satisfies every
//     clause added so far. A constraint that order already satisfies is
//     answered without solving; its clause still goes to the solver.
//   - Cycle backstop. Otherwise the solver runs, and a model whose
//     precedence relation still has a cycle — one of length four or more
//     with no triangle across it — gets a clause forbidding that cycle and
//     the solver re-runs (CEGAR-style). An acyclic model's topological order
//     becomes the new witness.
type earlyTerm struct {
	s    *sat.Solver
	vars map[[2]int]int // (i, j) with i < j -> solver variable
	// order lists the ordering variables as before created them: the loop
	// check reads the model through it, so the cycle it finds — and the
	// clause that forbids it — is a function of the constraints added, not
	// of a map's iteration order. closed counts the leading variables whose
	// triangles are in the solver; last[u] is the index in order of the
	// newest variable pairing u (-1: none), and each variable chains to the
	// next older one of each of its units.
	order     []orderVar
	closed    int
	last      []int32
	mentioned []int
	inSAT     []bool // by unit id
	unsat     bool

	// pos is the witness, a distinct position per unit: mentioned units in
	// a topological order of the last acyclic model, the others after them.
	// Nil until the first constraint, then the identity until the first
	// solve replaces it.
	pos []int32

	// solves and cycleClauses count the solver runs and the cycle clauses
	// forbidden over the store's life.
	solves, cycleClauses int

	// Loop-check and clause scratch, reused across the SAT calls of a run.
	// The model's edges are chained per source unit: head[u] is the index
	// in order of u's first out-edge (-1: none), next[e] the one after e,
	// to[e] e's target; color and parent are by unit id, and post collects
	// the units in the order the search finishes them.
	head, next, to, parent []int32
	color                  []uint8
	cycle                  []int
	post                   []int32
	thirds                 []int32
	lits                   []sat.Lit
}

// orderVar is one ordering variable: v true means unit i precedes unit j.
// olderI and olderJ are the indexes in order of the next older variables
// pairing i and j (-1: none).
type orderVar struct {
	i, j           int32
	olderI, olderJ int32
	v              int
}

// newEarlyTerm returns the constraint store for a search over units
// 0..units-1.
func newEarlyTerm(units int) *earlyTerm {
	return &earlyTerm{s: sat.New(), vars: map[[2]int]int{}, inSAT: make([]bool, units)}
}

// before returns the literal encoding "unit i is updated before unit j".
// Antisymmetry and totality are built into the encoding (one variable per
// unordered pair). A variable created here has its triangles closed by the
// next closeTriangles.
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
		if et.last == nil {
			et.last = make([]int32, len(et.inSAT))
			for u := range et.last {
				et.last[u] = -1
			}
		}
		v = et.s.NewVar()
		et.vars[[2]int{i, j}] = v
		x := int32(len(et.order))
		et.order = append(et.order, orderVar{i: int32(i), j: int32(j), olderI: et.last[i], olderJ: et.last[j], v: v})
		et.last[i], et.last[j] = x, x
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
	if !et.s.AddClause(lits...) || !et.closeTriangles() {
		et.unsat = true
		return false
	}
	if et.witnessHolds(applied, unapplied) {
		return true
	}
	return et.solveAcyclic()
}

// closeTriangles adds the transitivity clauses of every triangle a
// variable created since the last call closes, reporting whether the
// constraints can still hold.
func (et *earlyTerm) closeTriangles() bool {
	for ; et.closed < len(et.order); et.closed++ {
		ov := et.order[et.closed]
		i, j, ij := int(ov.i), int(ov.j), sat.Lit(ov.v)
		for _, k := range et.thirdsOf(et.closed) {
			jk, ki := et.before(j, int(k)), et.before(int(k), i)
			// Neither i -> j -> k -> i nor i -> k -> j -> i.
			if !et.s.AddClause(ij.Neg(), jk.Neg(), ki.Neg()) || !et.s.AddClause(ij, jk, ki) {
				return false
			}
		}
	}
	return true
}

// thirdsOf returns the units k that the x-th variable, pairing i and j,
// closes a triangle with: both (i, k) and (j, k) have older variables. The
// result is valid until the next call.
func (et *earlyTerm) thirdsOf(x int) []int32 {
	ov := et.order[x]
	ks := et.thirds[:0]
	for e := ov.olderI; e >= 0; {
		o := et.order[e]
		k := o.j
		if k == ov.i {
			k, e = o.i, o.olderJ
		} else {
			e = o.olderI
		}
		if v, ok := et.vars[[2]int{int(min(ov.j, k)), int(max(ov.j, k))}]; ok && v < ov.v {
			ks = append(ks, k)
		}
	}
	et.thirds = ks
	return ks
}

// witnessHolds reports whether the witness order already places some
// unapplied unit before some applied one.
func (et *earlyTerm) witnessHolds(applied, unapplied []int) bool {
	if et.pos == nil {
		et.pos = make([]int32, len(et.inSAT))
		for u := range et.pos {
			et.pos[u] = int32(u)
		}
	}
	first := et.pos[unapplied[0]]
	for _, b := range unapplied[1:] {
		first = min(first, et.pos[b])
	}
	for _, a := range applied {
		if et.pos[a] > first {
			return true
		}
	}
	return false
}

// solveAcyclic runs the solver, lazily excluding models whose precedence
// relation is cyclic, until either an acyclic model is found (some update
// order may still exist; its topological order becomes the witness) or the
// constraints become unsatisfiable.
func (et *earlyTerm) solveAcyclic() bool {
	for {
		et.solves++
		if !et.s.Solve() {
			et.unsat = true
			return false
		}
		cycle := et.modelCycle()
		if cycle == nil {
			et.takeWitness()
			return true
		}
		if !et.forbidCycle(cycle) {
			et.unsat = true
			return false
		}
	}
}

// takeWitness sets pos from the acyclic model modelCycle just read: the
// mentioned units in reverse finishing order — a topological order of the
// model's precedence — then the rest by id.
func (et *earlyTerm) takeWitness() {
	var rank int32
	for i := len(et.post) - 1; i >= 0; i-- {
		et.pos[et.post[i]] = rank
		rank++
	}
	for u, in := range et.inSAT {
		if !in {
			et.pos[u] = rank
			rank++
		}
	}
}

// forbidCycle adds the clause no model with the precedence cycle
// satisfies, reporting whether the constraints can still hold.
func (et *earlyTerm) forbidCycle(cycle []int) bool {
	et.cycleClauses++
	lits := et.lits[:0]
	for i := range cycle {
		j := (i + 1) % len(cycle)
		lits = append(lits, et.before(cycle[i], cycle[j]).Neg())
	}
	et.lits = lits
	return et.s.AddClause(lits...)
}

// modelCycle returns a precedence cycle in the current model over the
// mentioned units, or nil if the model is a valid (acyclic) order — with
// every mentioned unit in post, in finishing order. Only edges whose
// variables exist (i.e. appear in some constraint) matter: absent pairs
// are unconstrained and can always be ordered consistently with a
// topological order of the constrained edges. The result is valid until
// the next call.
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
	et.post = et.post[:0]
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
	et.post = append(et.post, v)
	return false
}
