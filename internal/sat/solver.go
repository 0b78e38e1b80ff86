// Package sat implements a small incremental CDCL SAT solver: two-literal
// watching, first-UIP conflict clause learning with backjumping, VSIDS-
// style activity ordering, phase saving, and assumption-based incremental
// solving. The synthesis engine's early-search-termination optimization
// (Section 4.2.B of the paper) encodes ordering constraints learned from
// counterexamples and asks this solver whether any update order can still
// satisfy them.
package sat

import "fmt"

// Lit is a literal: +v for variable v, -v for its negation. Variables are
// numbered from 1 (DIMACS convention).
type Lit int

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// internal literal encoding: 2*v for +v, 2*v+1 for -v (v zero-based).
type ilit int32

func toILit(l Lit) ilit {
	v := l.Var() - 1
	if l < 0 {
		return ilit(2*v + 1)
	}
	return ilit(2 * v)
}

func (i ilit) neg() ilit { return i ^ 1 }
func (i ilit) vid() int  { return int(i >> 1) }

// sign returns +1 for a positive literal, -1 for a negative one.
func (i ilit) sign() int8 {
	if i&1 == 0 {
		return 1
	}
	return -1
}

type clause struct {
	lits   []ilit
	learnt bool
}

// Solver is an incremental CDCL solver; create one with New.
type Solver struct {
	nVars    int
	clauses  []*clause
	watches  [][]*clause // indexed by ilit: clauses watching the negation
	assign   []int8      // per var: 0 unassigned, +1 true, -1 false
	level    []int       // per var: decision level of assignment
	reason   []*clause   // per var: antecedent clause
	phase    []int8      // per var: saved polarity
	seen     []bool      // scratch for conflict analysis
	trail    []ilit
	trailLim []int
	qhead    int
	activity []float64
	varInc   float64
	// order is the branching heap: a binary max-heap of variables under
	// (activity descending, variable ascending), holding every unassigned
	// variable — and whichever assigned ones pickBranch has not discarded
	// yet. heapPos[v] is v's index in it, -1 while absent.
	order   []int32
	heapPos []int32
	unsat   bool // top-level contradiction derived

	// Conflicts, Decisions and Propagations count solver work across all
	// Solve calls.
	Conflicts    int64
	Decisions    int64
	Propagations int64
}

// New returns an empty solver.
func New() *Solver { return &Solver{varInc: 1} }

// NewVar allocates a fresh variable and returns it (1-based).
func (s *Solver) NewVar() int {
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, -1)
	s.seen = append(s.seen, false)
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(s.nVars - 1)
	return s.nVars
}

func (s *Solver) ensure(v int) {
	for s.nVars < v {
		s.NewVar()
	}
}

// AddClause adds a clause; it may be called between Solve calls. It
// returns false if the formula is now unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.backtrackTo(0)
	seen := map[ilit]bool{}
	var out []ilit
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal")
		}
		s.ensure(l.Var())
		il := toILit(l)
		if seen[il.neg()] {
			return true // tautology
		}
		if seen[il] {
			continue
		}
		if s.assign[il.vid()] != 0 { // level-0 assignment
			if s.value(il) == 1 {
				return true // permanently satisfied
			}
			continue // permanently false literal
		}
		seen[il] = true
		out = append(out, il)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) || s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], c)
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
}

// value returns +1/-1/0 for a literal under the current assignment.
func (s *Solver) value(l ilit) int8 {
	a := s.assign[l.vid()]
	if a == 0 {
		return 0
	}
	return a * l.sign()
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l ilit, from *clause) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.vid()
	s.assign[v] = l.sign()
	s.phase[v] = l.sign()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation from qhead; it returns a conflicting
// clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[l]
		kept := ws[:0]
		var conflict *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if c.lits[0].neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			moved := false
			for i := 2; i < len(c.lits); i++ {
				if s.value(c.lits[i]) != -1 {
					c.lits[1], c.lits[i] = c.lits[i], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				kept = append(kept, ws[wi+1:]...)
				conflict = c
				break
			}
		}
		s.watches[l] = kept
		if conflict != nil {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return nil
}

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].vid()
		s.assign[v] = 0
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(conflict *clause) ([]ilit, int) {
	learnt := []ilit{0} // slot 0 for the asserting literal
	counter := 0
	var p ilit = -1
	idx := len(s.trail) - 1
	c := conflict
	var toClear []int
	for {
		start := 0
		if p != -1 {
			start = 1 // skip the asserting position in reason clauses
		}
		for _, q := range c.lits[start:] {
			v := q.vid()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[idx].vid()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		s.seen[p.vid()] = false
		if counter == 0 {
			break
		}
		c = s.reason[p.vid()]
	}
	learnt[0] = p.neg()
	// Backjump level: highest level among the other literals.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		if l := s.level[learnt[i].vid()]; l > bt {
			bt = l
		}
	}
	// Move a literal of backjump level into the second watch slot.
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].vid()] > s.level[learnt[mi].vid()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
	}
	for _, v := range toClear {
		s.seen[v] = false
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Rescaling can round distinct activities together, which moves
		// variables among their new ties: re-establish the heap.
		for i := len(s.order)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
		return
	}
	if i := s.heapPos[v]; i >= 0 {
		s.siftUp(int(i))
	}
}

// before is the branching order: higher activity first, lower variable
// among equals.
func (s *Solver) before(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int) {
	s.order = append(s.order, int32(v))
	s.heapPos[v] = int32(len(s.order) - 1)
	s.siftUp(len(s.order) - 1)
}

func (s *Solver) siftUp(i int) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.order[p]) {
			break
		}
		s.order[i] = s.order[p]
		s.heapPos[s.order[i]] = int32(i)
		i = p
	}
	s.order[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) siftDown(i int) {
	v := s.order[i]
	for {
		c := 2*i + 1
		if c >= len(s.order) {
			break
		}
		if c+1 < len(s.order) && s.before(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.before(s.order[c], v) {
			break
		}
		s.order[i] = s.order[c]
		s.heapPos[s.order[i]] = int32(i)
		i = c
	}
	s.order[i] = v
	s.heapPos[v] = int32(i)
}

// pickBranch returns an unassigned variable with maximal activity — the
// lowest-numbered one among equals — or -1, taking it off the heap along
// with the assigned variables above it; backtrackTo puts a variable back
// when it loses its assignment.
func (s *Solver) pickBranch() int {
	if len(s.trail) == s.nVars {
		return -1 // a full assignment: nothing to discard the heap for
	}
	for len(s.order) > 0 {
		v := s.order[0]
		last := len(s.order) - 1
		s.order[0] = s.order[last]
		s.heapPos[s.order[0]] = 0
		s.order = s.order[:last]
		s.heapPos[v] = -1
		if last > 0 {
			s.siftDown(0)
		}
		if s.assign[v] == 0 {
			return int(v)
		}
	}
	return -1
}

// Solve reports satisfiability under the given assumptions. Clauses may be
// added before and between calls. With no assumptions it decides the
// accumulated formula.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if s.unsat {
		return false
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	// Install assumptions, each at its own decision level.
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
				// Re-install assumptions from scratch.
				return s.Solve(assumptions...)
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
		v := s.pickBranch()
		if v == -1 {
			// Full assignment found; leave it readable via Value.
			return true
		}
		s.Decisions++
		s.newDecisionLevel()
		s.enqueue(ilit(2*v)|ilit(b2i(s.phase[v] < 0)), nil)
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Value returns the assignment of variable v after a satisfiable Solve:
// +1 true, -1 false, 0 unassigned.
func (s *Solver) Value(v int) int8 {
	if v < 1 || v > s.nVars {
		return 0
	}
	return s.assign[v-1]
}
