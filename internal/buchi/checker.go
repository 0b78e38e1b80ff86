package buchi

import (
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
)

// Checker is the NuSMV-substitute backend: it verifies K |= phi by
// building the Büchi automaton for !phi once, then on every call
// re-encoding the entire model — the full consistency matrix between
// Kripke states and automaton states, mirroring NuSMV's per-invocation
// model parsing and symbolic encoding — and running nested DFS over the
// product for an accepting cycle. Nothing is reused between calls (batch
// mode), which is exactly how the paper drives NuSMV: the per-call cost
// is proportional to the whole model, not to the part an update touched.
type Checker struct {
	k     *kripke.K
	aut   *Automaton
	stats mc.Stats
	// cons is rebuilt on every Check: cons[q*|A|+b] records whether
	// automaton state b's literal obligations hold at Kripke state q.
	cons []bool
}

// New builds the checker, translating the negated specification.
func New(k *kripke.K, spec *ltl.Formula) (mc.Checker, error) {
	aut, err := Translate(ltl.Not(spec))
	if err != nil {
		return nil, err
	}
	return &Checker{k: k, aut: aut}, nil
}

// Name implements mc.Checker.
func (c *Checker) Name() string { return "nusmv-like" }

// Check implements mc.Checker.
func (c *Checker) Check() mc.Verdict {
	c.stats.Checks++
	c.encode()
	return c.search()
}

// encode rebuilds the model representation from scratch: every (Kripke
// state, automaton state) pair's literal consistency. This is the batch
// cost the incremental checker avoids — a stand-in for NuSMV re-reading
// and re-encoding the SMV model on every query.
func (c *Checker) encode() {
	nk, na := c.k.NumStates(), c.aut.NumStates()
	c.cons = make([]bool, nk*na)
	for q := 0; q < nk; q++ {
		c.stats.StatesLabeled++
		for b := 0; b < na; b++ {
			c.cons[q*na+b] = c.computeConsistent(q, b)
		}
	}
}

// Update implements mc.Checker: full re-check, no state.
func (c *Checker) Update(delta *kripke.Delta) (mc.Verdict, mc.Token) {
	return c.Check(), struct{}{}
}

// Revert implements mc.Checker: nothing to undo.
func (c *Checker) Revert(t mc.Token) {}

// Commit implements mc.Checker: nothing to drop.
func (c *Checker) Commit(t mc.Token) {}

// Stats implements mc.Checker.
func (c *Checker) Stats() mc.Stats { return c.stats }

// Rebind implements mc.Checker. The structure is mutated in place by
// kripke.K.Rebind and the automaton is configuration-independent, so the
// next Check re-encodes against the rebound transitions with no work
// here.
func (c *Checker) Rebind(rewired []int) {}

// MemoMark implements mc.Checker: the checker memoizes nothing across
// calls.
func (c *Checker) MemoMark() int { return 0 }

// ForgetMemo implements mc.Checker: nothing to forget.
func (c *Checker) ForgetMemo(mark int) {}

// pstate is a product state (Kripke state, automaton state).
type pstate struct {
	q int // Kripke state
	b int // automaton state
}

// consistent reads the encoded consistency matrix.
func (c *Checker) consistent(q, b int) bool {
	return c.cons[q*c.aut.NumStates()+b]
}

// computeConsistent reports whether automaton state b may be paired with
// Kripke state q (its literal obligations hold at q).
func (c *Checker) computeConsistent(q, b int) bool {
	for _, id := range c.aut.Pos[b] {
		if !c.k.HoldsAt(q, c.aut.Closure.Sub(id).Prop) {
			return false
		}
	}
	for _, id := range c.aut.Neg[b] {
		if c.k.HoldsAt(q, c.aut.Closure.Sub(id).Prop) {
			return false
		}
	}
	return true
}

// ksucc returns the Kripke successors of q, materializing the implicit
// self-loop at sinks (the automaton runs over infinite traces).
func (c *Checker) ksucc(q int) []int {
	if c.k.IsSink(q) {
		return []int{q}
	}
	return c.k.Succ(q)
}

// search runs nested DFS over the product; an accepting lasso is a trace
// of K violating the specification.
func (c *Checker) search() mc.Verdict {
	outer := map[pstate]bool{}
	inner := map[pstate]bool{}
	var stack []pstate // current DFS path, for counterexample extraction

	var dfsInner func(s, seed pstate) bool
	dfsInner = func(s, seed pstate) bool {
		inner[s] = true
		for _, q2 := range c.ksucc(s.q) {
			for _, b2 := range c.aut.Succ[s.b] {
				if !c.consistent(q2, b2) {
					continue
				}
				t := pstate{q2, b2}
				if t == seed {
					return true
				}
				if !inner[t] && dfsInner(t, seed) {
					return true
				}
			}
		}
		return false
	}

	var cex []int
	var dfsOuter func(s pstate) bool
	dfsOuter = func(s pstate) bool {
		outer[s] = true
		stack = append(stack, s)
		defer func() { stack = stack[:len(stack)-1] }()
		for _, q2 := range c.ksucc(s.q) {
			for _, b2 := range c.aut.Succ[s.b] {
				if !c.consistent(q2, b2) {
					continue
				}
				t := pstate{q2, b2}
				if !outer[t] && dfsOuter(t) {
					return true
				}
			}
		}
		if c.aut.Accept[s.b] && dfsInner(s, s) {
			// Accepting lasso found. The stem (current stack) projects to
			// a violating Kripke trace; cycles in our DAG-like structures
			// exist only at sinks, so the stem already ends in the sink.
			cex = make([]int, 0, len(stack))
			for i, ps := range stack {
				if i > 0 && ps.q == stack[i-1].q {
					continue // collapse automaton-only moves
				}
				cex = append(cex, ps.q)
			}
			return true
		}
		return false
	}

	for _, q0 := range c.k.Init() {
		for _, b0 := range c.aut.Init {
			if !c.consistent(q0, b0) {
				continue
			}
			s := pstate{q0, b0}
			if !outer[s] && dfsOuter(s) {
				// Ensure the counterexample reaches a sink (walk forward
				// deterministically if the lasso closed early).
				cex = extendToSink(c.k, cex)
				return mc.Verdict{OK: false, Cex: cex}
			}
		}
	}
	return mc.Verdict{OK: true}
}

// extendToSink walks an arbitrary continuation from the last state of the
// trace to a sink so that counterexamples have the canonical
// initial-to-sink shape shared with the labeling checkers.
func extendToSink(k *kripke.K, trace []int) []int {
	if len(trace) == 0 {
		return trace
	}
	seen := map[int]bool{}
	for _, q := range trace {
		seen[q] = true
	}
	q := trace[len(trace)-1]
	for !k.IsSink(q) {
		next := k.Succ(q)[0]
		if seen[next] {
			break // defensive: should not happen in DAG-like structures
		}
		trace = append(trace, next)
		seen[next] = true
		q = next
	}
	return trace
}
