package mc

import (
	"math"
	"slices"
	"sync"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// Incremental is the paper's incremental model checker (Section 5.2):
// after an update changes the transitions of a set of states U, it
// relabels only the ancestors of U, processing them children-first and
// stopping propagation as soon as a state's label is unchanged. All
// bookkeeping is proportional to the relabeled region — never to the
// whole structure — and the set of violating initial states is maintained
// incrementally, so a whole Update costs O(|ancestors(U)| * 2^|phi|).
// Each Update returns an undo token so the synthesis search can backtrack
// cheaply.
//
// The per-update scratch state (region membership, DFS visited marks,
// dirty flags) lives in epoch-stamped int32 arrays sized to NumStates()
// and lent per call (regionScratch): bumping the epoch invalidates all
// three sets in O(1), and undo tokens come from a process-wide pool that
// Revert and Commit refill, so a steady-state Update allocates nothing
// whichever way it ends (see BenchmarkIncrementalSteadyState and
// BenchmarkSearchStep) and an idle checker holds no token.
type Incremental struct {
	*labeler
	// bad lists the initial states whose label refutes the spec,
	// ascending, so Check reads the smallest off the front. A
	// configuration the search keeps has none, so the list is empty or
	// about to be.
	bad []int

	members []int
	stack   []int
}

// NewIncremental builds the incremental checker and performs the initial
// full labeling.
func NewIncremental(k *kripke.K, spec *ltl.Formula) (Checker, error) {
	return NewIncrementalWarm(k, spec, nil)
}

// newIncrementalFrom finishes construction over a prepared labeler: the
// initial full labeling, then the violating-initial set from the labels of
// the initial states — one per host, most of them isolated in any one
// class and judged from their atom valuation alone.
func newIncrementalFrom(l *labeler) *Incremental {
	l.relabelAll()
	c := &Incremental{labeler: l}
	for _, q0 := range c.k.Init() {
		if c.initViolates(q0) {
			c.bad = append(c.bad, q0)
		}
	}
	slices.Sort(c.bad)
	return c
}

// Rebind implements Checker: a rebind is an update without an undo. The
// labels of the rewired states' ancestors are recomputed children-first,
// stopping where a label comes out unchanged, and the violating-initial
// set follows the initial states whose labels moved — the same region
// walk as Update, so the cost is the ancestors of what the rebind moved
// (Section 5.2), not the structure. The warm state — the shared intern
// table, the atom masks, the sink-label memo and the Extend memo —
// depends only on the fixed state arena, not on the transition relation,
// so it all survives; in steady state a rebind allocates only for
// genuinely never-seen-before labels. Outstanding undo tokens are
// invalidated.
func (c *Incremental) Rebind(rewired []int) { c.relabelRegion(rewired, nil) }

func (c *Incremental) initViolates(q0 int) bool {
	for _, v := range c.tab.Label(c.labelOf(q0)) {
		if !c.clo.Holds(v) {
			return true
		}
	}
	return false
}

// setBad records whether initial state q violates the spec and reports
// whether it did before.
func (c *Incremental) setBad(q int, bad bool) (was bool) {
	i, was := slices.BinarySearch(c.bad, q)
	switch {
	case bad && !was:
		c.bad = slices.Insert(c.bad, i, q)
	case !bad && was:
		c.bad = slices.Delete(c.bad, i, i+1)
	}
	return was
}

// Name implements Checker.
func (c *Incremental) Name() string { return "incremental" }

// Check implements Checker: labels and the violating-initial set are
// maintained incrementally, so a full check is a constant-time read plus
// counterexample extraction on failure.
func (c *Incremental) Check() Verdict {
	c.stats.Checks++
	if len(c.bad) == 0 {
		return Verdict{OK: true}
	}
	// Deterministic counterexample choice: smallest violating initial
	// state, first violating valuation in label order.
	q0 := c.bad[0]
	for _, v := range c.tab.Label(c.labelOf(q0)) {
		if !c.clo.Holds(v) {
			return Verdict{OK: false, Cex: c.extractCex(q0, v)}
		}
	}
	// Listed as violating but the label disagrees: stale bookkeeping.
	panic("mc: inconsistent violating-initial-state set")
}

// labelUndo records one overwritten label.
type labelUndo struct {
	state int
	old   LabelID
}

// badUndo records one touched initial state's previous violation flag.
type badUndo struct {
	state  int
	wasBad bool
}

// incrToken records the labels and violation flags overwritten by one
// Update. Tokens are pooled: Revert and Commit return them, so a
// steady-state search allocates none. The pool is the process's, not the
// checker's — a freelist per checker would keep a search's deepest stack
// of tokens in every idle checker.
type incrToken struct {
	old     []labelUndo
	badPrev []badUndo
}

var tokenPool = sync.Pool{New: func() any { return new(incrToken) }}

func getToken() *incrToken {
	t := tokenPool.Get().(*incrToken)
	t.old = t.old[:0]
	t.badPrev = t.badPrev[:0]
	return t
}

// regionScratch is relabelRegion's three per-state sets, as stamps: a
// state is in a set while its stamp equals epoch, so a new walk
// invalidates all three by advancing it. The arrays are as long as the
// structure but a walk touches only its region, so they are lent per call
// from regionPool rather than held by every checker — nearly all of a
// process's checkers are idle at any moment — and checkers walked
// concurrently never share one.
type regionScratch struct {
	epoch   int32
	member  []int32 // state is in the ancestor region
	visited []int32 // state visited by the region DFS
	dirty   []int32 // state's label changed this update
}

var regionPool = sync.Pool{New: func() any { return new(regionScratch) }}

// begin starts a fresh member/visited/dirty generation over n states. On
// the (in practice unreachable) wraparound the arrays are cleared so
// stale stamps can never collide with a new epoch.
func (r *regionScratch) begin(n int) {
	if len(r.member) < n {
		r.member = make([]int32, n)
		r.visited = make([]int32, n)
		r.dirty = make([]int32, n)
		r.epoch = 0
	}
	r.epoch++
	if r.epoch == math.MaxInt32 {
		clear(r.member)
		clear(r.visited)
		clear(r.dirty)
		r.epoch = 1
	}
}

// Update implements Checker: relabel the ancestors of the changed states.
func (c *Incremental) Update(delta *kripke.Delta) (Verdict, Token) {
	tok := getToken()
	c.relabelRegion(delta.Changed(), tok)
	return c.Check(), tok
}

// relabelRegion brings the labels and the violating-initial set up to
// date after the outgoing transitions of the changed states moved (a
// superset is fine: a state whose label comes out unchanged stops the
// walk). Every overwritten label and violation flag is recorded in tok
// for Revert; a nil tok records nothing.
func (c *Incremental) relabelRegion(changed []int, tok *incrToken) {
	r := regionPool.Get().(*regionScratch)
	defer regionPool.Put(r)
	r.begin(c.k.NumStates())

	// Phase 1: collect the ancestors of the changed states (including
	// them) — the only states whose labels may differ. Work is bounded by
	// the size of the ancestor region.
	members := c.members[:0]
	stack := c.stack[:0]
	for _, v := range changed {
		if r.member[v] != r.epoch {
			r.member[v] = r.epoch
			members = append(members, v)
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range c.k.Pred(v) {
			if r.member[p] != r.epoch {
				r.member[p] = r.epoch
				members = append(members, p)
				stack = append(stack, p)
			}
		}
	}
	c.members = members
	c.stack = stack[:0]

	// Phase 2: order the region children-first (postorder over successor
	// edges restricted to the region), iteratively with an explicit stack
	// so deep structures cannot overflow the goroutine stack.
	order := c.orderBuf[:0]
	frames := c.frames[:0]
	visit := func(root int) {
		if r.visited[root] == r.epoch {
			return
		}
		r.visited[root] = r.epoch
		frames = append(frames, pframe{root, 0})
		for len(frames) > 0 {
			fi := len(frames) - 1
			v, i := frames[fi].v, frames[fi].i
			succ := c.k.Succ(v)
			pushed := false
			for i < len(succ) {
				u := succ[i]
				i++
				if r.member[u] == r.epoch && r.visited[u] != r.epoch {
					frames[fi].i = i
					r.visited[u] = r.epoch
					frames = append(frames, pframe{u, 0})
					pushed = true
					break
				}
			}
			if pushed {
				continue
			}
			order = append(order, v)
			frames = frames[:fi]
		}
	}
	for _, v := range changed {
		visit(v)
	}
	for _, v := range members {
		visit(v)
	}
	c.orderBuf = order
	c.frames = frames[:0]

	// Phase 3: recompute labels children-first, stopping propagation when
	// a label is unchanged (the paper's early-stopping optimization).
	for _, v := range changed {
		r.dirty[v] = r.epoch
	}
	for _, v := range order {
		need := r.dirty[v] == r.epoch
		if !need {
			for _, s := range c.k.Succ(v) {
				if r.dirty[s] == r.epoch {
					need = true
					break
				}
			}
		}
		if !need {
			continue
		}
		nl := c.computeLabel(v)
		if nl == c.labelOf(v) {
			r.dirty[v] = 0 // epoch starts at 1, so 0 is never current
			continue
		}
		if tok != nil {
			tok.old = append(tok.old, labelUndo{state: v, old: c.stored(v)})
		}
		c.store(v, nl)
		r.dirty[v] = r.epoch
		c.stats.Relabels++
		if c.k.IsInit(v) {
			// Each state appears at most once in the postorder, so one
			// undo entry per touched initial state suffices.
			wasBad := c.setBad(v, c.initViolates(v))
			if tok != nil {
				tok.badPrev = append(tok.badPrev, badUndo{state: v, wasBad: wasBad})
			}
		}
	}
}

// Revert implements Checker. The token returns to the pool and must not
// be reused by the caller.
func (c *Incremental) Revert(t Token) {
	tok := t.(*incrToken)
	for i := len(tok.old) - 1; i >= 0; i-- {
		u := tok.old[i]
		c.store(u.state, u.old)
	}
	for i := len(tok.badPrev) - 1; i >= 0; i-- {
		u := tok.badPrev[i]
		c.setBad(u.state, u.wasBad)
	}
	tokenPool.Put(tok)
}

// Commit implements Checker: the labels stay, so the token's records are
// dropped and it returns to the pool.
func (c *Incremental) Commit(t Token) { tokenPool.Put(t.(*incrToken)) }

// Stats implements Checker.
func (c *Incremental) Stats() Stats { return c.stats }
