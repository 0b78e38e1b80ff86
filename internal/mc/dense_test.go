package mc

// The labeler and the incremental checker as they were before their
// per-state arrays went (commit 4c8eb4a), kept verbatim — type and
// constructor names changed, the restore-only atoms image and the clone
// constructors dropped — as the oracle of TestSparseLabelingMatchesDense: atom valuations swept
// over every state at construction, label, sink-label, Extend-memo and
// violating-initial arrays as long as the arena, every state of the
// arena a labeling root. It reads the structure through kripke.K's
// exported methods only, and shares with the checker it judges the
// intern table, the sink memo, the closure, the undo-token types and the
// pooled region stamps, none of which that change touched.

import (
	"slices"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// labeler holds the shared state-labeling machinery (Section 5.1): each
// state is labeled with the set of valuations (maximally-consistent
// subsets of ecl(phi)) witnessed by some trace from that state. Labels are
// interned in a LabelTable shared with every clone, so the per-state label
// is a dense LabelID and equality comparison — the incremental algorithm's
// stopping condition — is an integer compare.
type denseLabeler struct {
	k     *kripke.K
	clo   *ltl.Closure
	atoms []ltl.Valuation // per-state truth of atomic subformulas (fixed)
	tab   *LabelTable     // shared intern table (concurrency-safe)
	label []LabelID       // per-state interned label, noLabel if unset

	// sinkLab caches the interned label of state id when it is a sink.
	// Sink labels depend only on atoms[id], which never changes, so the
	// entry stays valid even as updates turn states into sinks and back.
	// Entries are filled from sinks, the valuation-keyed memo shared with
	// every checker of the formula; lastSink fronts it with the valuation
	// asked for last, since neighboring states mostly share one.
	sinkLab  []LabelID
	sinks    *sinkMemo
	lastSink struct {
		atoms ltl.Valuation
		id    LabelID
		ok    bool
	}

	// extCache memoizes Closure.Extend per state: atoms[id] is fixed for
	// the checker's lifetime, so Extend(atoms[id], v) is a function of v
	// alone, and the incremental checker evaluates the same pairs
	// thousands of times across the DFS. Maps are created lazily and are
	// private to this checker (clones get fresh caches — see DESIGN.md).
	extCache []map[ltl.Valuation]ltl.Valuation

	// scratch is the reusable buffer computeLabel merges successor labels
	// into before interning; it makes the steady-state hot path
	// allocation-free. Not safe for concurrent use — per-checker only.
	scratch  []ltl.Valuation
	frames   []pframe
	orderBuf []int

	stats Stats
}

// stateEnv adapts kripke.K.HoldsAt to ltl.Env with a single mutable
// receiver, so the per-state atom valuation sweep in newLabeler performs
// one allocation instead of one closure per state.
type denseStateEnv struct {
	k  *kripke.K
	id int
}

func (e *denseStateEnv) Holds(p ltl.Prop) bool { return e.k.HoldsAt(e.id, p) }

func denseNewLabeler(k *kripke.K, spec *ltl.Formula) (*denseLabeler, error) {
	return denseNewLabelerWarm(k, spec, nil)
}

// newLabelerShell builds a labeler with its closure, intern table and
// sink memo resolved — from the warmth cache when one is supplied (so
// labels interned by any earlier checker for the same formula are
// immediately available), from a private one otherwise — but with no
// per-state arrays yet.
func denseNewLabelerShell(k *kripke.K, spec *ltl.Formula, w *Warmth) (*denseLabeler, error) {
	if w == nil {
		w = NewWarmth()
	}
	e, err := w.entry(spec)
	if err != nil {
		return nil, err
	}
	return &denseLabeler{k: k, clo: e.clo, tab: e.tab, sinks: e.sinks}, nil
}

// newLabelerWarm builds the labeler and sweeps the structure once to
// evaluate every state's atomic-subformula valuation.
func denseNewLabelerWarm(k *kripke.K, spec *ltl.Formula, w *Warmth) (*denseLabeler, error) {
	l, err := denseNewLabelerShell(k, spec, w)
	if err != nil {
		return nil, err
	}
	n := k.NumStates()
	l.atoms = make([]ltl.Valuation, n)
	env := &denseStateEnv{k: k}
	for id := 0; id < n; id++ {
		env.id = id
		l.atoms[id] = l.clo.AtomValuation(env)
	}
	l.label = make([]LabelID, n)
	l.sinkLab = make([]LabelID, n)
	for id := 0; id < n; id++ {
		l.label[id] = noLabel
		l.sinkLab[id] = noLabel
	}
	return l, nil
}

// extend computes Extend(atoms[id], v) through the per-state memo. The
// memo's outer array materializes on first use — checkers that never
// relabel (a restored session that only serves cache hits) never pay for
// it.
func (l *denseLabeler) extend(id int, v ltl.Valuation) ltl.Valuation {
	if l.extCache == nil {
		l.extCache = make([]map[ltl.Valuation]ltl.Valuation, len(l.atoms))
	}
	m := l.extCache[id]
	if m == nil {
		m = make(map[ltl.Valuation]ltl.Valuation, 8)
		l.extCache[id] = m
	}
	if w, ok := m[v]; ok {
		l.stats.ExtendHits++
		return w
	}
	w := l.clo.Extend(l.atoms[id], v)
	m[v] = w
	l.stats.ExtendMisses++
	return w
}

// computeLabel computes the interned label of state id from its
// successors' labels, which must already be correct. In steady state
// (warm caches, label already interned) it performs no heap allocation.
func (l *denseLabeler) computeLabel(id int) LabelID {
	l.stats.StatesLabeled++
	if l.k.IsSink(id) {
		if l.sinkLab[id] == noLabel {
			l.sinkLab[id] = l.sinkLabel(l.atoms[id])
		}
		return l.sinkLab[id]
	}
	labels := l.tab.snapshot()
	buf := l.scratch[:0]
	for _, s := range l.k.Succ(id) {
		for _, v := range labels[l.label[s]] {
			buf = append(buf, l.extend(id, v))
		}
	}
	slices.SortFunc(buf, ltl.Valuation.Compare)
	// Dedup in place: successors frequently share valuations.
	n := 0
	for i := range buf {
		if i == 0 || buf[i] != buf[n-1] {
			buf[n] = buf[i]
			n++
		}
	}
	buf = buf[:n]
	l.scratch = buf[:0]
	lid, fresh := l.tab.Intern(buf)
	if fresh {
		l.stats.LabelsInterned++
	}
	return lid
}

// sinkLabel returns the interned label of a sink state whose atoms are a,
// evaluating the closure only for a valuation no checker of the formula
// has asked about before.
func (l *denseLabeler) sinkLabel(a ltl.Valuation) LabelID {
	if l.lastSink.ok && l.lastSink.atoms == a {
		return l.lastSink.id
	}
	m := l.sinks
	m.mu.Lock()
	id, ok := m.m[a]
	if !ok {
		var fresh bool
		id, fresh = l.tab.Intern([]ltl.Valuation{l.clo.Sink(a)})
		if fresh {
			l.stats.LabelsInterned++
		}
		m.m[a] = id
	}
	m.mu.Unlock()
	l.lastSink.atoms, l.lastSink.id, l.lastSink.ok = a, id, true
	return id
}

// postorder returns all states in DFS postorder over successor edges, so
// every state appears after all of its successors. The traversal uses an
// explicit stack so deep WAN/fat-tree structures cannot overflow the
// goroutine stack; the order and frame buffers are reused across calls.
func (l *denseLabeler) postorder() []int {
	n := l.k.NumStates()
	visited := make([]bool, n)
	order := l.orderBuf[:0]
	frames := l.frames[:0]
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		frames = append(frames, pframe{root, 0})
		for len(frames) > 0 {
			fi := len(frames) - 1
			v, i := frames[fi].v, frames[fi].i
			succ := l.k.Succ(v)
			pushed := false
			for i < len(succ) {
				u := succ[i]
				i++
				if !visited[u] {
					frames[fi].i = i
					visited[u] = true
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
	l.frames = frames[:0]
	l.orderBuf = order
	return order
}

// relabelAll computes labels for every state from scratch.
func (l *denseLabeler) relabelAll() {
	for _, v := range l.postorder() {
		l.label[v] = l.computeLabel(v)
	}
}

// Labels exposes the decoded label of a state for tests and metamorphic
// comparisons. The result is shared and must not be mutated.
func (l *denseLabeler) Labels(id int) []ltl.Valuation {
	if l.label[id] == noLabel {
		return nil
	}
	return l.tab.Label(l.label[id])
}

// verdict checks the initial states against the root formula and extracts
// a counterexample trace if some initial valuation refutes it.
func (l *denseLabeler) verdict() Verdict {
	l.stats.Checks++
	for _, q0 := range l.k.Init() {
		for _, v := range l.tab.Label(l.label[q0]) {
			if !l.clo.Holds(v) {
				return Verdict{OK: false, Cex: l.extractCex(q0, v)}
			}
		}
	}
	return Verdict{OK: true}
}

// extractCex reconstructs a violating trace witnessing valuation v at
// state q0: repeatedly find a successor whose label contains a valuation
// that extends to the current one (Section 5.2, "Counterexamples"). It
// returns nil when no such trace exists, which labels computed here rule
// out but a labeling adopted from a snapshot image does not: the image's
// checksum shows it arrived intact, not that its labels and successor
// lists agree. The verdict then carries no counterexample.
func (l *denseLabeler) extractCex(q0 int, v ltl.Valuation) []int {
	trace := []int{q0}
	q, cur := q0, v
	for !l.k.IsSink(q) {
		if len(trace) > l.k.NumStates() {
			return nil // successor lists with a cycle: no structure built here has one
		}
		found := false
		for _, s := range l.k.Succ(q) {
			for _, vs := range l.tab.Label(l.label[s]) {
				if l.extend(q, vs) == cur {
					trace = append(trace, s)
					q, cur = s, vs
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return nil
		}
	}
	return trace
}

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
// three sets in O(1), and undo tokens come from a per-checker freelist,
// so steady-state Update/Revert cycles perform zero heap allocations (see
// BenchmarkIncrementalSteadyState).
type denseIncremental struct {
	*denseLabeler
	isInit   []bool // immutable after construction; shared with clones
	badInit  []bool // initial states whose label refutes the spec
	badCount int
	// minBad is the smallest violating initial state (-1 if none),
	// maintained incrementally so Check never rebuilds or sorts the
	// violating set.
	minBad int

	members []int
	stack   []int

	freeToks []*incrToken
}

// NewIncremental builds the incremental checker and performs the initial
// full labeling.
func denseNewIncremental(k *kripke.K, spec *ltl.Formula) (Checker, error) {
	l, err := denseNewLabeler(k, spec)
	if err != nil {
		return nil, err
	}
	return denseNewIncrementalFrom(l, k), nil
}

// newIncrementalFrom finishes construction over a prepared labeler: the
// initial full labeling and the violating-initial bookkeeping.
func denseNewIncrementalFrom(l *denseLabeler, k *kripke.K) *denseIncremental {
	l.relabelAll()
	return denseNewIncrementalPrelabeled(l, k)
}

// denseNewIncrementalPrelabeled builds the checker over a labeler whose label
// array is already correct for the structure (a fresh relabelAll, or a
// validated snapshot restore), deriving only the violating-initial set.
func denseNewIncrementalPrelabeled(l *denseLabeler, k *kripke.K) *denseIncremental {
	n := k.NumStates()
	c := &denseIncremental{
		denseLabeler: l,
		isInit:       make([]bool, n),
		badInit:      make([]bool, n),
		minBad:       -1,
	}
	for _, q0 := range k.Init() {
		c.isInit[q0] = true
		if c.initViolates(q0) {
			c.markBad(q0)
		}
	}
	return c
}

// MemoMark and ForgetMemo complete the Checker interface, which gained
// them after this copy was taken; the oracle never forgets.
func (c *denseIncremental) MemoMark() int { return 0 }

func (c *denseIncremental) ForgetMemo(mark int) {}

// Rebind implements Checker: a rebind is an update without an undo. The
// labels of the rewired states' ancestors are recomputed children-first,
// stopping where a label comes out unchanged, and the violating-initial
// set follows the initial states whose labels moved — the same region
// walk as Update, so the cost is the ancestors of what the rebind moved
// (Section 5.2), not the structure. With no states named the net change
// is unknown and the whole structure is relabeled: the session's restore
// after a cyclic target, where the structure was rebound forward and back
// while this checker saw neither step. The warm state — the shared intern
// table, the per-state atom valuations, the sink-label cache and the
// Extend memos — depends only on the fixed state arena, not on the
// transition relation, so it all survives; in steady state a rebind
// allocates only for genuinely never-seen-before labels. Outstanding undo
// tokens and clones are invalidated.
func (c *denseIncremental) Rebind(rewired []int) {
	if len(rewired) > 0 {
		c.relabelRegion(rewired, nil)
		return
	}
	c.relabelAll()
	c.badCount = 0
	c.minBad = -1
	for _, q0 := range c.k.Init() {
		c.badInit[q0] = false
	}
	for _, q0 := range c.k.Init() {
		if c.initViolates(q0) {
			c.markBad(q0)
		}
	}
}

func (c *denseIncremental) initViolates(q0 int) bool {
	for _, v := range c.tab.Label(c.label[q0]) {
		if !c.clo.Holds(v) {
			return true
		}
	}
	return false
}

// markBad records initial state q as violating, maintaining the minimum.
func (c *denseIncremental) markBad(q int) {
	if c.badInit[q] {
		return
	}
	c.badInit[q] = true
	c.badCount++
	if c.minBad < 0 || q < c.minBad {
		c.minBad = q
	}
}

// unmarkBad clears initial state q, re-deriving the minimum only when the
// minimum itself was cleared (a scan over the fixed initial-state list).
func (c *denseIncremental) unmarkBad(q int) {
	if !c.badInit[q] {
		return
	}
	c.badInit[q] = false
	c.badCount--
	if q != c.minBad {
		return
	}
	c.minBad = -1
	if c.badCount == 0 {
		return
	}
	for _, q0 := range c.k.Init() {
		if c.badInit[q0] && (c.minBad < 0 || q0 < c.minBad) {
			c.minBad = q0
		}
	}
}

// Name implements Checker.
func (c *denseIncremental) Name() string { return "incremental" }

// Check implements Checker: labels and the violating-initial set are
// maintained incrementally, so a full check is a constant-time read plus
// counterexample extraction on failure.
func (c *denseIncremental) Check() Verdict {
	c.stats.Checks++
	if c.badCount == 0 {
		return Verdict{OK: true}
	}
	// Deterministic counterexample choice: smallest violating initial
	// state (maintained in minBad), first violating valuation in label
	// order.
	q0 := c.minBad
	for _, v := range c.tab.Label(c.label[q0]) {
		if !c.clo.Holds(v) {
			return Verdict{OK: false, Cex: c.extractCex(q0, v)}
		}
	}
	// badInit said violating but the label disagrees: stale bookkeeping.
	panic("mc: inconsistent violating-initial-state set")
}

func (c *denseIncremental) getToken() *incrToken {
	if n := len(c.freeToks); n > 0 {
		t := c.freeToks[n-1]
		c.freeToks = c.freeToks[:n-1]
		t.old = t.old[:0]
		t.badPrev = t.badPrev[:0]
		return t
	}
	return &incrToken{}
}

// Update implements Checker: relabel the ancestors of the changed states.
func (c *denseIncremental) Update(delta *kripke.Delta) (Verdict, Token) {
	tok := c.getToken()
	c.relabelRegion(delta.Changed(), tok)
	return c.Check(), tok
}

// relabelRegion brings the labels and the violating-initial set up to
// date after the outgoing transitions of the changed states moved (a
// superset is fine: a state whose label comes out unchanged stops the
// walk). Every overwritten label and violation flag is recorded in tok
// for Revert; a nil tok records nothing.
func (c *denseIncremental) relabelRegion(changed []int, tok *incrToken) {
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
		if nl == c.label[v] {
			r.dirty[v] = 0 // epoch starts at 1, so 0 is never current
			continue
		}
		if tok != nil {
			tok.old = append(tok.old, labelUndo{state: v, old: c.label[v]})
		}
		c.label[v] = nl
		r.dirty[v] = r.epoch
		c.stats.Relabels++
		if c.isInit[v] {
			// Each state appears at most once in the postorder, so one
			// undo entry per touched initial state suffices.
			if tok != nil {
				tok.badPrev = append(tok.badPrev, badUndo{state: v, wasBad: c.badInit[v]})
			}
			if c.initViolates(v) {
				c.markBad(v)
			} else {
				c.unmarkBad(v)
			}
		}
	}
}

// Revert implements Checker. The token is returned to the checker's
// freelist and must not be reused by the caller.
func (c *denseIncremental) Revert(t Token) {
	tok := t.(*incrToken)
	for i := len(tok.old) - 1; i >= 0; i-- {
		u := tok.old[i]
		c.label[u.state] = u.old
	}
	for i := len(tok.badPrev) - 1; i >= 0; i-- {
		u := tok.badPrev[i]
		if u.wasBad {
			c.markBad(u.state)
		} else {
			c.unmarkBad(u.state)
		}
	}
	c.freeToks = append(c.freeToks, tok)
}

// Commit implements Checker.
func (c *denseIncremental) Commit(t Token) { c.freeToks = append(c.freeToks, t.(*incrToken)) }

// Stats implements Checker.
func (c *denseIncremental) Stats() Stats { return c.stats }
