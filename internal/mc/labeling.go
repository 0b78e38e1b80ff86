package mc

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
type labeler struct {
	k     *kripke.K
	clo   *ltl.Closure
	atoms []ltl.Valuation // per-state truth of atomic subformulas (fixed)
	// atomsImg is the compressed atoms array of a restored checker;
	// ensureAtoms expands it into atoms on first relabel, keeping the
	// expansion off the restore critical path (and skipping it entirely
	// for classes an update stream never touches).
	atomsImg *AtomsImage
	tab      *LabelTable // shared intern table (concurrency-safe)
	label    []LabelID   // per-state interned label, noLabel if unset

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
type stateEnv struct {
	k  *kripke.K
	id int
}

func (e *stateEnv) Holds(p ltl.Prop) bool { return e.k.HoldsAt(e.id, p) }

func newLabeler(k *kripke.K, spec *ltl.Formula) (*labeler, error) {
	return newLabelerWarm(k, spec, nil)
}

// newLabelerShell builds a labeler with its closure, intern table and
// sink memo resolved — from the warmth cache when one is supplied (so
// labels interned by any earlier checker for the same formula are
// immediately available), from a private one otherwise — but with no
// per-state arrays yet.
func newLabelerShell(k *kripke.K, spec *ltl.Formula, w *Warmth) (*labeler, error) {
	if w == nil {
		w = NewWarmth()
	}
	e, err := w.entry(spec)
	if err != nil {
		return nil, err
	}
	return &labeler{k: k, clo: e.clo, tab: e.tab, sinks: e.sinks}, nil
}

// newLabelerWarm builds the labeler and sweeps the structure once to
// evaluate every state's atomic-subformula valuation.
func newLabelerWarm(k *kripke.K, spec *ltl.Formula, w *Warmth) (*labeler, error) {
	l, err := newLabelerShell(k, spec, w)
	if err != nil {
		return nil, err
	}
	n := k.NumStates()
	l.atoms = make([]ltl.Valuation, n)
	env := &stateEnv{k: k}
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

// ensureAtoms expands a restored checker's compressed atoms image into
// the dense per-state array on first use. Checkers built cold or warm
// fill atoms at construction and never take the branch.
func (l *labeler) ensureAtoms() {
	if l.atoms == nil && l.atomsImg != nil {
		l.atoms = l.atomsImg.materialize()
	}
}

// cloneFor copies the labeler onto a clone of its structure. The closure,
// the atom valuations, and the intern table are shared (the table is
// concurrency-safe and label sets are structure-independent); the label
// array is copied so the clone relabels independently. Clones exist to
// search, which relabels, so a restored atoms image is materialized once
// here and shared rather than expanded per clone. Scratch state — the
// merge buffer, DFS frames, and the Extend memo — is private per checker
// and starts fresh.
func (l *labeler) cloneFor(k2 *kripke.K) *labeler {
	l.ensureAtoms()
	return &labeler{
		k:       k2,
		clo:     l.clo,
		atoms:   l.atoms,
		tab:     l.tab,
		sinks:   l.sinks,
		label:   append([]LabelID(nil), l.label...),
		sinkLab: append([]LabelID(nil), l.sinkLab...),
	}
}

// extend computes Extend(atoms[id], v) through the per-state memo. The
// memo's outer array materializes on first use — checkers that never
// relabel (a restored session that only serves cache hits) never pay for
// it.
func (l *labeler) extend(id int, v ltl.Valuation) ltl.Valuation {
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
func (l *labeler) computeLabel(id int) LabelID {
	l.ensureAtoms()
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
func (l *labeler) sinkLabel(a ltl.Valuation) LabelID {
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

// pframe is one frame of the explicit DFS stacks: a state and the index of
// the next successor to explore.
type pframe struct {
	v, i int
}

// postorder returns all states in DFS postorder over successor edges, so
// every state appears after all of its successors. The traversal uses an
// explicit stack so deep WAN/fat-tree structures cannot overflow the
// goroutine stack; the order and frame buffers are reused across calls.
func (l *labeler) postorder() []int {
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
func (l *labeler) relabelAll() {
	for _, v := range l.postorder() {
		l.label[v] = l.computeLabel(v)
	}
}

// Labels exposes the decoded label of a state for tests and metamorphic
// comparisons. The result is shared and must not be mutated.
func (l *labeler) Labels(id int) []ltl.Valuation {
	if l.label[id] == noLabel {
		return nil
	}
	return l.tab.Label(l.label[id])
}

// verdict checks the initial states against the root formula and extracts
// a counterexample trace if some initial valuation refutes it.
func (l *labeler) verdict() Verdict {
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
func (l *labeler) extractCex(q0 int, v ltl.Valuation) []int {
	l.ensureAtoms()
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
