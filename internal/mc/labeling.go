package mc

import (
	"slices"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// labeler holds the shared state-labeling machinery (Section 5.1): each
// state is labeled with the set of valuations (maximally-consistent
// subsets of ecl(phi)) witnessed by some trace from that state. Labels are
// interned in a LabelTable shared by the checkers of one formula, so the
// per-state label is a dense LabelID and equality comparison — the
// incremental algorithm's stopping condition — is an integer compare.
//
// What a labeler holds is sized by the states the class's rules connect,
// not by the arena. A state's atom valuation is computed from its switch
// and port (atomsOf), and labels are stored per row of the structure's
// sparse transition storage (kripke.K.Row): a state that never had an
// edge has no entry, and its label — like that of any sink not labeled
// yet — is the memoized sink label of its atom valuation (labelOf).
type labeler struct {
	k   *kripke.K
	clo *ltl.Closure
	// where is the formula's share of every atom valuation, base the
	// class's: the header-field atoms the class packet satisfies.
	where *atomMasks
	base  ltl.Valuation
	tab   *LabelTable // shared intern table (concurrency-safe)
	// label[k.Row(id)] is state id's interned label, noLabel if unset;
	// entry 0, shared by the states without a row, stays unset. The slice
	// trails the structure's rows and grows when a label is stored.
	label []LabelID

	// sinks is the valuation-keyed sink-label memo shared with every
	// checker of the formula; lastSink fronts it with the valuation asked
	// for last, since neighboring states mostly share one.
	sinks    *sinkMemo
	lastSink struct {
		atoms ltl.Valuation
		id    LabelID
		ok    bool
	}

	// ext memoizes Closure.Extend: per atom valuation of the state, a map
	// from the successor's valuation to the result. A class meets a
	// handful of atom valuations — most of its states share one — and its
	// labels a handful of valuations, while the incremental checker
	// evaluates the same pairs thousands of times across the DFS; extLast
	// fronts the outer map with the valuation asked about last. Created on
	// first use and private to this checker.
	// extLog lists its entries in the order they were added, which is
	// what MemoMark and ForgetMemo count and undo.
	ext     map[ltl.Valuation]map[ltl.Valuation]ltl.Valuation
	extLast struct {
		atoms ltl.Valuation
		memo  map[ltl.Valuation]ltl.Valuation
	}
	extLog []extKey

	// scratch is the reusable buffer computeLabel merges successor labels
	// into before interning; it makes the steady-state hot path
	// allocation-free. Not safe for concurrent use — per-checker only.
	scratch  []ltl.Valuation
	idBuf    []LabelID
	frames   []pframe
	orderBuf []int
	seenBuf  []bool // postorder's visited marks, by row

	stats Stats
}

func newLabeler(k *kripke.K, spec *ltl.Formula) (*labeler, error) {
	return newLabelerWarm(k, spec, nil)
}

// newLabelerWarm builds a labeler with its closure, intern table, atom
// masks and sink memo resolved — from the warmth cache when one is
// supplied (so labels interned by any earlier checker for the same
// formula are immediately available), from a private one otherwise — and
// no state labeled yet.
func newLabelerWarm(k *kripke.K, spec *ltl.Formula, w *Warmth) (*labeler, error) {
	if w == nil {
		w = NewWarmth()
	}
	e, err := w.entry(spec)
	if err != nil {
		return nil, err
	}
	l := &labeler{k: k, clo: e.clo, where: e.where, tab: e.tab, sinks: e.sinks}
	for _, id := range e.where.header {
		if k.ClassHolds(e.clo.Sub(id).Prop) {
			l.base = l.base.Set(id, true)
		}
	}
	return l, nil
}

// atomMasks splits a formula's atomic subformulas by what they test. A
// header-field atom tests the class packet, so it is constant over a
// structure; sw=n and pt=n name one switch or one port number, so a
// state's valuation is the class's constant part plus the masks of its
// own switch and port — nothing is stored per state. Formulas name a
// handful of switches and ports, so the masks are short lists.
type atomMasks struct {
	header []int // ids of the header-field atoms
	sw, pt []atomMask
}

// atomMask is the set of atoms that hold wherever a state's switch (or
// port) equals value.
type atomMask struct {
	value int
	bits  ltl.Valuation
}

func newAtomMasks(clo *ltl.Closure) *atomMasks {
	m := &atomMasks{}
	add := func(list []atomMask, value, id int) []atomMask {
		for i := range list {
			if list[i].value == value {
				list[i].bits = list[i].bits.Set(id, true)
				return list
			}
		}
		return append(list, atomMask{value, ltl.Valuation{}.Set(id, true)})
	}
	for _, id := range clo.Atoms() {
		switch p := clo.Sub(id).Prop; p.Field {
		case ltl.FieldSwitch:
			m.sw = add(m.sw, p.Value, id)
		case ltl.FieldPort:
			m.pt = add(m.pt, p.Value, id)
		default:
			m.header = append(m.header, id)
		}
	}
	return m
}

// atomsOf returns the truth of the atomic subformulas at state id (fixed
// for the life of the structure; kripke.K.HoldsAt is the definition).
func (l *labeler) atomsOf(id int) ltl.Valuation {
	st := l.k.StateAt(id)
	v := l.base
	for i := range l.where.sw {
		if m := &l.where.sw[i]; m.value == st.Sw {
			v[0] |= m.bits[0]
			v[1] |= m.bits[1]
		}
	}
	for i := range l.where.pt {
		if m := &l.where.pt[i]; m.value == int(st.Pt) {
			v[0] |= m.bits[0]
			v[1] |= m.bits[1]
		}
	}
	return v
}

// labelOf returns the interned label of state id: the stored one, or for
// a state that has none — a state without a row, or a sink that gained
// its first predecessor since the last full labeling — the sink label of
// its atom valuation. Every read of a label goes through here.
func (l *labeler) labelOf(id int) LabelID {
	if r := l.k.Row(id); r < len(l.label) && l.label[r] != noLabel {
		return l.label[r]
	}
	return l.sinkLabel(l.atomsOf(id))
}

// stored returns what the label array holds for state id (noLabel when
// that is nothing): the value an undo token puts back.
func (l *labeler) stored(id int) LabelID {
	if r := l.k.Row(id); r < len(l.label) {
		return l.label[r]
	}
	return noLabel
}

// store records state id's label, growing the array to the structure's
// rows. A state without a row is a sink whose label labelOf derives, so
// there is nothing to record for it.
func (l *labeler) store(id int, lab LabelID) {
	r := l.k.Row(id)
	if r == 0 {
		return
	}
	if n := l.k.NumRows(); len(l.label) < n {
		l.label = slices.Grow(l.label, n-len(l.label))
		for len(l.label) < n {
			l.label = append(l.label, noLabel)
		}
	}
	l.label[r] = lab
}

// extend computes Extend(atoms, v) through the memo.
func (l *labeler) extend(atoms, v ltl.Valuation) ltl.Valuation {
	m := l.extLast.memo
	if m == nil || l.extLast.atoms != atoms {
		if m = l.ext[atoms]; m == nil {
			if l.ext == nil {
				l.ext = map[ltl.Valuation]map[ltl.Valuation]ltl.Valuation{}
			}
			m = make(map[ltl.Valuation]ltl.Valuation, 8)
			l.ext[atoms] = m
		}
		l.extLast.atoms, l.extLast.memo = atoms, m
	}
	if w, ok := m[v]; ok {
		l.stats.ExtendHits++
		return w
	}
	w := l.clo.Extend(atoms, v)
	m[v] = w
	l.extLog = append(l.extLog, extKey{atoms, v})
	l.stats.ExtendMisses++
	return w
}

// extKey names one entry of the Extend memo.
type extKey struct{ atoms, v ltl.Valuation }

// MemoMark implements Checker: the number of Extend memo entries.
func (l *labeler) MemoMark() int { return len(l.extLog) }

// ForgetMemo implements Checker: the Extend memo entries added since mark
// are deleted, newest first.
func (l *labeler) ForgetMemo(mark int) {
	for i := len(l.extLog) - 1; i >= mark; i-- {
		key := l.extLog[i]
		delete(l.ext[key.atoms], key.v)
	}
	l.extLog = l.extLog[:mark]
}

// computeLabel computes the interned label of state id from its
// successors' labels, which must already be correct. In steady state
// (warm caches, label already interned) it performs no heap allocation.
func (l *labeler) computeLabel(id int) LabelID {
	l.stats.StatesLabeled++
	atoms := l.atomsOf(id)
	succ := l.k.Succ(id)
	if len(succ) == 0 {
		return l.sinkLabel(atoms)
	}
	// Resolve the successors' labels before taking the table's view: a
	// successor read as a sink may intern its label on the way, and the
	// view only covers ids handed out before it was taken.
	ids := l.idBuf[:0]
	for _, s := range succ {
		ids = append(ids, l.labelOf(s))
	}
	l.idBuf = ids
	labels := l.tab.snapshot()
	buf := l.scratch[:0]
	for _, lid := range ids {
		for _, v := range labels[lid] {
			buf = append(buf, l.extend(atoms, v))
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

// postorder returns the states that have a successor, and everything they
// reach, in DFS postorder over successor edges from roots in ascending
// state order, so every state appears after all of its successors. The
// isolated states — nearly all of the arena — are not visited: nothing
// reads a label off them that labelOf does not derive. The traversal uses
// an explicit stack so deep WAN/fat-tree structures cannot overflow the
// goroutine stack; the order, frame and mark buffers are reused across
// calls and sized by the rows, which is every state a walk can reach.
func (l *labeler) postorder() []int {
	visited := append(l.seenBuf[:0], make([]bool, l.k.NumRows())...)
	order := l.orderBuf[:0]
	frames := l.frames[:0]
	for root, n := 0, l.k.NumStates(); root < n; root++ {
		if l.k.IsSink(root) || visited[l.k.Row(root)] {
			continue
		}
		visited[l.k.Row(root)] = true
		frames = append(frames, pframe{root, 0})
		for len(frames) > 0 {
			fi := len(frames) - 1
			v, i := frames[fi].v, frames[fi].i
			succ := l.k.Succ(v)
			pushed := false
			for i < len(succ) {
				u := succ[i]
				i++
				if r := l.k.Row(u); !visited[r] {
					frames[fi].i = i
					visited[r] = true
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
	l.seenBuf = visited[:0]
	l.orderBuf = order
	return order
}

// relabelAll computes labels from scratch: every stored label is
// forgotten first — a state the structure has since isolated must not
// keep one — and every state postorder visits is labeled again.
func (l *labeler) relabelAll() {
	for i := range l.label {
		l.label[i] = noLabel
	}
	for _, v := range l.postorder() {
		l.store(v, l.computeLabel(v))
	}
}

// Labels exposes the decoded label of a state for tests and metamorphic
// comparisons. The result is shared and must not be mutated.
func (l *labeler) Labels(id int) []ltl.Valuation {
	return l.tab.Label(l.labelOf(id))
}

// verdict checks the initial states against the root formula and extracts
// a counterexample trace if some initial valuation refutes it.
func (l *labeler) verdict() Verdict {
	l.stats.Checks++
	for _, q0 := range l.k.Init() {
		for _, v := range l.tab.Label(l.labelOf(q0)) {
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
// returns nil when no such trace exists, which labels computed from the
// structure rule out; the verdict then carries no counterexample. (The
// walk ends: no structure a checker is built over has a cycle.)
func (l *labeler) extractCex(q0 int, v ltl.Valuation) []int {
	trace := []int{q0}
	q, cur := q0, v
	for !l.k.IsSink(q) {
		atoms := l.atomsOf(q)
		found := false
		for _, s := range l.k.Succ(q) {
			for _, vs := range l.tab.Label(l.labelOf(s)) {
				if l.extend(atoms, vs) == cur {
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
