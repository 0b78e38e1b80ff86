package core

import (
	"math"
	"slices"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// depAnalysis is the reusable ordering-analysis core shared by the
// wait-removal pass (waits.go) and the plan-DAG builder (dag.go). It
// walks a plan's update steps in order, tracking the evolving
// configuration and a window of "pending" updates whose pre-update rules
// may still govern in-flight packets, and answers the two questions both
// consumers need:
//
//   - which classes does this step affect (the per-class behavior-change
//     test of Section 4.2.C)?
//   - could a packet forwarded under some earlier step's old rules still
//     reach this step's switch (the reachability hazard that forces a
//     wait barrier — or, in DAG form, a drain edge)?
//
// Every answer costs what the step touched, not the network or the plan:
// the configuration is an overlay of the tables the steps set, a class's
// behavior change is computed once per step and shared by both consumers,
// and the liveness half of the window test reads per-class live sets that
// are maintained across steps instead of re-derived by one search per
// class per step (see live).
//
// oldEntry remembers a switch updated inside the current window, its
// pre-update table, and which classes that update affected.
type oldEntry struct {
	sw       int
	tbl      network.Table
	affected []bool // indexed like sc.Specs
	// prev is the window index of the previous entry on the same switch
	// (-1 if none): at rule granularity a switch enters the window once
	// per rule, and a live-set search must follow every one of its tables.
	prev int32
}

type depAnalysis struct {
	e *engine
	s *depScratch
	n int // switches
	// gen stamps the overlay tables of this analysis, win the per-switch
	// window heads since the last barrier.
	gen, win int32
	// pending is the window of updates since the last barrier whose old
	// rules may still govern in-flight packets.
	pending []oldEntry
	// step counts the steps advanced: the position in the engine's memo
	// of affected vectors (see affected).
	step int
}

// depScratch is the analysis's pooled state, sized by switches and
// classes and reused across a session's syntheses. Validity is by stamp —
// an entry counts only while its stamp equals the current one of its
// kind, all drawn from tick — so starting an analysis, clearing the
// window and dropping a class's live set are O(1) and nothing is cleared
// or reallocated in steady state.
type depScratch struct {
	tick int32 // last stamp issued; 0 is never issued

	// Single-configuration search (reaches): visited stamps and the
	// stack, the start list, and the class-output comparison buffers.
	seen   []int32
	queue  []int
	starts []int
	actsA  []network.Action
	actsB  []network.Action
	// The classes a step's two tables have a rule for (affected).
	ruled []int

	// Per switch: the table the analysed steps installed (valid while
	// tblE == gen) and the newest window entry (valid while headE == win);
	// set lists the switches whose tbl entry the analysis wrote.
	tbl   []network.Table
	tblE  []int32
	set   []int
	head  []int32
	headE []int32

	// Per class: the ingress switch (-1: unknown source host), the stamp
	// of the class's live set, 0 while it is not computed, and the stamp
	// of the last live query that found the class a candidate (see live).
	// mark is classes x switches: mark[c*n+sw] == liveE[c] puts sw in c's
	// set.
	ingress []int32
	liveE   []int32
	cand    []int32
	mark    []int32

	// an is the analysis itself, its pending window kept across analyses.
	an depAnalysis

	// The DAG builder's (buildDAG): per switch, the node of the switch's
	// last step (valid while lastSwE is the build's stamp); per class, the
	// node of the class's last affecting step; per node, the window entry
	// advance recorded and the dependency level; per level, its node count;
	// and the edge lists of the nodes so far, ends[2j] and ends[2j+1]
	// closing node j's predecessors and its drain edges.
	lastSw, lastSwE  []int32
	lastClass        []int
	entries, level   []int
	levelSize, edges []int
	ends             []int
}

func (s *depScratch) next() int32 {
	s.tick++
	return s.tick
}

// reset sizes the scratch for n switches and nc classes. Stamps only
// grow, so entries left by earlier analyses (even under another layout)
// can never read as current; the counter is rewound, with everything
// cleared, long before an analysis could exhaust it.
func (s *depScratch) reset(n, nc int) {
	if s.tick > math.MaxInt32/2 {
		clear(s.seen)
		clear(s.tblE)
		clear(s.headE)
		clear(s.cand)
		clear(s.mark)
		clear(s.lastSwE)
		s.tick = 0
	}
	if len(s.seen) < n {
		s.seen = make([]int32, n)
		s.tbl = make([]network.Table, n)
		s.tblE = make([]int32, n)
		s.head = make([]int32, n)
		s.headE = make([]int32, n)
		s.lastSw = make([]int32, n)
		s.lastSwE = make([]int32, n)
	}
	if len(s.ingress) < nc {
		s.ingress = make([]int32, nc)
		s.liveE = make([]int32, nc)
		s.cand = make([]int32, nc)
	}
	if len(s.mark) < n*nc {
		s.mark = make([]int32, n*nc)
	}
}

// newDepAnalysis starts an analysis at the scenario's initial
// configuration. It takes the engine's pooled scratch for its lifetime
// (release hands it back), so a second analysis opened meanwhile gets a
// private one rather than the first one's marks.
func (e *engine) newDepAnalysis() *depAnalysis {
	s := e.deps
	e.deps = nil
	if s == nil {
		s = &depScratch{}
	}
	n, nc := e.sc.Topo.NumSwitches(), len(e.sc.Specs)
	s.reset(n, nc)
	d := &s.an
	*d = depAnalysis{e: e, s: s, n: n, gen: s.next(), win: s.next(), pending: d.pending[:0]}
	for ci, cs := range e.sc.Specs {
		s.liveE[ci] = 0
		s.ingress[ci] = -1
		if h, ok := e.sc.Topo.HostByID(cs.Class.SrcHost); ok {
			s.ingress[ci] = int32(h.Switch)
		}
	}
	return d
}

// release returns the pooled scratch to the engine, dropping the overlay's
// references so a session's scratch does not keep a finished request's
// tables alive; the analysis must not be used afterwards.
func (d *depAnalysis) release() {
	for _, sw := range d.s.set {
		d.s.tbl[sw] = nil
	}
	d.s.set = d.s.set[:0]
	d.pending = emptied(d.pending)
	d.e.deps = d.s
}

// table returns sw's table in the configuration reached by the steps
// advanced so far: the scenario's initial configuration under an overlay
// of the tables those steps set.
func (d *depAnalysis) table(sw int) network.Table {
	if d.s.tblE[sw] == d.gen {
		return d.s.tbl[sw]
	}
	return d.e.sc.Init.Table(sw)
}

// affectedMemo is one remembered answer of affected: the step's switch
// and the identities of the tables it replaced and installed.
type affectedMemo struct {
	sw       int
	old, new network.Table
	row      []bool
}

// affected reports, per spec class, whether installing tbl on sw changes
// the class's forwarding behavior at the current configuration. The
// comparison is on the sets of forwarding outputs of matching rules; any
// in-port-constrained rule makes the answer conservatively "changed".
//
// The answer is a function of the two tables, and every analysis of one
// step sequence meets the same pair at the same position — wait removal
// and then the DAG build walk the same updates from the same initial
// configuration — so the engine remembers the vectors by position and a
// later analysis reuses them when switch and both tables are identical.
// The memo and its rows are the request scratch's, reset per request; the
// vectors are immutable until then.
func (d *depAnalysis) affected(sw int, tbl network.Table) []bool {
	e, scr, old := d.e, d.e.scr, d.table(sw)
	if d.step < len(scr.affMemo) {
		if m := &scr.affMemo[d.step]; m.sw == sw && m.old.Same(old) && m.new.Same(tbl) {
			return m.row
		}
		scr.affMemo = scr.affMemo[:d.step]
	}
	// A class no rule of either table matches is dropped by both: only
	// the classes the rules name are compared (flowIndex).
	row := scr.affRows.take(len(e.sc.Specs))
	clear(row)
	if e.flows == nil {
		e.flows = newFlowIndex(e.sc.Specs)
	}
	ruled := d.s.ruled[:0]
	for _, r := range old {
		ruled = e.flows.appendMatching(ruled, r.Match)
	}
	for _, r := range tbl {
		ruled = e.flows.appendMatching(ruled, r.Match)
	}
	slices.Sort(ruled)
	for _, ci := range slices.Compact(ruled) {
		row[ci] = !d.sameClassBehavior(old, tbl, e.sc.Specs[ci].Class.Packet())
	}
	d.s.ruled = ruled[:0]
	if d.step == len(scr.affMemo) {
		scr.affMemo = append(scr.affMemo, affectedMemo{sw: sw, old: old, new: tbl, row: row})
	}
	return row
}

func (d *depAnalysis) sameClassBehavior(a, b network.Table, pkt network.Packet) bool {
	s := d.s
	oa, oka := classOutputs(s.actsA[:0], a, pkt)
	ob, okb := classOutputs(s.actsB[:0], b, pkt)
	s.actsA, s.actsB = oa[:0], ob[:0]
	if !oka || !okb {
		return false // in-port-sensitive rules: assume changed
	}
	if len(oa) != len(ob) {
		return false
	}
	for _, x := range oa {
		if !containsAction(ob, x) {
			return false
		}
	}
	return true
}

// barrierNeeded reports whether applying an update to sw (affecting the
// given classes) without a barrier could let an in-flight packet —
// forwarded under the old rules of some pending switch — observe both an
// old and the new configuration at sw (the waitNeeded test of Section
// 4.2.C over the whole pending window). Classes unaffected by sw's change
// are ignored, as are pending switches whose change did not affect the
// class.
func (d *depAnalysis) barrierNeeded(sw int, affected []bool) bool {
	if len(d.pending) == 0 {
		return false
	}
	e, s := d.e, d.s
	for ci, cs := range e.sc.Specs {
		if !affected[ci] {
			continue
		}
		pkt := cs.Class.Packet()
		starts := s.starts[:0]
		for pi := range d.pending {
			if p := &d.pending[pi]; p.affected[ci] {
				starts = e.appendClassSuccessors(starts, p.tbl, p.sw, pkt)
			}
		}
		s.starts = starts[:0]
		if len(starts) > 0 && d.reaches(pkt, starts, sw) {
			return true
		}
	}
	return false
}

// drainNeeded is the single-predecessor refinement of barrierNeeded: it
// reports whether in-flight packets forwarded under pending entry p's old
// rules could reach sw, considering only classes both updates affect. The
// DAG builder uses it to mark which dependency edges carry a drain
// obligation rather than fencing the whole window.
func (d *depAnalysis) drainNeeded(p *oldEntry, sw int, affected []bool) bool {
	e, s := d.e, d.s
	for ci, cs := range e.sc.Specs {
		if !affected[ci] || !p.affected[ci] {
			continue
		}
		pkt := cs.Class.Packet()
		starts := e.appendClassSuccessors(s.starts[:0], p.tbl, p.sw, pkt)
		s.starts = starts[:0]
		if len(starts) > 0 && d.reaches(pkt, starts, sw) {
			return true
		}
	}
	return false
}

// reaches searches the class's switch-level forwarding graph under the
// current configuration, from the given start switches, for target.
func (d *depAnalysis) reaches(pkt network.Packet, starts []int, target int) bool {
	s := d.s
	stamp := s.next()
	queue := append(s.queue[:0], starts...)
	found := false
	for len(queue) > 0 {
		sw := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if sw == target {
			found = true
			break
		}
		if s.seen[sw] == stamp {
			continue
		}
		s.seen[sw] = stamp
		queue = d.e.appendClassSuccessors(queue, d.table(sw), sw, pkt)
	}
	s.queue = queue[:0]
	return found
}

// barrier resets the pending window: a retained wait guarantees every
// in-flight packet has drained, so earlier old rules need no further
// fencing — and no longer widen any class's live set. A set that contains
// no window entry's switch never followed a window edge, which leave only
// from those switches, so it already is the current configuration's set
// and is kept; any other is dropped.
func (d *depAnalysis) barrier() {
	s := d.s
	for ci := range d.e.sc.Specs {
		if s.liveE[ci] == 0 {
			continue
		}
		mark := s.mark[ci*d.n : (ci+1)*d.n]
		for pi := range d.pending {
			if mark[d.pending[pi].sw] == s.liveE[ci] {
				s.liveE[ci] = 0
				break
			}
		}
	}
	d.pending = d.pending[:0]
	d.win = s.next()
}

// advance records the step in the pending window — when it affects some
// class and its switch was live (reachable for some class) inside the
// window — and applies its table to the tracked configuration. It returns
// the index of the recorded window entry, or -1 when the step needs no
// fencing (indexes stay valid across later appends).
func (d *depAnalysis) advance(sw int, tbl network.Table, affected []bool) int {
	s, old := d.s, d.table(sw)
	idx := -1
	if anyTrue(affected) && d.live(sw) {
		idx = len(d.pending)
		prev := int32(-1)
		if s.headE[sw] == d.win {
			prev = s.head[sw]
		}
		d.pending = append(d.pending, oldEntry{sw: sw, tbl: old, affected: affected, prev: prev})
		s.head[sw], s.headE[sw] = int32(idx), d.win
	}
	if s.tblE[sw] != d.gen {
		s.set = append(s.set, sw)
	}
	s.tbl[sw], s.tblE[sw] = tbl, d.gen
	d.step++
	d.followStep(sw, old, tbl, idx >= 0)
	return idx
}

// live reports whether packets of some class could have reached switch sw
// at any point since the last retained wait: whether sw is in some
// class's live set.
//
// A class's live set is the set of switches reachable from its ingress
// over the window's union graph — the current configuration's edges for
// the class plus the pre-update edges of every entry in the window, a
// superset of every configuration the window contained. The set is
// computed by one search when first needed and then kept across steps:
// followStep grows it when a step adds edges inside it, drops it when a
// step removes some, and barrier drops it when the window's edges
// reached it. A step whose switch lies outside the set cannot change it —
// no path from the ingress uses that switch's edges — so the set always
// equals what a fresh search over the window would find.
//
// The sets already computed are read first, and the ingress switches.
// Only then is a set searched, and only for a class with an edge into sw
// in the union graph: no other class's set can hold a switch that is not
// its ingress. The answer costs a mark read per class, a scan of the
// neighbours' tables for rules toward sw, and a search per candidate
// class whose set is not computed.
func (d *depAnalysis) live(sw int) bool {
	s := d.s
	for ci := range d.e.sc.Specs {
		if int(s.ingress[ci]) == sw || s.liveE[ci] != 0 && s.mark[ci*d.n+sw] == s.liveE[ci] {
			return true
		}
	}
	stamp := d.candidates(sw)
	for ci := range d.e.sc.Specs {
		if s.cand[ci] != stamp {
			continue
		}
		s.liveE[ci] = s.next()
		s.starts = append(s.starts[:0], int(s.ingress[ci]))
		d.growLive(ci, s.starts)
		if s.mark[ci*d.n+sw] == s.liveE[ci] {
			return true
		}
	}
	return false
}

// candidates stamps, in cand, every class with a known ingress and no
// computed live set that has an edge into sw in the window's union graph:
// a rule matching the class packet that forwards out of a port leading to
// sw, in a neighbour's current table or in one of its window-entry
// tables. It returns the stamp.
func (d *depAnalysis) candidates(sw int) int32 {
	s := d.s
	stamp := s.next()
	for _, l := range d.e.sc.Topo.Neighbors(sw) {
		u := l.Peer
		d.markSenders(stamp, d.table(u), l.PeerPort)
		if s.headE[u] == d.win {
			for pi := s.head[u]; pi >= 0; pi = d.pending[pi].prev {
				d.markSenders(stamp, d.pending[pi].tbl, l.PeerPort)
			}
		}
	}
	return stamp
}

// markSenders stamps the classes whose packets a rule of tbl forwards out
// of port pt; see candidates.
func (d *depAnalysis) markSenders(stamp int32, tbl network.Table, pt topology.Port) {
	s := d.s
	for _, r := range tbl {
		if !forwardsOut(r, pt) {
			continue
		}
		for ci, cs := range d.e.sc.Specs {
			if s.cand[ci] != stamp && s.liveE[ci] == 0 && s.ingress[ci] >= 0 && headerMatches(r.Match, cs.Class.Packet()) {
				s.cand[ci] = stamp
			}
		}
	}
}

// forwardsOut reports whether r forwards out of port pt.
func forwardsOut(r network.Rule, pt topology.Port) bool {
	for _, a := range r.Actions {
		if a.Kind == network.ActForward && a.Port == pt {
			return true
		}
	}
	return false
}

// growLive adds to class ci's live set everything reachable from the
// given switches over the window's union graph, stopping at switches
// already in the set.
func (d *depAnalysis) growLive(ci int, from []int) {
	e, s := d.e, d.s
	pkt := e.sc.Specs[ci].Class.Packet()
	mark, stamp := s.mark[ci*d.n:(ci+1)*d.n], s.liveE[ci]
	queue := append(s.queue[:0], from...)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if mark[v] == stamp {
			continue
		}
		mark[v] = stamp
		queue = e.appendClassSuccessors(queue, d.table(v), v, pkt)
		if s.headE[v] == d.win {
			for pi := s.head[v]; pi >= 0; pi = d.pending[pi].prev {
				queue = e.appendClassSuccessors(queue, d.pending[pi].tbl, v, pkt)
			}
		}
	}
	s.queue = queue[:0]
}

// followStep keeps the computed live sets exact across a step that
// replaced old by tbl on sw. Only sets containing sw can change. If the
// step entered the window its old edges stay in the union graph, and
// likewise if the new table keeps every old successor: the set can only
// grow, from the new successors. Otherwise edges left the graph and the
// set is dropped, to be searched again when next read.
func (d *depAnalysis) followStep(sw int, old, tbl network.Table, recorded bool) {
	e, s := d.e, d.s
	for ci := range e.sc.Specs {
		if s.liveE[ci] == 0 || s.mark[ci*d.n+sw] != s.liveE[ci] {
			continue
		}
		pkt := e.sc.Specs[ci].Class.Packet()
		added := e.appendClassSuccessors(s.starts[:0], tbl, sw, pkt)
		s.starts = added[:0]
		if !recorded {
			lost := e.appendClassSuccessors(s.queue[:0], old, sw, pkt)
			s.queue = lost[:0]
			if !subsetOf(lost, added) {
				s.liveE[ci] = 0
				continue
			}
		}
		d.growLive(ci, added)
	}
}

func subsetOf(xs, ys []int) bool {
outer:
	for _, x := range xs {
		for _, y := range ys {
			if x == y {
				continue outer
			}
		}
		return false
	}
	return true
}
