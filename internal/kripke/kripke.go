// Package kripke builds the network Kripke structures of Section 3.3
// (Definition 9): for one traffic class, states are switch-port locations
// the class packet can occupy, transitions follow the forwarding tables,
// and sinks (egress and drop states) carry implicit self-loops. The state
// set is fixed by the topology — only the transition relation changes when
// a switch is updated — which is exactly the update model (K, K', U) that
// the incremental model checker of Section 5 requires.
package kripke

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"netupdate/internal/config"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// StateKind distinguishes packet-arrival states from egress states.
type StateKind uint8

// State kinds. An Arrival state (sw, pt) is a packet being processed by
// switch sw having arrived on port pt; an Egress state (sw, pt) is a
// packet on the host-facing link out of port pt (Definition 9's fourth
// case), which is a sink.
const (
	Arrival StateKind = iota
	Egress
)

// State identifies a Kripke state.
type State struct {
	Kind StateKind
	Sw   int
	Pt   topology.Port
}

func (s State) String() string {
	k := "arr"
	if s.Kind == Egress {
		k = "egr"
	}
	return fmt.Sprintf("%s(sw%d,pt%d)", k, s.Sw, s.Pt)
}

// ErrLoop is returned when a configuration induces a forwarding loop for
// the class; the states on the cycle are reported for counterexample
// learning. IDs carries the same cycle as state ids in the structure that
// produced the error, so hot-path consumers (the synthesis engine's
// counterexample learning) can extract switches through K.AppendSwitches
// without re-resolving states.
type ErrLoop struct {
	Class config.Class
	Cycle []State
	IDs   []int
}

func (e *ErrLoop) Error() string {
	return fmt.Sprintf("kripke: forwarding loop for class %v through %v", e.Class, e.Cycle)
}

// K is the Kripke structure of one traffic class under a mutable
// configuration. States never change; UpdateSwitch changes only the
// outgoing transitions of the updated switch's arrival states.
//
// The structure keeps no table for a switch it has not moved: it reads
// tables from the configuration it was built, restored, rebound or last
// rebased at (cfg), under an overlay (moved) of the switches updates have
// moved since. A bound configuration must not be mutated: the structure
// would not notice, and a Rebind to it would compare tables with themselves.
//
// The state set is the whole arena, but a class's rules connect a few
// dozen of its states: every other state is isolated — no successor, no
// predecessor — and stores nothing. row maps a state to its entry in succ
// and pred; every state that never had an edge shares entry 0, which
// stays empty. An entry is added when a state first gains an edge and is
// never moved or dropped afterwards, so deltas and the checkers' per-row
// labels (see Row) keep indexing the same entries.
type K struct {
	Class config.Class
	Topo  *topology.Topology

	// a is the state space, shared with every structure over the topology.
	a *Arena

	row []int32
	// succ[row[i]] lists successors of state i. Empty means sink (implicit
	// self-loop), matching the complete DAG-like structures of Section 5.
	succ [][]int
	pred [][]int
	// cfg is the bound configuration and moved the tables installed over
	// it since the last Rebase; see Table.
	cfg   *config.Config
	moved map[int]network.Table
	// log records the outstanding updates; nil while the structure holds
	// none (see undoLog).
	log *undoLog
	// outBuf, nextBuf and nextEnd are successors' reusable buffers: the
	// table-application output, and the successor lists of one switch's
	// arrival states laid end to end.
	outBuf  []network.PortPacket
	nextBuf []int
	nextEnd []int
	// rootBuf is Rebind's reusable cycle-check root buffer.
	rootBuf []int
}

// Build constructs the Kripke structure of class cl under cfg over a
// private arena. It returns *ErrLoop if the configuration forwards the
// class in a cycle. Callers building many classes (or many tenants) over
// one topology should build the Arena once and share it. The structure
// stays bound to cfg (see K).
func Build(topo *topology.Topology, cfg *config.Config, cl config.Class) (*K, error) {
	return NewArena(topo).Build(cfg, cl)
}

// successors computes the successor lists tbl gives sw's arrival states
// into nextBuf, the i-th state's ending at nextEnd[i], and changes
// nothing else. It returns an error if a rule would modify the class
// packet (packet modification is outside the checked fragment, per
// Section 3.3).
func (k *K) successors(sw int, tbl network.Table) error {
	a, pkt := k.a, k.Class.Packet()
	next, ends := k.nextBuf[:0], k.nextEnd[:0]
	for _, id := range a.statesOf(sw) {
		outs := tbl.AppendApply(k.outBuf[:0], pkt, a.states[id].Pt)
		k.outBuf = outs[:0]
		for _, o := range outs {
			if o.Pkt != pkt {
				return fmt.Errorf("kripke: class %v: rule on sw%d modifies packet headers", k.Class, sw)
			}
			// A host-facing port leads to its egress state — any host
			// delivers; only the class destination is "correct", but the
			// structure must reflect actual behavior either way — and a
			// link port to the peer's arrival state. On a port the switch
			// does not have the packet is lost: a drop, no edge.
			if to, ok := a.successor(sw, o.Port); ok {
				next = append(next, to)
			}
		}
		ends = append(ends, len(next))
	}
	k.nextBuf, k.nextEnd = next, ends
	return nil
}

// nextOf returns the i-th list the last successors call computed.
func (k *K) nextOf(i int) []int {
	from := 0
	if i > 0 {
		from = k.nextEnd[i-1]
	}
	return k.nextBuf[from:k.nextEnd[i]]
}

// Moves reports whether tbl forwards the class at sw otherwise than from
// does — from nil meaning the table the structure holds — by the
// successor lists each gives sw's arrival states, computed as an update
// computes them (successors). It installs nothing: no table, no successor
// list, no loop check, no undo record. Its error is the one an update
// installing the table would return.
func (k *K) Moves(sw int, from, tbl network.Table) (bool, error) {
	var was, wasEnd []int
	if from != nil {
		if err := k.successors(sw, from); err != nil {
			return false, err
		}
		was, wasEnd = slices.Clone(k.nextBuf), slices.Clone(k.nextEnd)
	}
	if err := k.successors(sw, tbl); err != nil {
		return false, err
	}
	for i, id := range k.a.statesOf(sw) {
		old := k.Succ(id)
		if from != nil {
			lo := 0
			if i > 0 {
				lo = wasEnd[i-1]
			}
			old = was[lo:wasEnd[i]]
		}
		if !slices.Equal(old, k.nextOf(i)) {
			return true, nil
		}
	}
	return false, nil
}

// recomputeSwitch rewires the outgoing transitions of sw's arrival states
// from tbl, updating predecessor lists, records nothing, and reports
// whether any state's successors changed; on error (see successors) it
// changes nothing.
func (k *K) recomputeSwitch(sw int, tbl network.Table) (changed bool, err error) {
	if err := k.successors(sw, tbl); err != nil {
		return false, err
	}
	return k.rewire(sw, false), nil
}

// rewire gives each of sw's arrival states the list the last successors
// call computed for it, where that differs from the one it holds, and
// reports whether any did. With record set the structure holds a log,
// whose newest delta takes each change in; otherwise a replaced list is
// given up — to the log's free lists if the structure holds one. A new
// list comes from the free lists of a log the structure holds, and
// without one is carved from one array per switch.
func (k *K) rewire(sw int, record bool) (changed bool) {
	l := k.log
	var flat []int
	for i, id := range k.a.statesOf(sw) {
		next, old := k.nextOf(i), k.Succ(id)
		if slices.Equal(old, next) {
			continue
		}
		changed = true
		var list []int
		switch {
		case len(next) == 0:
		case l != nil:
			list = l.take(next)
		default:
			if flat == nil {
				flat = make([]int, 0, len(k.nextBuf))
			}
			n := len(flat)
			flat = append(flat, next...)
			list = flat[n:len(flat):len(flat)]
		}
		k.setSucc(id, list)
		switch {
		case record:
			l.ids = append(l.ids, id)
			l.oldSucc = append(l.oldSucc, old)
			l.newSucc = append(l.newSucc, list)
		case l != nil:
			l.release(old)
		}
	}
	return changed
}

// setSucc replaces the successor list of state id, maintaining pred.
func (k *K) setSucc(id int, next []int) {
	r := k.row[id]
	for _, t := range k.succ[r] {
		tr := k.row[t]
		k.pred[tr] = removeOne(k.pred[tr], id)
	}
	if r == 0 {
		if len(next) == 0 {
			return
		}
		r = k.addRow(id)
	}
	k.succ[r] = next
	for _, t := range next {
		tr := k.row[t]
		if tr == 0 {
			tr = k.addRow(t)
		}
		k.pred[tr] = append(k.pred[tr], id)
	}
}

// addRow gives state id, which is gaining its first edge, an entry of its
// own.
func (k *K) addRow(id int) int32 {
	r := int32(len(k.succ))
	k.succ = append(k.succ, nil)
	k.pred = append(k.pred, nil)
	k.row[id] = r
	return r
}

func removeOne(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// undoLog records a structure's outstanding updates, oldest first: the
// tables each replaced, and the states whose successor lists changed with
// their lists before and after, as parallel slices. A Delta is a window
// of it. A structure borrows a log from logPool on its first update and
// returns it at the first Rebase that finds no delta outstanding, so an
// idle structure holds none.
//
// Every successor list is held by exactly one state, or by none. free
// holds lists no state holds — the new lists of a reverted update, the
// old lists of a committed one, the lists a rebind replaced — and the
// next update fills them instead of allocating. They travel with the log,
// so a list one structure gave up serves whichever borrows the log next.
type undoLog struct {
	tables           []tableSwap
	ids              []int
	oldSucc, newSucc [][]int
	// deltas[:open] are the outstanding deltas, oldest first; the records
	// past open serve later updates.
	deltas []*Delta
	open   int
	// reverted is the delta the last Revert ended while nothing has
	// happened since: the one Reapply accepts.
	reverted *Delta
	free     [][]int
}

// maxFree caps the lists a log keeps for reuse: enough for any update's
// changed states, and a bound on what a pooled log holds.
const maxFree = 1024

var logPool = sync.Pool{New: func() any { return new(undoLog) }}

// take returns a list holding next, filled from a free list when there is
// one; next must not be empty.
func (l *undoLog) take(next []int) []int {
	n := len(l.free)
	if n == 0 {
		return slices.Clone(next)
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return append(s[:0], next...)
}

// release takes back a list no state holds any more.
func (l *undoLog) release(s []int) {
	if cap(s) > 0 && len(l.free) < maxFree {
		l.free = append(l.free, s)
	}
}

// truncate drops the entries from the given table and state positions on.
func (l *undoLog) truncate(tables, ids int) {
	l.tables, l.ids = l.tables[:tables], l.ids[:ids]
	l.oldSucc, l.newSucc = l.oldSucc[:ids], l.newSucc[:ids]
}

// reset empties the log for the pool: it must not keep the tables and
// lists of the structure that returns it alive.
func (l *undoLog) reset() {
	l.truncate(0, 0)
	clear(l.tables[:cap(l.tables)])
	clear(l.oldSucc[:cap(l.oldSucc)])
	clear(l.newSucc[:cap(l.newSucc)])
	l.open, l.reverted = 0, nil
}

// Delta is an applied update: a window of its structure's undo log
// holding the switches whose tables the update replaced and the states
// whose outgoing transitions changed, with enough to revert it. The state
// ids come in a deterministic order (per switch, the switch's
// arrival-state order). Only states whose successor list genuinely
// changed are recorded: a table replacement that leaves the class's
// forwarding intact yields an empty delta, which checkers and the
// synthesis engine use as a skip-this-class fast path.
//
// A delta is outstanding from the update that returns it until Revert or
// Commit ends it, and deltas end newest first. Once one is committed,
// every delta older than it can only be committed too: what a revert
// would put back no longer describes the structure. The record is the
// log's, and a later update reuses it.
type Delta struct {
	log *undoLog
	// The window: log.tables[t0:t1], and log.ids, oldSucc and
	// newSucc[c0:c1].
	t0, t1, c0, c1 int
	// sealed marks a delta a newer one was committed on.
	sealed bool
}

// tableSwap is one switch's table before and after an update.
type tableSwap struct {
	sw       int
	old, new network.Table
}

// Changed returns the ids of states whose transition function changed.
// The slice is shared and must not be mutated.
func (d *Delta) Changed() []int { return d.log.ids[d.c0:d.c1:d.c1] }

// NumSwitches returns the number of switches whose tables the update
// replaced, and SwitchAt the i-th of them, in the order they were given.
func (d *Delta) NumSwitches() int   { return d.t1 - d.t0 }
func (d *Delta) SwitchAt(i int) int { return d.log.tables[d.t0+i].sw }

// UpdateSwitch installs tbl on sw, rewiring transitions. It returns the
// delta for incremental re-checking and for ending the update. If the new
// structure contains a cycle (forwarding loop), the update is applied and
// an *ErrLoop is returned alongside the delta: callers treat the
// configuration as wrong, learn from the cycle, and revert.
func (k *K) UpdateSwitch(sw int, tbl network.Table) (*Delta, error) {
	d := k.begin()
	if err := k.install(d, sw, tbl); err != nil {
		k.undo(d)
		return nil, err
	}
	return d, k.loopThrough(d)
}

// UpdateSwitches installs cfg's tables on the listed (distinct) switches
// as one step — UpdateSwitch is its one-switch case — and looks for a
// loop once, in the structure all of them produce: a session checks a
// whole target this way, where switch-by-switch updates would stop at a
// loop that only the configurations in between have. Like UpdateSwitch it
// returns the applied delta alongside an *ErrLoop.
func (k *K) UpdateSwitches(cfg *config.Config, switches []int) (*Delta, error) {
	d := k.begin()
	for _, sw := range switches {
		if err := k.install(d, sw, cfg.Table(sw)); err != nil {
			k.undo(d)
			return nil, err
		}
	}
	return d, k.loopThrough(d)
}

// begin opens an empty delta at the end of the log, borrowing a log first
// if the structure holds none.
func (k *K) begin() *Delta {
	if k.log == nil {
		k.log = logPool.Get().(*undoLog)
	}
	l := k.log
	l.reverted = nil
	if l.open == len(l.deltas) {
		l.deltas = append(l.deltas, &Delta{log: l})
	}
	d := l.deltas[l.open]
	l.open++
	d.t0, d.t1, d.c0, d.c1, d.sealed = len(l.tables), len(l.tables), len(l.ids), len(l.ids), false
	return d
}

// install replaces sw's table by tbl, rewires its arrival states and
// records the replacement and the states that changed in d, the newest
// delta. A rule that modifies the class packet (a programming error, see
// successors) leaves the switch as it was and d without it.
func (k *K) install(d *Delta, sw int, tbl network.Table) error {
	if err := k.successors(sw, tbl); err != nil {
		return err
	}
	l := d.log
	l.tables = append(l.tables, tableSwap{sw: sw, old: k.Table(sw), new: tbl})
	k.setTable(sw, tbl)
	k.rewire(sw, true)
	d.t1, d.c1 = len(l.tables), len(l.ids)
	return nil
}

// loopThrough reports a cycle the applied delta closed, as an *ErrLoop. A
// new cycle must pass through a rewired state; an empty delta cannot have
// introduced one.
func (k *K) loopThrough(d *Delta) error {
	changed := d.Changed()
	if len(changed) == 0 {
		return nil
	}
	if cyc := k.findCycle(changed); cyc != nil {
		return &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
	}
	return nil
}

// Rebind rewires the structure in place so it reflects cfg, recomputing
// only the switches whose installed tables differ — the state space,
// its layout, and initial states are fixed by the topology and survive
// untouched, which is what lets a long-lived session reuse one arena
// across a whole stream of syntheses. changed lists the switches whose
// transition function for this class actually changed, so the session
// skips refreshing the checker entirely when the class is unaffected (a
// checker's verdict depends on the class structure alone, see
// mc.Checker); touched lists every switch whose table was replaced, a
// superset. If cfg forwards the class in a
// cycle, the structure has still been fully rebound to cfg (tables stay
// consistent for a later Rebind) and *ErrLoop is returned. Either way the
// structure ends bound to cfg (see K on mutating it). A rebind abandons
// the outstanding deltas: neither they nor the checker tokens taken with
// them may be ended afterwards.
func (k *K) Rebind(cfg *config.Config) (changed, touched []int, err error) {
	for sw := 0; sw < k.Topo.NumSwitches(); sw++ {
		if !k.Table(sw).Equal(cfg.Table(sw)) {
			touched = append(touched, sw)
		}
	}
	changed, err = k.RebindSwitches(cfg, touched)
	var loop *ErrLoop
	if err == nil || errors.As(err, &loop) {
		k.Rebase(cfg) // every switch was compared: the tables are cfg's
	}
	return changed, touched, err
}

// RebindSwitches is Rebind restricted to the given candidate switches:
// only their tables are compared and recomputed (an empty list — nil or
// not — rebinds nothing). The caller must guarantee that every switch
// outside the candidate list already forwards the class in this structure
// as cfg's table does — sessions know exactly which switches a synthesis
// run (or a target diff) could have touched, and skipping the full
// O(switches) equality sweep per class is what keeps per-synthesis resync
// cost proportional to the diff, not the network. The structure stays
// bound where it was; a caller done resyncing follows up with Rebase. It
// abandons the outstanding deltas as Rebind does.
func (k *K) RebindSwitches(cfg *config.Config, switches []int) (changed []int, err error) {
	if l := k.log; l != nil {
		// The outstanding deltas are abandoned: no state holds the lists
		// they replaced.
		for j := range l.ids {
			l.release(l.oldSucc[j])
		}
		l.truncate(0, 0)
		l.open, l.reverted = 0, nil
	}
	roots := k.rootBuf[:0]
	for _, sw := range switches {
		tbl := cfg.Table(sw)
		if k.Table(sw).Equal(tbl) {
			continue
		}
		moved, err := k.recomputeSwitch(sw, tbl)
		if err != nil {
			k.rootBuf = roots[:0]
			return changed, err
		}
		k.setTable(sw, tbl)
		if moved {
			changed = append(changed, sw)
			roots = append(roots, k.a.statesOf(sw)...)
		}
	}
	k.rootBuf = roots[:0]
	if len(roots) > 0 {
		if cyc := k.findCycle(roots); cyc != nil {
			return changed, &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
		}
	}
	return changed, nil
}

// Revert undoes the newest outstanding delta, returned by UpdateSwitch or
// UpdateSwitches: the saved tables and successor lists go back, nothing
// is recomputed, the log forgets the delta, and the lists the update
// installed are free for the next one.
func (k *K) Revert(d *Delta) {
	k.undo(d)
	k.log.reverted = d
}

// undo is Revert without the note Reapply reads.
func (k *K) undo(d *Delta) {
	if d.sealed {
		panic("kripke: Revert of a delta a newer committed delta depends on")
	}
	l := k.end(d)
	for j := d.c1 - 1; j >= d.c0; j-- {
		id, cur := l.ids[j], k.Succ(l.ids[j])
		k.setSucc(id, l.oldSucc[j])
		l.release(cur)
	}
	for j := d.t1 - 1; j >= d.t0; j-- {
		k.setTable(l.tables[j].sw, l.tables[j].old)
	}
	l.truncate(d.t0, d.c0)
}

// Commit ends the newest outstanding delta, whose update stays applied:
// the log forgets it, and the lists the update replaced are free for the
// next one. Every delta older than it can then only be committed.
func (k *K) Commit(d *Delta) {
	l := k.end(d)
	l.reverted = nil
	for j := d.c0; j < d.c1; j++ {
		l.release(l.oldSucc[j])
	}
	if l.open > 0 {
		l.deltas[l.open-1].sealed = true
	}
	l.truncate(d.t0, d.c0)
}

// end removes d, which must be the newest outstanding delta, from the
// deltas outstanding.
func (k *K) end(d *Delta) *undoLog {
	l := k.log
	if l == nil || l.open == 0 || l.deltas[l.open-1] != d {
		panic("kripke: a delta ended out of order, twice, or after a rebind")
	}
	l.open--
	return l
}

// Reapply re-installs the delta the last Revert ended, with nothing
// applied, committed, rebound or rebased since, without recomputing the
// forwarding semantics or allocating: the log still holds the delta's
// entries, and the lists the revert freed are taken back. The delta is
// outstanding again. Tests and benchmarks use it to measure
// steady-state checker cycles in isolation.
func (k *K) Reapply(d *Delta) {
	l := k.log
	if l == nil || l.reverted != d {
		panic("kripke: Reapply of a delta other than the one just reverted")
	}
	l.reverted = nil
	l.open++
	l.tables, l.ids = l.tables[:d.t1], l.ids[:d.c1]
	l.oldSucc, l.newSucc = l.oldSucc[:d.c1], l.newSucc[:d.c1]
	for j := d.t0; j < d.t1; j++ {
		k.setTable(l.tables[j].sw, l.tables[j].new)
	}
	// The revert freed the lists last first, so the first is on top.
	for j := d.c0; j < d.c1; j++ {
		list := l.newSucc[j]
		if n := len(l.free); n > 0 && cap(list) > 0 && &l.free[n-1][:1][0] == &list[:1][0] {
			l.free[n-1] = nil
			l.free = l.free[:n-1]
		}
		k.setSucc(l.ids[j], list)
	}
}

// cycleScratch is findCycle's working memory: per-state colour stamps and
// the explicit DFS stack. A state is gray while color == epoch and black
// while color == epoch+1; each search advances epoch by two, so nothing
// is cleared between searches and the cost of one is the states it
// visits. The stack doubles as the parent chain — the gray states are
// exactly the ones on it.
type cycleScratch struct {
	color []int32
	epoch int32
	stack []cycleFrame
}

// cycleFrame is a state and the index of its next successor to explore.
type cycleFrame struct{ v, i int }

// cyclePool lends a scratch to one findCycle call at a time, so
// structures searched concurrently — the classes of concurrently solved
// components, sessions sharing an arena — never see each other's marks,
// and a process holds a few scratches however many structures it serves.
var cyclePool = sync.Pool{New: func() any { return new(cycleScratch) }}

// begin readies the scratch for a search over n states.
func (c *cycleScratch) begin(n int) {
	if len(c.color) < n {
		c.color = make([]int32, n)
		c.epoch = 0
	}
	if c.epoch > math.MaxInt32-4 {
		clear(c.color)
		c.epoch = 0
	}
	c.epoch += 2
}

// findCycle looks for a cycle. With from == nil it scans the whole
// structure in ascending state order, skipping sinks (a state without
// successors is on no cycle); otherwise it only looks for cycles
// reachable from (and hence, for fresh updates, passing through) the
// given states — in that mode the work is proportional to the part of the
// structure actually reachable from the update, which keeps per-update
// costs sublinear (the property the incremental checker depends on). It returns the state ids on the first
// cycle a depth-first search in root and successor order closes — the
// state the closing edge returns to, then the DFS path back to it, latest
// first — or nil.
func (k *K) findCycle(from []int) []int {
	c := cyclePool.Get().(*cycleScratch)
	defer cyclePool.Put(c)
	c.begin(len(k.row))
	if from != nil {
		for _, v := range from {
			if cyc := k.cycleFrom(c, v); cyc != nil {
				return cyc
			}
		}
		return nil
	}
	for v, r := range k.row {
		if len(k.succ[r]) == 0 {
			continue
		}
		if cyc := k.cycleFrom(c, v); cyc != nil {
			return cyc
		}
	}
	return nil
}

// cycleFrom runs the depth-first search from root unless an earlier root
// of the same findCycle call already reached it.
func (k *K) cycleFrom(c *cycleScratch, root int) []int {
	gray, black := c.epoch, c.epoch+1 // every older stamp is below gray
	if c.color[root] >= gray {
		return nil
	}
	c.color[root] = gray
	var cycle []int
	stack := append(c.stack[:0], cycleFrame{v: root})
	for len(stack) > 0 && cycle == nil {
		top := &stack[len(stack)-1]
		succ := k.Succ(top.v)
		if top.i == len(succ) {
			c.color[top.v] = black
			stack = stack[:len(stack)-1]
			continue
		}
		u := succ[top.i]
		top.i++
		switch {
		case c.color[u] == gray:
			// The edge top.v -> u closes a cycle u ... top.v -> u.
			cycle = []int{u}
			for i := len(stack) - 1; stack[i].v != u; i-- {
				cycle = append(cycle, stack[i].v)
			}
		case c.color[u] < gray: // not reached by this search yet
			c.color[u] = gray
			stack = append(stack, cycleFrame{v: u})
		}
	}
	c.stack = stack[:0]
	return cycle
}

// AppendSwitches appends to dst the distinct switches of the given state
// ids in first-appearance order, deduplicating against everything already
// in dst. It is the shared counterexample-switch extraction of the
// synthesis engine (violating traces and forwarding-loop cycles both
// arrive as state ids): it allocates only when dst must grow, so callers
// pool the buffer across the search's failed checks. Counterexamples are
// short, so the dedup is a linear scan rather than a map.
func (k *K) AppendSwitches(dst []int, ids []int) []int {
outer:
	for _, id := range ids {
		sw := k.a.states[id].Sw
		for _, seen := range dst {
			if seen == sw {
				continue outer
			}
		}
		dst = append(dst, sw)
	}
	return dst
}

func (k *K) statesFor(ids []int) []State {
	out := make([]State, len(ids))
	for i, id := range ids {
		out[i] = k.a.states[id]
	}
	return out
}

// NumStates returns the number of states.
func (k *K) NumStates() int { return len(k.a.states) }

// StateAt returns the state with the given id.
func (k *K) StateAt(id int) State { return k.a.states[id] }

// Init returns the initial state ids.
func (k *K) Init() []int { return k.a.init }

// IsInit reports whether state id is an initial state.
func (k *K) IsInit(id int) bool { return k.a.isInit[id] }

// Succ returns the successors of state id; empty means sink (implicit
// self-loop).
func (k *K) Succ(id int) []int { return k.succ[k.row[id]] }

// Pred returns the predecessors of state id.
func (k *K) Pred(id int) []int { return k.pred[k.row[id]] }

// IsSink reports whether state id is a sink (self-loop only).
func (k *K) IsSink(id int) bool { return len(k.succ[k.row[id]]) == 0 }

// Row returns the number of state id's entry in the structure's sparse
// transition storage: 0 for a state that has never had an edge, otherwise
// a number in [1, NumRows()) that stays the state's own for the life of
// the structure. Checkers key per-state data by it, so what they hold is
// proportional to the states the class's rules connect, not to the arena.
func (k *K) Row(id int) int { return int(k.row[id]) }

// NumRows returns one more than the highest row number handed out.
func (k *K) NumRows() int { return len(k.succ) }

// StatesOf returns the arrival-state ids of switch sw.
func (k *K) StatesOf(sw int) []int { return k.a.statesOf(sw) }

// Table returns the table currently installed on sw in this structure:
// the one an update moved it to, else the bound configuration's.
func (k *K) Table(sw int) network.Table {
	if tbl, ok := k.moved[sw]; ok {
		return tbl
	}
	return k.cfg.Table(sw)
}

// Base returns the configuration the structure is bound to and the number
// of switches whose tables it holds over it (none right after a Rebase).
func (k *K) Base() (cfg *config.Config, moved int) { return k.cfg, len(k.moved) }

// HoldsLog reports whether the structure holds an undo log, which it
// does from its first update until a Rebase finds no delta outstanding.
func (k *K) HoldsLog() bool { return k.log != nil }

// setTable records tbl as sw's table over the bound configuration.
func (k *K) setTable(sw int, tbl network.Table) {
	if k.moved == nil {
		k.moved = map[int]network.Table{}
	}
	k.moved[sw] = tbl
}

// Rebase binds the structure to cfg and forgets the tables it has moved,
// at the cost of the switches moved, not of the network. Invariant, the
// caller's to guarantee: at every switch the class is forwarded under
// cfg.Table(sw) exactly as under Table(sw) now — the tables are equal, or
// differ only in rules that cannot match the class packet (priority-set
// semantics: such a rule contributes no output) — so no transition and no
// checker label changes. A session ends its resync this way, which is why
// a diff switch the class cannot see costs the class nothing. cfg must
// not be mutated afterwards (see K). A structure with no delta
// outstanding returns its undo log to the pool here.
func (k *K) Rebase(cfg *config.Config) {
	k.cfg = cfg
	clear(k.moved)
	if l := k.log; l != nil && l.open == 0 {
		k.log = nil
		l.reset()
		logPool.Put(l)
	}
}

// HoldsAt evaluates an atomic proposition at state id: sw=n and pt=n test
// the state's location; header-field propositions test the class packet.
func (k *K) HoldsAt(id int, p ltl.Prop) bool {
	st := k.a.states[id]
	switch p.Field {
	case ltl.FieldSwitch:
		return st.Sw == p.Value
	case ltl.FieldPort:
		return int(st.Pt) == p.Value
	default:
		return k.ClassHolds(p)
	}
}

// ClassHolds evaluates a header-field proposition, which tests the class
// packet and so holds at every state of the structure or at none.
func (k *K) ClassHolds(p ltl.Prop) bool {
	if f, ok := network.FieldByName(p.Field); ok {
		return k.Class.Packet().Field(f) == p.Value
	}
	return false
}

// Env returns an ltl.Env evaluating propositions at state id.
func (k *K) Env(id int) ltl.Env {
	return ltl.EnvFunc(func(p ltl.Prop) bool { return k.HoldsAt(id, p) })
}

// Traces enumerates every trace from the given state as switch/port state
// sequences, up to the first sink (which repeats implicitly). It is
// exponential and intended for tests and counterexample printing on small
// structures; maxTraces bounds the enumeration.
func (k *K) Traces(from int, maxTraces int) [][]int {
	var out [][]int
	var path []int
	var walk func(v int)
	walk = func(v int) {
		if len(out) >= maxTraces {
			return
		}
		path = append(path, v)
		defer func() { path = path[:len(path)-1] }()
		if k.IsSink(v) {
			out = append(out, append([]int(nil), path...))
			return
		}
		for _, u := range k.Succ(v) {
			walk(u)
		}
	}
	walk(from)
	return out
}
