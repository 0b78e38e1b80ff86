// Package kripke builds the network Kripke structures of Section 3.3
// (Definition 9): for one traffic class, states are switch-port locations
// the class packet can occupy, transitions follow the forwarding tables,
// and sinks (egress and drop states) carry implicit self-loops. The state
// set is fixed by the topology — only the transition relation changes when
// a switch is updated — which is exactly the update model (K, K', U) that
// the incremental model checker of Section 5 requires.
package kripke

import (
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

	states []State
	index  map[State]int
	init   []int
	isInit []bool
	// statesOf[sw] lists the arrival-state ids of switch sw.
	statesOf map[int][]int

	row []int32
	// succ[row[i]] lists successors of state i. Empty means sink (implicit
	// self-loop), matching the complete DAG-like structures of Section 5.
	succ [][]int
	pred [][]int
	// cfg is the bound configuration and moved the tables installed over
	// it since the last Rebase; see Table.
	cfg   *config.Config
	moved map[int]network.Table
	// outBuf is recomputeSwitch's reusable table-application buffer;
	// private per structure.
	outBuf []network.PortPacket
	// oldBuf is UpdateSwitch's reusable pre-update successor snapshot;
	// only genuinely changed entries graduate into the returned Delta.
	oldBuf [][]int
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

// recomputeSwitch rewires the outgoing transitions of sw's arrival states
// from tbl, updating predecessor lists. It returns an error if a rule
// would modify the class packet (packet modification is outside the
// checked fragment, per Section 3.3).
func (k *K) recomputeSwitch(sw int, tbl network.Table) error {
	pkt := k.Class.Packet()
	for _, id := range k.statesOf[sw] {
		st := k.states[id]
		var next []int
		outs := tbl.AppendApply(k.outBuf[:0], pkt, st.Pt)
		k.outBuf = outs[:0]
		for _, o := range outs {
			if o.Pkt != pkt {
				return fmt.Errorf("kripke: class %v: rule on sw%d modifies packet headers", k.Class, sw)
			}
			if h, ok := k.Topo.HostAtPort(sw, o.Port); ok {
				// Egress: any host-facing output port delivers; only the
				// class destination is "correct", but the structure must
				// reflect actual behavior either way.
				_ = h
				next = append(next, k.index[State{Kind: Egress, Sw: sw, Pt: o.Port}])
				continue
			}
			if l, ok := k.Topo.LinkAt(sw, o.Port); ok {
				next = append(next, k.index[State{Kind: Arrival, Sw: l.Peer, Pt: l.PeerPort}])
				continue
			}
			// Dangling port: the packet is lost; treat as drop (no edge).
		}
		k.setSucc(id, next)
	}
	return nil
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

// Delta describes an applied update: the switches whose tables it
// replaced and the states whose outgoing transitions changed, with enough
// information to revert and to re-apply. The state ids and the old/new
// successor lists are parallel slices, so consumers iterate the changed
// region without allocating and in a deterministic order (per switch, the
// switch's arrival-state order). Only states whose successor list
// genuinely changed are recorded: a table replacement that leaves the
// class's forwarding intact yields an empty delta, which checkers and the
// synthesis engine use as a skip-this-class fast path.
type Delta struct {
	tables  []tableSwap
	one     [1]tableSwap // backs tables for a one-switch update
	ids     []int        // ids of states whose successors changed
	oldSucc [][]int      // successor lists before the update
	newSucc [][]int      // successor lists after the update
}

// tableSwap is one switch's table before and after an update.
type tableSwap struct {
	sw       int
	old, new network.Table
}

// Changed returns the ids of states whose transition function changed.
// The slice is shared and must not be mutated.
func (d *Delta) Changed() []int { return d.ids }

// NumSwitches returns the number of switches whose tables the update
// replaced, and SwitchAt the i-th of them, in the order they were given.
func (d *Delta) NumSwitches() int   { return len(d.tables) }
func (d *Delta) SwitchAt(i int) int { return d.tables[i].sw }

// UpdateSwitch installs tbl on sw, rewiring transitions. It returns the
// delta for incremental re-checking and reverting. If the new structure
// contains a cycle (forwarding loop), the update is applied and an
// *ErrLoop is returned alongside the delta: callers treat the
// configuration as wrong, learn from the cycle, and revert.
func (k *K) UpdateSwitch(sw int, tbl network.Table) (*Delta, error) {
	d := &Delta{}
	d.tables = d.one[:0]
	if err := k.install(d, sw, tbl); err != nil {
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
	d := &Delta{tables: make([]tableSwap, 0, len(switches))}
	for _, sw := range switches {
		if err := k.install(d, sw, cfg.Table(sw)); err != nil {
			k.Revert(d)
			return nil, err
		}
	}
	return d, k.loopThrough(d)
}

// install replaces sw's table by tbl, rewires its arrival states and
// appends the replacement and the states that changed to d. A rule that
// modifies the class packet (a programming error, see recomputeSwitch)
// leaves the switch as it was and d without it.
func (k *K) install(d *Delta, sw int, tbl network.Table) error {
	ids := k.statesOf[sw]
	// Snapshot the pre-update successor lists into reusable scratch.
	// Successor slices are replaced wholesale and never mutated in place,
	// so holding the old headers is safe; only the headers of genuinely
	// changed states graduate into the delta below.
	old := k.oldBuf[:0]
	for _, id := range ids {
		old = append(old, k.Succ(id))
	}
	k.oldBuf = old
	oldTable := k.Table(sw)
	if err := k.recomputeSwitch(sw, tbl); err != nil {
		for i, id := range ids {
			k.setSucc(id, old[i])
		}
		return err
	}
	k.setTable(sw, tbl)
	d.tables = append(d.tables, tableSwap{sw: sw, old: oldTable, new: tbl})
	// Count first, so the delta's lists grow once by what they will hold
	// (a one-switch delta allocates each exactly) instead of by doubling.
	changed := 0
	for i, id := range ids {
		if !intsEqual(old[i], k.Succ(id)) {
			changed++
		}
	}
	if changed == 0 {
		return nil
	}
	d.ids = slices.Grow(d.ids, changed)
	d.oldSucc = slices.Grow(d.oldSucc, changed)
	d.newSucc = slices.Grow(d.newSucc, changed)
	for i, id := range ids {
		if next := k.Succ(id); !intsEqual(old[i], next) {
			d.ids = append(d.ids, id)
			d.oldSucc = append(d.oldSucc, old[i])
			d.newSucc = append(d.newSucc, next)
		}
	}
	return nil
}

// loopThrough reports a cycle the applied delta closed, as an *ErrLoop. A
// new cycle must pass through a rewired state; an empty delta cannot have
// introduced one.
func (k *K) loopThrough(d *Delta) error {
	if len(d.ids) == 0 {
		return nil
	}
	if cyc := k.findCycle(d.ids); cyc != nil {
		return &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
	}
	return nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Rebind rewires the structure in place so it reflects cfg, recomputing
// only the switches whose installed tables differ — the state space,
// index, and initial states are fixed by the topology and survive
// untouched, which is what lets a long-lived session reuse one arena
// across a whole stream of syntheses. changed lists the switches whose
// transition function for this class actually changed, so the session
// skips refreshing the checker entirely when the class is unaffected (a
// checker's verdict depends on the class structure alone, see
// mc.Checker); touched lists every switch whose table was replaced, a
// superset. If cfg forwards the class in a
// cycle, the structure has still been fully rebound to cfg (tables stay
// consistent for a later Rebind) and *ErrLoop is returned. Either way the
// structure ends bound to cfg (see K on mutating it). Outstanding Deltas
// and undo tokens taken before a Rebind must not be replayed afterwards.
func (k *K) Rebind(cfg *config.Config) (changed, touched []int, err error) {
	return k.rebind(cfg, nil, true)
}

// RebindSwitches is Rebind restricted to the given candidate switches:
// only their tables are compared and recomputed (an empty list — nil or
// not — rebinds nothing). The caller must guarantee that every switch
// outside the candidate list already forwards the class in this structure
// as cfg's table does — sessions know exactly which switches a synthesis
// run (or a target diff) could have touched, and skipping the full
// O(switches) equality sweep per class is what keeps per-synthesis resync
// cost proportional to the diff, not the network. The structure stays
// bound where it was; a caller done resyncing follows up with Rebase.
func (k *K) RebindSwitches(cfg *config.Config, switches []int) (changed, touched []int, err error) {
	return k.rebind(cfg, switches, false)
}

// rebind implements Rebind over either every switch (sweepAll) or the
// listed candidates; the explicit flag keeps a nil candidate slice from
// silently meaning "sweep everything".
func (k *K) rebind(cfg *config.Config, candidates []int, sweepAll bool) (changed, touched []int, err error) {
	roots := k.rootBuf[:0]
	sweep := func(sw int) error {
		tbl := cfg.Table(sw)
		if k.Table(sw).Equal(tbl) {
			return nil
		}
		touched = append(touched, sw)
		ids := k.statesOf[sw]
		old := k.oldBuf[:0]
		for _, id := range ids {
			old = append(old, k.Succ(id))
		}
		k.oldBuf = old
		k.setTable(sw, tbl)
		if rerr := k.recomputeSwitch(sw, tbl); rerr != nil {
			return rerr
		}
		for i, id := range ids {
			if !intsEqual(old[i], k.Succ(id)) {
				changed = append(changed, sw)
				roots = append(roots, ids...)
				break
			}
		}
		return nil
	}
	if sweepAll {
		for sw := 0; sw < k.Topo.NumSwitches(); sw++ {
			if rerr := sweep(sw); rerr != nil {
				k.rootBuf = roots[:0]
				return changed, touched, rerr
			}
		}
	} else {
		for _, sw := range candidates {
			if rerr := sweep(sw); rerr != nil {
				k.rootBuf = roots[:0]
				return changed, touched, rerr
			}
		}
	}
	k.rootBuf = roots[:0]
	if sweepAll {
		k.Rebase(cfg) // every switch was compared: the tables are cfg's
	}
	if len(roots) > 0 {
		if cyc := k.findCycle(roots); cyc != nil {
			return changed, touched, &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
		}
	}
	return changed, touched, nil
}

// Revert undoes an update returned by UpdateSwitch or UpdateSwitches: the
// saved tables and successor lists go back, nothing is recomputed.
func (k *K) Revert(d *Delta) {
	for _, t := range d.tables {
		k.setTable(t.sw, t.old)
	}
	for i, id := range d.ids {
		k.setSucc(id, d.oldSucc[i])
	}
}

// Reapply re-installs a previously applied-and-reverted delta without
// recomputing the forwarding semantics or allocating: the recorded
// successor lists are swapped back in wholesale. The delta must have been
// produced by this structure, which must currently be at the delta's
// pre-update state. Benchmarks use it to measure steady-state checker
// cycles in isolation.
func (k *K) Reapply(d *Delta) {
	for _, t := range d.tables {
		k.setTable(t.sw, t.new)
	}
	for i, id := range d.ids {
		k.setSucc(id, d.newSucc[i])
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
	c.begin(len(k.states))
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
		sw := k.states[id].Sw
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
		out[i] = k.states[id]
	}
	return out
}

// NumStates returns the number of states.
func (k *K) NumStates() int { return len(k.states) }

// StateAt returns the state with the given id.
func (k *K) StateAt(id int) State { return k.states[id] }

// Init returns the initial state ids.
func (k *K) Init() []int { return k.init }

// IsInit reports whether state id is an initial state.
func (k *K) IsInit(id int) bool { return k.isInit[id] }

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
func (k *K) StatesOf(sw int) []int { return k.statesOf[sw] }

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
// not be mutated afterwards (see K).
func (k *K) Rebase(cfg *config.Config) {
	k.cfg = cfg
	clear(k.moved)
}

// HoldsAt evaluates an atomic proposition at state id: sw=n and pt=n test
// the state's location; header-field propositions test the class packet.
func (k *K) HoldsAt(id int, p ltl.Prop) bool {
	st := k.states[id]
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
