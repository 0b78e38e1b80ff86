package kripke

// The transition storage of K as it was before it went sparse (commit
// 4c8eb4a), kept verbatim — only the type names changed, and Clone went
// when K's did — as the oracle of TestSparseStorageMatchesDense: successor and predecessor lists
// indexed by state id over the whole arena, predecessors derived lazily,
// tables applied on every switch at build. It shares the arena's state
// list, removeOne and the pooled cycle-search scratch with K, none of which
// the sparse storage changed; intsEqual moved here when K stopped using it.
// The state index and the per-switch arrival lists the arena no longer
// keeps are built here, from the state list, and successors are found the
// way they were then: through the topology's port lookups and the index,
// not the arena's port table.

import (
	"fmt"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

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

// K is the Kripke structure of one traffic class under a mutable
// configuration. States never change; UpdateSwitch changes only the
// outgoing transitions of the updated switch's arrival states.
type denseK struct {
	Class config.Class
	Topo  *topology.Topology

	states []State
	index  map[State]int
	init   []int
	// succ[i] lists successors of state i. nil means sink (implicit
	// self-loop), matching the complete DAG-like structures of Section 5.
	succ [][]int
	pred [][]int
	// statesOf[sw] lists the arrival-state ids of switch sw.
	statesOf map[int][]int
	// tables holds the current forwarding table of each switch, indexed
	// by the dense switch id.
	tables []network.Table
	// outBuf is recomputeSwitch's reusable table-application buffer;
	// private per structure (clones start fresh).
	outBuf []network.PortPacket
	// oldBuf is UpdateSwitch's reusable pre-update successor snapshot;
	// only genuinely changed entries graduate into the returned Delta.
	oldBuf [][]int
	// rootBuf is Rebind's reusable cycle-check root buffer.
	rootBuf []int
}

// ensurePred materializes the predecessor lists from the successor lists
// on first use. A structure made from recorded successor lists starts without them:
// they are read only by the incremental checker's ancestor walk and by
// setSucc's rewiring, so a session resumed just to serve cache hits (or
// snapshotted again untouched) never pays for the derivation. Every pred
// list is carved out of one flat backing array with a capped subslice, so
// a later rewiring append reallocates that state's list instead of
// clobbering its neighbor; filling in ascending state-id order reproduces
// Build's insertion order exactly, so a lazily derived structure is
// indistinguishable from a freshly built one.
func (k *denseK) ensurePred() {
	if k.pred != nil {
		return
	}
	n := len(k.states)
	deg := make([]int, n)
	total := 0
	for _, next := range k.succ {
		for _, t := range next {
			deg[t]++
		}
		total += len(next)
	}
	k.pred = make([][]int, n)
	flat := make([]int, 0, total)
	off := 0
	for t := 0; t < n; t++ {
		k.pred[t] = flat[off : off : off+deg[t]]
		off += deg[t]
	}
	for id, next := range k.succ {
		for _, t := range next {
			k.pred[t] = append(k.pred[t], id)
		}
	}
}

// recomputeSwitch rewires the outgoing transitions of sw's arrival states
// from its current table, updating predecessor lists. It returns an error
// if a rule would modify the class packet (packet modification is outside
// the checked fragment, per Section 3.3).
func (k *denseK) recomputeSwitch(sw int) error {
	pkt := k.Class.Packet()
	tbl := k.tables[sw]
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
func (k *denseK) setSucc(id int, next []int) {
	k.ensurePred()
	for _, t := range k.succ[id] {
		k.pred[t] = removeOne(k.pred[t], id)
	}
	k.succ[id] = next
	for _, t := range next {
		k.pred[t] = append(k.pred[t], id)
	}
}

// Delta describes an applied update: the states whose outgoing transitions
// changed, with enough information to revert and to re-apply. The state
// ids and the old/new successor lists are parallel slices, so consumers
// iterate the changed region without allocating and in a deterministic
// order (the switch's arrival-state order). Only states whose successor
// list genuinely changed are recorded: a table replacement that leaves the
// class's forwarding intact yields an empty delta, which checkers and the
// synthesis engine use as a skip-this-class fast path.
type denseDelta struct {
	Switch   int
	oldTable network.Table
	newTable network.Table
	ids      []int   // ids of states whose successors changed
	oldSucc  [][]int // successor lists before the update
	newSucc  [][]int // successor lists after the update (nil on error paths)
}

// Changed returns the ids of states whose transition function changed.
// The slice is shared and must not be mutated.
func (d *denseDelta) Changed() []int { return d.ids }

// UpdateSwitch installs tbl on sw, rewiring transitions. It returns the
// delta for incremental re-checking and reverting. If the new structure
// contains a cycle (forwarding loop), the update is applied and an
// *ErrLoop is returned alongside the delta: callers treat the
// configuration as wrong, learn from the cycle, and revert.
func (k *denseK) UpdateSwitch(sw int, tbl network.Table) (*denseDelta, error) {
	ids := k.statesOf[sw]
	d := &denseDelta{Switch: sw, oldTable: k.tables[sw], newTable: tbl}
	// Snapshot the pre-update successor lists into reusable scratch.
	// Successor slices are replaced wholesale and never mutated in place,
	// so holding the old headers is safe; only the headers of genuinely
	// changed states graduate into the delta below.
	old := k.oldBuf[:0]
	for _, id := range ids {
		old = append(old, k.succ[id])
	}
	k.oldBuf = old
	k.tables[sw] = tbl
	if err := k.recomputeSwitch(sw); err != nil {
		// Restore and fail; modification errors are programming errors.
		k.tables[sw] = d.oldTable
		for i, id := range ids {
			k.setSucc(id, old[i])
		}
		return nil, err
	}
	for i, id := range ids {
		if intsEqual(old[i], k.succ[id]) {
			continue
		}
		d.ids = append(d.ids, id)
		d.oldSucc = append(d.oldSucc, old[i])
		d.newSucc = append(d.newSucc, k.succ[id])
	}
	// A new cycle must pass through a rewired state; an empty delta cannot
	// have introduced one.
	if len(d.ids) > 0 {
		if cyc := k.findCycle(d.ids); cyc != nil {
			return d, &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
		}
	}
	return d, nil
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
// consistent for a later Rebind) and *ErrLoop is returned. Outstanding
// Deltas, undo tokens, and clones taken before a Rebind must not be
// replayed afterwards.
func (k *denseK) Rebind(cfg *config.Config) (changed, touched []int, err error) {
	return k.rebind(cfg, nil, true)
}

// RebindSwitches is Rebind restricted to the given candidate switches:
// only their tables are compared and recomputed (an empty list — nil or
// not — rebinds nothing). The caller must guarantee that every switch
// outside the candidate list already has cfg's table installed in this
// structure — sessions know exactly which switches a synthesis run (or a
// target diff) could have touched, and skipping the full O(switches)
// equality sweep per class is what keeps per-synthesis resync cost
// proportional to the diff, not the network.
func (k *denseK) RebindSwitches(cfg *config.Config, switches []int) (changed []int, err error) {
	changed, _, err = k.rebind(cfg, switches, false)
	return changed, err
}

// rebind implements Rebind over either every switch (sweepAll) or the
// listed candidates; the explicit flag keeps a nil candidate slice from
// silently meaning "sweep everything".
func (k *denseK) rebind(cfg *config.Config, candidates []int, sweepAll bool) (changed, touched []int, err error) {
	roots := k.rootBuf[:0]
	sweep := func(sw int) error {
		tbl := cfg.Table(sw)
		if k.tables[sw].Equal(tbl) {
			return nil
		}
		touched = append(touched, sw)
		ids := k.statesOf[sw]
		old := k.oldBuf[:0]
		for _, id := range ids {
			old = append(old, k.succ[id])
		}
		k.oldBuf = old
		k.tables[sw] = tbl
		if rerr := k.recomputeSwitch(sw); rerr != nil {
			return rerr
		}
		for i, id := range ids {
			if !intsEqual(old[i], k.succ[id]) {
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
	if len(roots) > 0 {
		if cyc := k.findCycle(roots); cyc != nil {
			return changed, touched, &ErrLoop{Class: k.Class, Cycle: k.statesFor(cyc), IDs: cyc}
		}
	}
	return changed, touched, nil
}

// AdoptTable installs tbl as sw's table without recomputing transitions.
// The caller must guarantee the class's forwarding behavior at sw is
// identical under the old and the new table — e.g. no rule added or
// removed by the change matches the class packet (table application is
// priority-set semantics, so such a change cannot alter any output) —
// which leaves the transition relation, and every checker labeling over
// it, untouched and valid. Sessions use this to resync foreign switches
// of a diff in O(1) per switch instead of paying a full recompute for
// every class the change cannot affect.
func (k *denseK) AdoptTable(sw int, tbl network.Table) { k.tables[sw] = tbl }

// Revert undoes an update returned by UpdateSwitch.
func (k *denseK) Revert(d *denseDelta) {
	k.tables[d.Switch] = d.oldTable
	for i, id := range d.ids {
		k.setSucc(id, d.oldSucc[i])
	}
}

// Reapply re-installs a previously applied-and-reverted delta without
// recomputing the forwarding semantics or allocating: the recorded
// successor lists are swapped back in wholesale. The delta must have been
// produced by UpdateSwitch on this structure (or a clone at the same
// table state) and the structure must currently be at the delta's
// pre-update state. Benchmarks use it to measure steady-state checker
// cycles in isolation.
func (k *denseK) Reapply(d *denseDelta) {
	k.tables[d.Switch] = d.newTable
	for i, id := range d.ids {
		k.setSucc(id, d.newSucc[i])
	}
}

// findCycle looks for a cycle. With from == nil it scans the whole
// structure, skipping sinks (a state without successors is on no cycle);
// otherwise it only looks for cycles reachable from (and hence, for fresh
// updates, passing through) the given states — in that mode the work is
// proportional to the part of the structure actually reachable from the
// update, which keeps per-update costs sublinear (the property the
// incremental checker depends on). It returns the state ids on the first
// cycle a depth-first search in root and successor order closes — the
// state the closing edge returns to, then the DFS path back to it, latest
// first — or nil.
func (k *denseK) findCycle(from []int) []int {
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
	for v := range k.states {
		if len(k.succ[v]) == 0 {
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
func (k *denseK) cycleFrom(c *cycleScratch, root int) []int {
	gray, black := c.epoch, c.epoch+1 // every older stamp is below gray
	if c.color[root] >= gray {
		return nil
	}
	c.color[root] = gray
	var cycle []int
	stack := append(c.stack[:0], cycleFrame{v: root})
	for len(stack) > 0 && cycle == nil {
		top := &stack[len(stack)-1]
		succ := k.succ[top.v]
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

func (k *denseK) statesFor(ids []int) []State {
	out := make([]State, len(ids))
	for i, id := range ids {
		out[i] = k.states[id]
	}
	return out
}

// Succ returns the successors of state id; empty means sink (implicit
// self-loop).
func (k *denseK) Succ(id int) []int { return k.succ[id] }

// Pred returns the predecessors of state id, deriving the lists from the
// successor lists on first use after a restore (see ensurePred).
func (k *denseK) Pred(id int) []int {
	if k.pred == nil {
		k.ensurePred()
	}
	return k.pred[id]
}

// IsSink reports whether state id is a sink (self-loop only).
func (k *denseK) IsSink(id int) bool { return len(k.succ[id]) == 0 }

// newK returns a class structure sharing the arena's immutable parts.
// The transition arrays are left nil: Build sizes empty ones to fill by
// table application, Restore adopts decoded ones wholesale.
func (a *Arena) newDenseK(cl config.Class) *denseK {
	index := make(map[State]int, len(a.states))
	statesOf := make(map[int][]int, a.topo.NumSwitches())
	for id, s := range a.states {
		index[s] = id
		if s.Kind == Arrival {
			statesOf[s.Sw] = append(statesOf[s.Sw], id)
		}
	}
	return &denseK{
		Class:    cl,
		Topo:     a.topo,
		states:   a.states,
		index:    index,
		init:     a.init,
		statesOf: statesOf,
		tables:   make([]network.Table, a.topo.NumSwitches()),
	}
}

// Build constructs the Kripke structure of class cl under cfg over the
// shared state space. It returns *ErrLoop if the configuration forwards
// the class in a cycle.
func (a *Arena) buildDense(cfg *config.Config, cl config.Class) (*denseK, error) {
	k := a.newDenseK(cl)
	n := len(a.states)
	k.succ = make([][]int, n)
	k.pred = make([][]int, n)
	for sw := 0; sw < a.topo.NumSwitches(); sw++ {
		k.tables[sw] = cfg.Table(sw)
		if err := k.recomputeSwitch(sw); err != nil {
			return nil, err
		}
	}
	if cyc := k.findCycle(nil); cyc != nil {
		return nil, &ErrLoop{Class: cl, Cycle: k.statesFor(cyc), IDs: cyc}
	}
	return k, nil
}
