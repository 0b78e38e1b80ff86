package kripke

import (
	"slices"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Arena is the class-independent part of the Kripke state space: the
// state set, its index, the initial states, and the per-switch arrival
// groups. All of it is fixed by the topology alone (Definition 9's state
// set does not mention the configuration or the traffic class) and is
// immutable after NewArena, so one arena can back every class of every
// tenant that shares the topology.
type Arena struct {
	topo     *topology.Topology
	states   []State
	index    map[State]int
	init     []int
	isInit   []bool
	statesOf map[int][]int
}

// NewArena enumerates the state space of topo once: one arrival state
// per (switch, port), one egress state per host-facing port, initial
// states at the host-adjacent arrivals.
func NewArena(topo *topology.Topology) *Arena {
	est := 0
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		est += len(topo.Ports(sw)) + len(topo.HostsOn(sw))
	}
	a := &Arena{
		topo:     topo,
		states:   make([]State, 0, est),
		index:    make(map[State]int, est),
		statesOf: make(map[int][]int, topo.NumSwitches()),
	}
	addState := func(s State) int {
		if id, ok := a.index[s]; ok {
			return id
		}
		id := len(a.states)
		a.states = append(a.states, s)
		a.index[s] = id
		if s.Kind == Arrival {
			a.statesOf[s.Sw] = append(a.statesOf[s.Sw], id)
		}
		return id
	}
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		a.statesOf[sw] = make([]int, 0, len(topo.Ports(sw)))
		for _, pt := range topo.Ports(sw) {
			addState(State{Kind: Arrival, Sw: sw, Pt: pt})
		}
		for _, h := range topo.HostsOn(sw) {
			addState(State{Kind: Egress, Sw: sw, Pt: h.Port})
		}
	}
	a.isInit = make([]bool, len(a.states))
	for _, h := range topo.Hosts() {
		id := a.index[State{Kind: Arrival, Sw: h.Switch, Pt: h.Port}]
		a.init = append(a.init, id)
		a.isInit[id] = true
	}
	return a
}

// Topology returns the topology the arena was built over.
func (a *Arena) Topology() *topology.Topology { return a.topo }

// NumStates returns the size of the shared state set.
func (a *Arena) NumStates() int { return len(a.states) }

// newK returns a class structure sharing the arena's immutable parts and
// bound to cfg, every state still isolated, sharing entry 0, with room for
// the few dozen entries a class's rules typically connect. The index word
// per arena state is all it allocates that is sized by the network.
func (a *Arena) newK(cfg *config.Config, cl config.Class) *K {
	return &K{
		Class:    cl,
		Topo:     a.topo,
		states:   a.states,
		index:    a.index,
		init:     a.init,
		isInit:   a.isInit,
		statesOf: a.statesOf,
		row:      make([]int32, len(a.states)),
		succ:     make([][]int, 1, 32),
		pred:     make([][]int, 1, 32),
		cfg:      cfg,
	}
}

// Build constructs the Kripke structure of class cl under cfg over the
// shared state space. It returns *ErrLoop if the configuration forwards
// the class in a cycle. The structure stays bound to cfg (see K).
func (a *Arena) Build(cfg *config.Config, cl config.Class) (*K, error) {
	return a.BuildOn(cfg, cfg.Switches(), cl)
}

// BuildOn is Build for a caller that builds many classes under one
// configuration and takes cfg.Switches() — ascending — once for all of
// them. Tables are applied on those switches only, and of those only
// where some rule matches the class packet: any other switch forwards
// nothing of the class, so its arrival states stay isolated.
func (a *Arena) BuildOn(cfg *config.Config, switches []int, cl config.Class) (*K, error) {
	k := a.newK(cfg, cl)
	pkt := cl.Packet()
	for _, sw := range switches {
		if sw < 0 || sw >= a.topo.NumSwitches() {
			continue // a table for a switch the topology lacks forwards nothing
		}
		tbl := cfg.Table(sw)
		if !slices.ContainsFunc(tbl, func(r network.Rule) bool { return r.Match.Matches(pkt, r.Match.InPort) }) {
			continue
		}
		if _, err := k.recomputeSwitch(sw, tbl); err != nil {
			return nil, err
		}
	}
	if cyc := k.findCycle(nil); cyc != nil {
		return nil, &ErrLoop{Class: cl, Cycle: k.statesFor(cyc), IDs: cyc}
	}
	return k, nil
}
