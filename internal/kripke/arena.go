package kripke

import (
	"slices"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Arena is the class-independent part of the Kripke state space: the
// state set, its layout, the initial states, and where each port leads.
// All of it is fixed by the topology alone (Definition 9's state set does
// not mention the configuration or the traffic class) and is immutable
// after NewArena, so one arena can back every class of every tenant that
// shares the topology.
//
// The layout is arithmetic. Switch sw's states are the ids base[sw] to
// base[sw+1]-1: first one arrival state per port, port p's at
// base[sw]+p-1 (ports are numbered densely from 1), then from egress[sw]
// on one egress state per host on sw, in the order the hosts were added.
// A state's id therefore needs no index to find, and next, indexed like
// the arrival states, holds the state a packet sent out of that port
// enters: the egress state of a host-facing port, the peer's arrival
// state of a link port.
type Arena struct {
	topo   *topology.Topology
	states []State
	base   []int32 // per switch, and one past the last state
	egress []int32 // per switch
	next   []int32 // per state; -1 at an egress state
	// ids[i] == i: StatesOf's lists are windows of it.
	ids    []int
	init   []int
	isInit []bool
}

// NewArena lays out the state space of topo once: one arrival state per
// (switch, port), one egress state per host-facing port, initial states
// at the host-adjacent arrivals.
func NewArena(topo *topology.Topology) *Arena {
	n := topo.NumSwitches()
	a := &Arena{topo: topo, base: make([]int32, n+1), egress: make([]int32, n)}
	total := 0
	for sw := 0; sw < n; sw++ {
		a.base[sw] = int32(total)
		total += len(topo.Ports(sw))
		a.egress[sw] = int32(total)
		total += len(topo.HostsOn(sw))
	}
	a.base[n] = int32(total)
	a.states = make([]State, total)
	a.next = make([]int32, total)
	a.ids = make([]int, total)
	for sw := 0; sw < n; sw++ {
		b, e := a.base[sw], a.egress[sw]
		for _, pt := range topo.Ports(sw) {
			a.states[b+int32(pt)-1] = State{Kind: Arrival, Sw: sw, Pt: pt}
		}
		for _, l := range topo.Neighbors(sw) {
			a.next[b+int32(l.LocalPort)-1] = a.base[l.Peer] + int32(l.PeerPort) - 1
		}
		for j, h := range topo.HostsOn(sw) {
			id := e + int32(j)
			a.states[id] = State{Kind: Egress, Sw: sw, Pt: h.Port}
			a.next[id] = -1
			a.next[b+int32(h.Port)-1] = id
		}
	}
	for i := range a.ids {
		a.ids[i] = i
	}
	a.isInit = make([]bool, total)
	a.init = make([]int, 0, len(topo.Hosts()))
	for _, h := range topo.Hosts() {
		id := int(a.base[h.Switch]) + int(h.Port) - 1
		a.init = append(a.init, id)
		a.isInit[id] = true
	}
	return a
}

// Topology returns the topology the arena was built over.
func (a *Arena) Topology() *topology.Topology { return a.topo }

// NumStates returns the size of the shared state set.
func (a *Arena) NumStates() int { return len(a.states) }

// statesOf returns the arrival-state ids of switch sw, by port; none for
// a switch the topology lacks.
func (a *Arena) statesOf(sw int) []int {
	if sw < 0 || sw >= len(a.egress) {
		return nil
	}
	b, e := a.base[sw], a.egress[sw]
	return a.ids[b:e:e]
}

// successor returns the state a packet switch sw sends out of port p
// enters; ok is false for a port sw does not have, whose packets are lost.
// sw must be a switch of the topology. The range check is made in int: a
// port read from an image may be any int, and narrowing it first would
// wrap it onto some other port.
func (a *Arena) successor(sw int, p topology.Port) (id int, ok bool) {
	b := int(a.base[sw])
	if p < 1 || int(p) > int(a.egress[sw])-b {
		return 0, false
	}
	return int(a.next[b+int(p)-1]), true
}

// newK returns a class structure over the arena bound to cfg, every state
// still isolated, sharing entry 0, with room for the few dozen entries a
// class's rules typically connect. The index word per arena state is all
// it allocates that is sized by the network.
func (a *Arena) newK(cfg *config.Config, cl config.Class) *K {
	return &K{
		Class: cl,
		Topo:  a.topo,
		a:     a,
		row:   make([]int32, len(a.states)),
		succ:  make([][]int, 1, 32),
		pred:  make([][]int, 1, 32),
		cfg:   cfg,
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
