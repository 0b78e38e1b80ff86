package kripke

import (
	"fmt"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// refArena is the state space as NewArena enumerated it before the layout
// became arithmetic: states added one by one and found again through a
// State -> id map, arrival lists kept per switch in a map. The body of
// newRefArena is that NewArena's, kept as the oracle of
// TestArenaLayoutMatchesEnumeration.
type refArena struct {
	states   []State
	index    map[State]int
	init     []int
	isInit   []bool
	statesOf map[int][]int
}

func newRefArena(topo *topology.Topology) *refArena {
	est := 0
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		est += len(topo.Ports(sw)) + len(topo.HostsOn(sw))
	}
	a := &refArena{
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

// successor is where a packet sw sends out of port p went before the port
// table: a host on the port means its egress state, a link the peer's
// arrival state, both found by scanning the switch's hosts and links and
// resolved through the index; anything else is no edge.
func (a *refArena) successor(topo *topology.Topology, sw int, p topology.Port) (int, bool) {
	for _, h := range topo.HostsOn(sw) {
		if h.Port == p {
			return a.index[State{Kind: Egress, Sw: sw, Pt: p}], true
		}
	}
	for _, l := range topo.Neighbors(sw) {
		if l.LocalPort == p {
			return a.index[State{Kind: Arrival, Sw: l.Peer, Pt: l.PeerPort}], true
		}
	}
	return 0, false
}

// handBuilt is a topology the generators never make: hosts added between
// links, so a switch's host ports sit among its link ports; two switches
// joined twice; and a switch with no port at all.
func handBuilt() *topology.Topology {
	topo := topology.New("hand", 6)
	topo.AddLink(0, 1)
	topo.AddHost(100, 0)
	topo.AddLink(0, 2)
	topo.AddLink(1, 2)
	topo.AddHost(101, 2)
	topo.AddLink(1, 2) // parallel to the one before
	topo.AddHost(102, 1)
	topo.AddLink(2, 3)
	topo.AddHost(103, 2)
	topo.AddLink(3, 5)
	topo.AddHost(104, 5)
	topo.AddHost(105, 5)
	// Switch 4 has no port.
	return topo
}

// TestArenaLayoutMatchesEnumeration: on generated topologies and on one
// built by hand, the arena's arithmetic layout gives every state the id the
// map-based enumeration gave it, the same initial states and per-switch
// arrival lists, and every port — and ports just outside a switch's range
// or beyond 32 bits — the successor state the topology scan finds. A
// structure whose every switch forwards out of each of those ports gets
// exactly those edges: none for port 0, a negative port or a port past the
// last.
func TestArenaLayoutMatchesEnumeration(t *testing.T) {
	fat, _ := topology.FatTree(4)
	sw := topology.SmallWorld(60, 6, 0.3, 5)
	sw.AddHost(9000, 7) // a second host on one switch
	topos := []*topology.Topology{fat, sw, topology.ZooLike(40), topology.WAN("wan", 25, 3), handBuilt()}
	for _, topo := range topos {
		name := fmt.Sprintf("%s/%d", topo.Name, topo.NumSwitches())
		a, ref := NewArena(topo), newRefArena(topo)
		if a.NumStates() != len(ref.states) {
			t.Fatalf("%s: %d states, the enumeration has %d", name, a.NumStates(), len(ref.states))
		}
		for id, s := range a.states {
			if ref.index[s] != id {
				t.Fatalf("%s: %v has id %d, the enumeration gave it %d", name, s, id, ref.index[s])
			}
		}
		if !slices.Equal(a.init, ref.init) || !slices.Equal(a.isInit, ref.isInit) {
			t.Fatalf("%s: init %v, the enumeration has %v", name, a.init, ref.init)
		}

		cl := config.Class{SrcHost: topo.Hosts()[0].ID, DstHost: topo.Hosts()[1].ID}
		cfg := config.New()
		k := a.newK(cfg, cl)
		if k.Init()[0] != ref.init[0] || !k.IsInit(ref.init[0]) {
			t.Fatalf("%s: the structure's initial states are not the arena's", name)
		}
		for sw := 0; sw < topo.NumSwitches(); sw++ {
			if got, want := k.StatesOf(sw), ref.statesOf[sw]; !slices.Equal(got, want) {
				t.Fatalf("%s: StatesOf(%d) = %v, the enumeration has %v", name, sw, got, want)
			}
			n := topology.Port(len(topo.Ports(sw)))
			var acts []network.Action
			var want []int
			// Past the range too: ports that an int32 narrowing would turn
			// negative or wrap onto port 1 must lead nowhere.
			ports := []topology.Port{-1, 1 << 31, 1<<32 + 1}
			for p := topology.Port(0); p <= n+2; p++ {
				ports = append(ports, p)
			}
			for _, p := range ports {
				got, ok := a.successor(sw, p)
				refID, refOK := ref.successor(topo, sw, p)
				if ok != refOK || ok && got != refID {
					t.Fatalf("%s: sw%d port %d leads to %d (%v), the scan finds %d (%v)", name, sw, p, got, ok, refID, refOK)
				}
				acts = append(acts, network.Forward(p))
				if refOK {
					want = append(want, refID)
				}
			}
			tbl := network.Table{{Priority: 1, Match: network.AnyPacket(), Actions: acts}}
			if _, err := k.recomputeSwitch(sw, tbl); err != nil {
				t.Fatal(err)
			}
			for _, id := range k.StatesOf(sw) {
				if !slices.Equal(k.Succ(id), want) {
					t.Fatalf("%s: arrival %v forwarding out of ports %v has successors %v, want %v", name, k.StateAt(id), ports, k.Succ(id), want)
				}
			}
		}
		if got := k.StatesOf(topo.NumSwitches()); got != nil {
			t.Fatalf("%s: StatesOf a switch the topology lacks = %v", name, got)
		}
	}
}

// BenchmarkNewArena lays out the state space of the largest
// serve-large-mixed topology: an 800-switch degree-6 small world with a
// host per switch. CI gates allocs/op and B/op
// (.github/alloc-budgets.txt): the arena is a few arrays as long as the
// state set, where an id map and a list per switch cost twice the bytes
// and an allocation per switch.
func BenchmarkNewArena(b *testing.B) {
	topo := topology.SmallWorld(800, 6, 0.3, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := NewArena(topo); a.NumStates() == 0 {
			b.Fatal("empty arena")
		}
	}
}
