// Package topology provides the network topology substrate: an undirected
// multigraph of switches with numbered ports and attached hosts, plus the
// generators used by the paper's evaluation — FatTree [Al-Fares et al.],
// Small-World [Newman-Strogatz-Watts], and a Topology-Zoo-like WAN
// generator (stand-in for the real Topology Zoo dataset; see DESIGN.md).
package topology

import (
	"fmt"
	"sync"
)

// Port identifies a port on a switch. Ports are numbered from 1 within
// each switch; 0 is never a valid port.
type Port int

// Link is one endpoint's view of a switch-to-switch link.
type Link struct {
	LocalPort Port
	Peer      int  // peer switch id
	PeerPort  Port // port on the peer switch
}

// Host is an end host attached to a switch. The Port is the switch-side
// port that leads to the host.
type Host struct {
	ID     int
	Switch int
	Port   Port
}

// Topology is an undirected multigraph over switches 0..n-1 with hosts
// hanging off switches. It is mutable during construction and should be
// treated as immutable afterwards; the read accessors are safe for
// concurrent use once mutation stops.
type Topology struct {
	Name string

	n        int
	adj      [][]Link
	hosts    []Host
	nextPort []Port
	// hostAt[sw] lists indexes into hosts for the hosts on sw.
	hostAt map[int][]int
	// hostIdx maps a host id to its index in hosts; on a duplicate id the
	// first host added keeps the entry.
	hostIdx map[int]int

	// Ports and HostsOn are on the Kripke-construction hot path (once per
	// switch per traffic class); the derived slices are memoized here and
	// invalidated by AddLink/AddHost. Guarded by cacheMu.
	cacheMu    sync.Mutex
	portsCache [][]Port
	hostsCache [][]Host
}

// New creates a topology with n switches and no links.
func New(name string, n int) *Topology {
	t := &Topology{
		Name:     name,
		n:        n,
		adj:      make([][]Link, n),
		nextPort: make([]Port, n),
		hostAt:   map[int][]int{},
		hostIdx:  map[int]int{},
	}
	for i := range t.nextPort {
		t.nextPort[i] = 1
	}
	return t
}

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return t.n }

// NumLinks returns the number of switch-to-switch links.
func (t *Topology) NumLinks() int {
	total := 0
	for _, l := range t.adj {
		total += len(l)
	}
	return total / 2
}

// Hosts returns the attached hosts. The returned slice must not be
// modified.
func (t *Topology) Hosts() []Host { return t.hosts }

// AddLink connects switches a and b with a new link, allocating a fresh
// port on each side, and returns the two ports.
func (t *Topology) AddLink(a, b int) (pa, pb Port) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		panic(fmt.Sprintf("topology: AddLink(%d, %d) out of range [0,%d)", a, b, t.n))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self-link on switch %d", a))
	}
	pa, pb = t.nextPort[a], t.nextPort[b]
	t.nextPort[a]++
	t.nextPort[b]++
	t.adj[a] = append(t.adj[a], Link{LocalPort: pa, Peer: b, PeerPort: pb})
	t.adj[b] = append(t.adj[b], Link{LocalPort: pb, Peer: a, PeerPort: pa})
	t.invalidateCaches()
	return pa, pb
}

// invalidateCaches drops the memoized per-switch views after a mutation.
func (t *Topology) invalidateCaches() {
	t.cacheMu.Lock()
	t.portsCache = nil
	t.hostsCache = nil
	t.cacheMu.Unlock()
}

// HasLink reports whether a direct link between a and b exists.
func (t *Topology) HasLink(a, b int) bool {
	for _, l := range t.adj[a] {
		if l.Peer == b {
			return true
		}
	}
	return false
}

// AddHost attaches a new host with the given id to switch sw, allocating a
// switch-side port.
func (t *Topology) AddHost(id, sw int) Host {
	if sw < 0 || sw >= t.n {
		panic(fmt.Sprintf("topology: AddHost on switch %d out of range", sw))
	}
	p := t.nextPort[sw]
	t.nextPort[sw]++
	h := Host{ID: id, Switch: sw, Port: p}
	t.hostAt[sw] = append(t.hostAt[sw], len(t.hosts))
	if _, dup := t.hostIdx[id]; !dup {
		t.hostIdx[id] = len(t.hosts)
	}
	t.hosts = append(t.hosts, h)
	t.invalidateCaches()
	return h
}

// HostByID returns the host with the given id (the first one added, if
// the id was used twice).
func (t *Topology) HostByID(id int) (Host, bool) {
	i, ok := t.hostIdx[id]
	if !ok {
		return Host{}, false
	}
	return t.hosts[i], true
}

// HostsOn returns the hosts attached to switch sw. The returned slice is
// memoized and must not be modified.
func (t *Topology) HostsOn(sw int) []Host {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if t.hostsCache == nil {
		t.hostsCache = make([][]Host, t.n)
		for s := 0; s < t.n; s++ {
			idx := t.hostAt[s]
			out := make([]Host, len(idx))
			for i, j := range idx {
				out[i] = t.hosts[j]
			}
			t.hostsCache[s] = out
		}
	}
	return t.hostsCache[sw]
}

// Neighbors returns the links incident to sw. The returned slice must not
// be modified.
func (t *Topology) Neighbors(sw int) []Link { return t.adj[sw] }

// Degree returns the number of switch-to-switch links at sw.
func (t *Topology) Degree(sw int) int { return len(t.adj[sw]) }

// PortToward returns the local port on switch a of some link to switch b.
func (t *Topology) PortToward(a, b int) (Port, bool) {
	for _, l := range t.adj[a] {
		if l.Peer == b {
			return l.LocalPort, true
		}
	}
	return 0, false
}

// LinkAt returns the link leaving switch sw via the given local port; ok is
// false if the port leads to a host or does not exist.
func (t *Topology) LinkAt(sw int, p Port) (Link, bool) {
	for _, l := range t.adj[sw] {
		if l.LocalPort == p {
			return l, true
		}
	}
	return Link{}, false
}

// HostAtPort returns the host reached via port p of switch sw, if any.
func (t *Topology) HostAtPort(sw int, p Port) (Host, bool) {
	for _, i := range t.hostAt[sw] {
		if t.hosts[i].Port == p {
			return t.hosts[i], true
		}
	}
	return Host{}, false
}

// Ports returns every allocated port on switch sw (link ports and host
// ports), ascending. The returned slice is memoized and must not be
// modified.
func (t *Topology) Ports(sw int) []Port {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if t.portsCache == nil {
		t.portsCache = make([][]Port, t.n)
		for s := 0; s < t.n; s++ {
			var out []Port
			for _, l := range t.adj[s] {
				out = append(out, l.LocalPort)
			}
			for _, i := range t.hostAt[s] {
				out = append(out, t.hosts[i].Port)
			}
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j] < out[j-1]; j-- {
					out[j], out[j-1] = out[j-1], out[j]
				}
			}
			t.portsCache[s] = out
		}
	}
	return t.portsCache[sw]
}

// Connected reports whether the switch graph is connected (ignoring
// hosts). The empty topology is connected.
func (t *Topology) Connected() bool {
	if t.n == 0 {
		return true
	}
	seen := make([]bool, t.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range t.adj[v] {
			if !seen[l.Peer] {
				seen[l.Peer] = true
				count++
				stack = append(stack, l.Peer)
			}
		}
	}
	return count == t.n
}
