// Package topology provides the network topology substrate: an undirected
// multigraph of switches with numbered ports and attached hosts, plus the
// generators used by the paper's evaluation — FatTree [Al-Fares et al.],
// Small-World [Newman-Strogatz-Watts], and a Topology-Zoo-like WAN
// generator (stand-in for the real Topology Zoo dataset; see DESIGN.md).
package topology

import "fmt"

// Port identifies a port on a switch. Ports are numbered densely from 1
// within each switch, in the order AddLink and AddHost allocate them; 0 is
// never a valid port.
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

	n     int
	adj   [][]Link
	hosts []Host
	// ends[sw][p-1] is what port p of sw leads to, and hostsOn[sw] lists
	// sw's hosts in the order they were added; both grow by append in
	// AddLink and AddHost. portSeq is 1, 2, ... up to the most ports any
	// switch has: a switch's ports are a prefix of it.
	ends    [][]portEnd
	hostsOn [][]Host
	portSeq []Port
	// hostIdx maps a host id to its index in hosts; on a duplicate id the
	// first host added keeps the entry.
	hostIdx map[int]int
}

// portEnd is what a port leads to: port far of switch peer, or, when peer
// is -1, the host hosts[far].
type portEnd struct {
	peer, far int32
}

// New creates a topology with n switches and no links.
func New(name string, n int) *Topology {
	return &Topology{
		Name:    name,
		n:       n,
		adj:     make([][]Link, n),
		ends:    make([][]portEnd, n),
		hostsOn: make([][]Host, n),
		hostIdx: map[int]int{},
	}
}

// addPort allocates the next port of sw, leading to e.
func (t *Topology) addPort(sw int, e portEnd) Port {
	t.ends[sw] = append(t.ends[sw], e)
	p := Port(len(t.ends[sw]))
	if len(t.portSeq) < int(p) {
		t.portSeq = append(t.portSeq, p)
	}
	return p
}

// end returns what port p of switch sw leads to; ok is false when sw or p
// is out of range.
func (t *Topology) end(sw int, p Port) (e portEnd, ok bool) {
	if sw < 0 || sw >= t.n || p < 1 || int(p) > len(t.ends[sw]) {
		return portEnd{}, false
	}
	return t.ends[sw][p-1], true
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
	pa, pb = Port(len(t.ends[a])+1), Port(len(t.ends[b])+1)
	t.addPort(a, portEnd{peer: int32(b), far: int32(pb)})
	t.addPort(b, portEnd{peer: int32(a), far: int32(pa)})
	t.adj[a] = append(t.adj[a], Link{LocalPort: pa, Peer: b, PeerPort: pb})
	t.adj[b] = append(t.adj[b], Link{LocalPort: pb, Peer: a, PeerPort: pa})
	return pa, pb
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
	h := Host{ID: id, Switch: sw, Port: t.addPort(sw, portEnd{peer: -1, far: int32(len(t.hosts))})}
	t.hostsOn[sw] = append(t.hostsOn[sw], h)
	if _, dup := t.hostIdx[id]; !dup {
		t.hostIdx[id] = len(t.hosts)
	}
	t.hosts = append(t.hosts, h)
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

// HostsOn returns the hosts attached to switch sw, in the order they were
// added. The returned slice must not be modified.
func (t *Topology) HostsOn(sw int) []Host { return t.hostsOn[sw] }

// Neighbors returns the links incident to sw. The returned slice must not
// be modified.
func (t *Topology) Neighbors(sw int) []Link { return t.adj[sw] }

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
	if e, ok := t.end(sw, p); ok && e.peer >= 0 {
		return Link{LocalPort: p, Peer: int(e.peer), PeerPort: Port(e.far)}, true
	}
	return Link{}, false
}

// HostAtPort returns the host reached via port p of switch sw, if any.
func (t *Topology) HostAtPort(sw int, p Port) (Host, bool) {
	if e, ok := t.end(sw, p); ok && e.peer < 0 {
		return t.hosts[e.far], true
	}
	return Host{}, false
}

// Ports returns every allocated port on switch sw (link ports and host
// ports), ascending: 1 to the number of ports. The returned slice must not
// be modified.
func (t *Topology) Ports(sw int) []Port {
	n := len(t.ends[sw])
	return t.portSeq[:n:n]
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
