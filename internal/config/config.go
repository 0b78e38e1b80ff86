// Package config provides network configurations (per-switch forwarding
// tables), traffic classes, and the scenario generators used by the
// paper's evaluation: diamond updates over random node pairs (Section 6),
// infeasible double-diamonds (Figure 8h), and the Figure 1 datacenter
// example from the Overview.
package config

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Config maps each switch to its forwarding table. A missing entry is the
// empty (drop-everything) table. Config is a network configuration in the
// paper's sense: a static network containing no packets.
//
// A Config is a persistent value: it holds one pointer per switch to an
// installed table, an installed table is never written again, and Clone
// copies the pointers, not the rules, so a target shares with the
// configuration it was derived from every table its delta did not touch.
// Every mutator replaces the switch's table; none writes where another
// configuration can read. Two configurations that hold the same slice at a
// switch therefore hold equal tables there (network.Table.Same), which is
// what lets Diff and the digests skip what did not change.
//
// Mutating a Config is for whoever is still building it, on one
// goroutine. Once handed out — to a session, to a structure bound to it,
// to another goroutine — it is read-only, and any number of goroutines may
// read it (TableDigest included) at once.
type Config struct {
	slots []*installed // by switch; nil where the table is empty
	// own[sw] is set while the backing array of slots[sw].tbl was allocated
	// by this configuration's AddRule and no other configuration may append
	// to it: only then does AddRule append in place — past the length every
	// sharer holds — instead of copying. Clones start with none, and Table
	// hands out capped slices.
	own []bool
}

// installed is a table some configuration installed, shared by every
// configuration cloned from it since, with the memo of its canonical
// digest: computed once per installed table, whichever configuration is
// asked first, under the mutex (sharers may ask at once).
type installed struct {
	tbl    network.Table
	hashed atomic.Bool
	mu     sync.Mutex
	digest [sha256.Size]byte
}

// New returns an empty configuration.
func New() *Config { return &Config{} }

// NewSized returns an empty configuration with room for the tables of
// switches 0..switches-1, for builders that know the switch count.
func NewSized(switches int) *Config {
	return &Config{slots: make([]*installed, switches)}
}

// Span returns one past the highest switch that may hold a table.
func (c *Config) Span() int { return len(c.slots) }

// at returns what is installed on sw, nil for an empty table.
func (c *Config) at(sw int) *installed {
	if sw < 0 || sw >= len(c.slots) {
		return nil
	}
	return c.slots[sw]
}

// Table returns the table installed on sw (nil if none). The caller must
// not modify it.
func (c *Config) Table(sw int) network.Table {
	in := c.at(sw)
	if in == nil {
		return nil
	}
	return in.tbl[:len(in.tbl):len(in.tbl)]
}

// TableDigest returns the canonical digest (network.Table.Digest) of the
// table on sw, computing it on the first request for this table from any
// configuration that shares it.
func (c *Config) TableDigest(sw int) [sha256.Size]byte {
	in := c.at(sw)
	if in == nil {
		return network.Table(nil).Digest()
	}
	if !in.hashed.Load() {
		in.mu.Lock()
		if !in.hashed.Load() {
			in.digest = in.tbl.Digest()
			in.hashed.Store(true)
		}
		in.mu.Unlock()
	}
	return in.digest
}

// install replaces the table on sw; owned says whether tbl's backing array
// is this configuration's to append to.
func (c *Config) install(sw int, tbl network.Table, owned bool) {
	if sw >= len(c.slots) {
		if len(tbl) == 0 {
			return
		}
		c.slots = append(c.slots, make([]*installed, sw+1-len(c.slots))...)
	}
	if owned && sw >= len(c.own) {
		c.own = append(c.own, make([]bool, sw+1-len(c.own))...)
	}
	if sw < len(c.own) {
		c.own[sw] = owned
	}
	if len(tbl) == 0 {
		c.slots[sw] = nil
		return
	}
	c.slots[sw] = &installed{tbl: tbl}
}

// SetTable replaces the table on sw. The configuration keeps tbl, which
// the caller must not modify afterwards.
func (c *Config) SetTable(sw int, tbl network.Table) { c.install(sw, tbl, false) }

// AddRule appends a rule to the table on sw.
func (c *Config) AddRule(sw int, r network.Rule) {
	var tbl network.Table
	if in := c.at(sw); in != nil {
		tbl = in.tbl // at its full capacity, unlike Table's
	}
	if sw >= len(c.own) || !c.own[sw] {
		// Another configuration may hold this array: copy. Further rules
		// grow the copy as append grows any slice.
		tbl = append(make(network.Table, 0, len(tbl)+1), tbl...)
	}
	c.install(sw, append(tbl, r), true)
}

// RemoveRule removes the first rule on sw equal to r, reporting whether a
// rule was removed.
func (c *Config) RemoveRule(sw int, r network.Rule) bool {
	tbl := c.Table(sw)
	for i := range tbl {
		if tbl[i].Equal(r) {
			c.install(sw, append(tbl[:i:i], tbl[i+1:]...), false)
			return true
		}
	}
	return false
}

// Switches returns the switches with non-empty tables, ascending.
func (c *Config) Switches() []int {
	n := 0
	for _, in := range c.slots {
		if in != nil {
			n++
		}
	}
	out := make([]int, 0, n)
	for sw, in := range c.slots {
		if in != nil {
			out = append(out, sw)
		}
	}
	return out
}

// NumRules returns the total number of rules across all switches.
func (c *Config) NumRules() int {
	n := 0
	for _, in := range c.slots {
		if in != nil {
			n += len(in.tbl)
		}
	}
	return n
}

// Clone returns a configuration equal to c that shares c's tables: it
// copies one pointer per switch and no rule. Mutating either afterwards
// leaves the other as it was (see Config).
func (c *Config) Clone() *Config {
	return &Config{slots: append([]*installed(nil), c.slots...)}
}

// Tables returns the tables by switch, in a fresh map, for constructing a
// runtime network; the caller must not modify the tables.
func (c *Config) Tables() map[int]network.Table {
	out := map[int]network.Table{}
	for sw := range c.slots {
		if tbl := c.Table(sw); len(tbl) > 0 {
			out[sw] = tbl
		}
	}
	return out
}

// Diff returns the switches whose tables differ between a and b,
// ascending. These are exactly the switches an update must touch. A
// switch where both hold the same installed table — every switch a delta
// left alone, between a target and the configuration it was cloned from —
// costs a pointer comparison.
func Diff(a, b *Config) []int {
	var out []int
	for sw, n := 0, max(len(a.slots), len(b.slots)); sw < n; sw++ {
		if a.at(sw) != b.at(sw) && !a.Table(sw).Equal(b.Table(sw)) {
			out = append(out, sw)
		}
	}
	return out
}

// Class is a traffic class: the set of packets flowing from one host to
// another, identified by the src/dst header pair. Each class corresponds
// to one disjoint part of the network Kripke structure (Section 3.3).
type Class struct {
	Name    string
	SrcHost int // host id (also the packet src field value)
	DstHost int // host id (also the packet dst field value)
}

// Packet returns the representative packet of the class.
func (cl Class) Packet() network.Packet {
	return network.Packet{Src: cl.SrcHost, Dst: cl.DstHost}
}

// Pattern returns the match pattern selecting this class.
func (cl Class) Pattern() network.Pattern {
	return network.MatchFlow(cl.SrcHost, cl.DstHost)
}

func (cl Class) String() string {
	if cl.Name != "" {
		return cl.Name
	}
	return fmt.Sprintf("h%d->h%d", cl.SrcHost, cl.DstHost)
}

// InstallPath adds forwarding rules to cfg routing class cl along the
// switch path (inclusive of both endpoints). The class's source host must
// be attached to path[0] and destination host to path[len-1]; consecutive
// path switches must be adjacent in topo. A path longer than the switch
// count visits some switch twice, which gives the class two rules there
// and never delivers: it is refused before any rule is installed, so what
// a path costs is bounded by the topology, not by the path's length.
func InstallPath(cfg *Config, topo *topology.Topology, cl Class, path []int, priority int) error {
	if len(path) == 0 {
		return fmt.Errorf("config: empty path for class %v", cl)
	}
	if len(path) > topo.NumSwitches() {
		return fmt.Errorf("config: class %v: a %d-switch path over %d switches visits one twice", cl, len(path), topo.NumSwitches())
	}
	dst, ok := topo.HostByID(cl.DstHost)
	if !ok {
		return fmt.Errorf("config: class %v: no host %d", cl, cl.DstHost)
	}
	if dst.Switch != path[len(path)-1] {
		return fmt.Errorf("config: class %v: dst host on sw%d but path ends at sw%d",
			cl, dst.Switch, path[len(path)-1])
	}
	src, ok := topo.HostByID(cl.SrcHost)
	if !ok {
		return fmt.Errorf("config: class %v: no host %d", cl, cl.SrcHost)
	}
	if src.Switch != path[0] {
		return fmt.Errorf("config: class %v: src host on sw%d but path starts at sw%d",
			cl, src.Switch, path[0])
	}
	for i := 0; i < len(path); i++ {
		var out topology.Port
		if i == len(path)-1 {
			out = dst.Port
		} else {
			p, ok := topo.PortToward(path[i], path[i+1])
			if !ok {
				return fmt.Errorf("config: path hop sw%d-sw%d not adjacent", path[i], path[i+1])
			}
			out = p
		}
		cfg.AddRule(path[i], network.Rule{
			Priority: priority,
			Match:    cl.Pattern(),
			Actions:  []network.Action{network.Forward(out)},
		})
	}
	return nil
}

// PathOf traces the forwarding path of class cl through cfg starting at
// its source host, returning the switch sequence. It returns an error on
// a forwarding loop, a drop before reaching the destination host, or a
// rule that modifies packet headers.
func PathOf(cfg *Config, topo *topology.Topology, cl Class) ([]int, error) {
	src, ok := topo.HostByID(cl.SrcHost)
	if !ok {
		return nil, fmt.Errorf("config: no host %d", cl.SrcHost)
	}
	pkt := cl.Packet()
	sw, pt := src.Switch, src.Port
	path := make([]int, 0, 16) // most paths fit: one allocation, not one per doubling
	// The hops taken so far, scanned for a repeat — paths are tens of hops —
	// and one hop's outputs; both spill to the heap only past their buffers.
	type hop struct {
		sw int
		pt topology.Port
	}
	var seenBuf [32]hop
	var outBuf [2]network.PortPacket
	seen := seenBuf[:0]
	for {
		for _, h := range seen {
			if h == (hop{sw, pt}) {
				return nil, fmt.Errorf("config: forwarding loop for class %v at sw%d", cl, sw)
			}
		}
		seen = append(seen, hop{sw, pt})
		path = append(path, sw)
		outs := cfg.Table(sw).AppendApply(outBuf[:0], pkt, pt)
		if len(outs) == 0 {
			return nil, fmt.Errorf("config: class %v dropped at sw%d", cl, sw)
		}
		if len(outs) > 1 {
			return nil, fmt.Errorf("config: class %v multicast at sw%d", cl, sw)
		}
		if outs[0].Pkt != pkt {
			return nil, fmt.Errorf("config: class %v modified at sw%d", cl, sw)
		}
		if h, ok := topo.HostAtPort(sw, outs[0].Port); ok {
			if h.ID != cl.DstHost {
				return nil, fmt.Errorf("config: class %v delivered to wrong host %d", cl, h.ID)
			}
			return path, nil
		}
		l, ok := topo.LinkAt(sw, outs[0].Port)
		if !ok {
			return nil, fmt.Errorf("config: class %v forwarded out dangling port at sw%d", cl, sw)
		}
		sw, pt = l.Peer, l.PeerPort
	}
}
