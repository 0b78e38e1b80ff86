// Package config provides network configurations (per-switch forwarding
// tables), traffic classes, and the scenario generators used by the
// paper's evaluation: diamond updates over random node pairs (Section 6),
// infeasible double-diamonds (Figure 8h), and the Figure 1 datacenter
// example from the Overview.
package config

import (
	"fmt"
	"sort"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Config maps each switch to its forwarding table. A missing entry is the
// empty (drop-everything) table. Config is a network configuration in the
// paper's sense: a static network containing no packets.
type Config struct {
	tables map[int]network.Table
}

// New returns an empty configuration.
func New() *Config {
	return &Config{tables: map[int]network.Table{}}
}

// Table returns the table installed on sw (nil if none).
func (c *Config) Table(sw int) network.Table { return c.tables[sw] }

// SetTable replaces the table on sw.
func (c *Config) SetTable(sw int, tbl network.Table) {
	if len(tbl) == 0 {
		delete(c.tables, sw)
		return
	}
	c.tables[sw] = tbl
}

// AddRule appends a rule to the table on sw.
func (c *Config) AddRule(sw int, r network.Rule) {
	c.tables[sw] = append(c.tables[sw], r)
}

// RemoveRule removes the first rule on sw equal to r, reporting whether a
// rule was removed.
func (c *Config) RemoveRule(sw int, r network.Rule) bool {
	tbl := c.tables[sw]
	for i := range tbl {
		if ruleEqual(tbl[i], r) {
			c.tables[sw] = append(tbl[:i:i], tbl[i+1:]...)
			if len(c.tables[sw]) == 0 {
				delete(c.tables, sw)
			}
			return true
		}
	}
	return false
}

func ruleEqual(a, b network.Rule) bool {
	if a.Priority != b.Priority || a.Match != b.Match || len(a.Actions) != len(b.Actions) {
		return false
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return false
		}
	}
	return true
}

// Switches returns the switches with non-empty tables, ascending.
func (c *Config) Switches() []int {
	out := make([]int, 0, len(c.tables))
	for sw := range c.tables {
		out = append(out, sw)
	}
	sort.Ints(out)
	return out
}

// NumRules returns the total number of rules across all switches.
func (c *Config) NumRules() int {
	n := 0
	for _, t := range c.tables {
		n += len(t)
	}
	return n
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	d := New()
	for sw, t := range c.tables {
		d.tables[sw] = t.Clone()
	}
	return d
}

// Tables returns the underlying table map for constructing a runtime
// network; the caller must not modify it.
func (c *Config) Tables() map[int]network.Table { return c.tables }

// Diff returns the switches whose tables differ between a and b,
// ascending. These are exactly the switches an update must touch.
func Diff(a, b *Config) []int {
	var out []int
	for sw, tbl := range a.tables {
		if !tbl.Equal(b.tables[sw]) {
			out = append(out, sw)
		}
	}
	for sw, tbl := range b.tables {
		if _, ok := a.tables[sw]; !ok && len(tbl) > 0 {
			out = append(out, sw)
		}
	}
	sort.Ints(out)
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
// path switches must be adjacent in topo.
func InstallPath(cfg *Config, topo *topology.Topology, cl Class, path []int, priority int) error {
	if len(path) == 0 {
		return fmt.Errorf("config: empty path for class %v", cl)
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
	var path []int
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
