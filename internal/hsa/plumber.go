package hsa

import (
	"fmt"
	"sort"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Plumber is an incremental flow-propagation engine over one traffic
// class's header space, in the style of NetPlumber's plumbing graph:
// sources inject header space at host ingress ports, rule nodes split
// arriving flows by priority, and pipes carry flows across links. Rule
// insertion or removal retracts and re-propagates only the flows that
// traverse the affected switch.
type Plumber struct {
	topo *topology.Topology

	// rules per switch, sorted by descending priority, then insertion
	// order (matching network.Table.Apply's deterministic tie-break).
	rules map[int][]*ruleNode
	seq   int // insertion sequence for stable sorting

	// roots are the injected flows, one per host.
	roots []*flow
	// arrivals indexes the live flows by the switch they arrive at.
	arrivals map[int]map[*flow]bool

	// RecomputedFlows counts flow expansions, the unit of NetPlumber
	// work, for benchmark reporting.
	RecomputedFlows int64
}

type ruleNode struct {
	rule   network.Rule
	match  Vec
	inPort topology.Port
	outs   []topology.Port
	seq    int
}

// flow is one arrival of a header-space vector at a switch: hs arrived at
// (sw, inPort) having traversed the parent chain.
type flow struct {
	hs     Vec
	sw     int
	inPort topology.Port
	parent *flow
	child  []*flow

	// Terminal outcomes for portions of hs at this switch.
	delivered []deliveredRec
	dropped   []Vec
	looped    []Vec
}

type deliveredRec struct {
	host int
	hs   Vec
}

// NewPlumber builds the plumbing graph for the given tables, injecting hs
// at every host ingress.
func NewPlumber(topo *topology.Topology, tables map[int]network.Table, inject Vec) *Plumber {
	p := &Plumber{
		topo:     topo,
		rules:    map[int][]*ruleNode{},
		arrivals: map[int]map[*flow]bool{},
	}
	for sw, tbl := range tables {
		for _, r := range tbl {
			p.insertRuleNode(sw, r)
		}
	}
	for _, h := range topo.Hosts() {
		root := &flow{hs: inject, sw: h.Switch, inPort: h.Port}
		p.roots = append(p.roots, root)
		p.addArrival(root)
		p.expand(root)
	}
	return p
}

func (p *Plumber) insertRuleNode(sw int, r network.Rule) *ruleNode {
	var outs []topology.Port
	for _, a := range r.Actions {
		if a.Kind == network.ActForward {
			outs = append(outs, a.Port)
		}
	}
	n := &ruleNode{rule: r, match: FromPattern(r.Match), inPort: r.Match.InPort, outs: outs, seq: p.seq}
	p.seq++
	p.rules[sw] = append(p.rules[sw], n)
	sort.SliceStable(p.rules[sw], func(i, j int) bool {
		a, b := p.rules[sw][i], p.rules[sw][j]
		if a.rule.Priority != b.rule.Priority {
			return a.rule.Priority > b.rule.Priority
		}
		return a.seq < b.seq
	})
	return n
}

func (p *Plumber) addArrival(f *flow) {
	m := p.arrivals[f.sw]
	if m == nil {
		m = map[*flow]bool{}
		p.arrivals[f.sw] = m
	}
	m[f] = true
}

// retract removes f's descendants (and their index entries) and clears
// f's terminals, leaving f itself ready for re-expansion.
func (p *Plumber) retract(f *flow) {
	for _, c := range f.child {
		p.retractAll(c)
	}
	f.child = nil
	f.delivered = nil
	f.dropped = nil
	f.looped = nil
}

func (p *Plumber) retractAll(f *flow) {
	delete(p.arrivals[f.sw], f)
	for _, c := range f.child {
		p.retractAll(c)
	}
	f.child = nil
}

// onPath reports whether the location (sw, pt) appears on f's arrival
// chain (including f itself). Loop detection is per switch-port location,
// matching the paper's definition of a loop-free trace (all (sw, pt)
// observations distinct); revisiting a switch on a different port is legal.
func onPath(f *flow, sw int, pt topology.Port) bool {
	for g := f; g != nil; g = g.parent {
		if g.sw == sw && g.inPort == pt {
			return true
		}
	}
	return false
}

// expand matches f's header space against the rules of f.sw, producing
// child flows, deliveries, drops, and loop records.
func (p *Plumber) expand(f *flow) {
	p.RecomputedFlows++
	remaining := Space{f.hs}
	for _, rn := range p.rules[f.sw] {
		if remaining.IsEmpty() {
			break
		}
		if rn.inPort != 0 && rn.inPort != f.inPort {
			continue
		}
		take := remaining.Intersect(rn.match)
		remaining = remaining.Subtract(rn.match)
		for _, hs := range take {
			p.emit(f, rn, hs)
		}
	}
	f.dropped = append(f.dropped, remaining...)
}

// emit forwards one matched header-space portion out a rule's ports.
func (p *Plumber) emit(f *flow, rn *ruleNode, hs Vec) {
	if len(rn.outs) == 0 {
		f.dropped = append(f.dropped, hs)
		return
	}
	for _, out := range rn.outs {
		if h, ok := p.topo.HostAtPort(f.sw, out); ok {
			f.delivered = append(f.delivered, deliveredRec{host: h.ID, hs: hs})
			continue
		}
		l, ok := p.topo.LinkAt(f.sw, out)
		if !ok {
			f.dropped = append(f.dropped, hs) // dangling port
			continue
		}
		if onPath(f, l.Peer, l.PeerPort) {
			f.looped = append(f.looped, hs)
			continue
		}
		c := &flow{hs: hs, sw: l.Peer, inPort: l.PeerPort, parent: f}
		f.child = append(f.child, c)
		p.addArrival(c)
		p.expand(c)
	}
}

// refreshSwitch retracts and re-expands every flow arriving at sw; called
// after any rule change on sw.
func (p *Plumber) refreshSwitch(sw int) {
	// Snapshot: re-expansion mutates the arrival index.
	var fs []*flow
	for f := range p.arrivals[sw] {
		fs = append(fs, f)
	}
	// Only refresh flows that still exist (a retract below may remove
	// siblings' descendants arriving at the same switch).
	for _, f := range fs {
		if !p.arrivals[sw][f] {
			continue
		}
		p.retract(f)
		p.expand(f)
	}
}

// Rules returns the rules currently installed on sw, highest priority
// first.
func (p *Plumber) Rules(sw int) network.Table {
	tbl := make(network.Table, len(p.rules[sw]))
	for i, n := range p.rules[sw] {
		tbl[i] = n.rule
	}
	return tbl
}

// AddRule inserts a rule on sw and re-propagates affected flows.
func (p *Plumber) AddRule(sw int, r network.Rule) {
	p.insertRuleNode(sw, r)
	p.refreshSwitch(sw)
}

// RemoveRule removes the first rule on sw structurally equal to r,
// reporting whether one was found, and re-propagates affected flows.
func (p *Plumber) RemoveRule(sw int, r network.Rule) bool {
	ns := p.rules[sw]
	for i, n := range ns {
		if rulesEqual(n.rule, r) {
			p.rules[sw] = append(ns[:i:i], ns[i+1:]...)
			p.refreshSwitch(sw)
			return true
		}
	}
	return false
}

func rulesEqual(a, b network.Rule) bool {
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

// PathTerminal describes one maximal flow path and how it ended.
type PathTerminal struct {
	// Switches is the path of switches traversed, in order.
	Switches []int
	// InPorts[i] is the ingress port at Switches[i].
	InPorts []topology.Port
	// HS is the header-space portion taking this path.
	HS Vec
	// Kind describes the outcome.
	Kind TerminalKind
	// Host is the delivery host for TerminalDelivered.
	Host int
}

// TerminalKind is the outcome of a flow path.
type TerminalKind uint8

// Flow path outcomes.
const (
	TerminalDelivered TerminalKind = iota
	TerminalDropped
	TerminalLooped
)

func (k TerminalKind) String() string {
	switch k {
	case TerminalDelivered:
		return "delivered"
	case TerminalDropped:
		return "dropped"
	case TerminalLooped:
		return "looped"
	}
	return fmt.Sprintf("terminal(%d)", uint8(k))
}

// Terminals enumerates every maximal flow path currently in the graph.
func (p *Plumber) Terminals() []PathTerminal {
	var out []PathTerminal
	var walk func(f *flow, sws []int, pts []topology.Port)
	walk = func(f *flow, sws []int, pts []topology.Port) {
		sws = append(sws, f.sw)
		pts = append(pts, f.inPort)
		emit := func(kind TerminalKind, hs Vec, host int) {
			out = append(out, PathTerminal{
				Switches: append([]int(nil), sws...),
				InPorts:  append([]topology.Port(nil), pts...),
				HS:       hs,
				Kind:     kind,
				Host:     host,
			})
		}
		for _, d := range f.delivered {
			emit(TerminalDelivered, d.hs, d.host)
		}
		for _, hs := range f.dropped {
			emit(TerminalDropped, hs, -1)
		}
		for _, hs := range f.looped {
			emit(TerminalLooped, hs, -1)
		}
		for _, c := range f.child {
			walk(c, sws, pts)
		}
	}
	for _, root := range p.roots {
		walk(root, nil, nil)
	}
	return out
}

// HasLoop reports whether any flow would revisit a switch.
func (p *Plumber) HasLoop() bool {
	var any func(f *flow) bool
	any = func(f *flow) bool {
		if len(f.looped) > 0 {
			return true
		}
		for _, c := range f.child {
			if any(c) {
				return true
			}
		}
		return false
	}
	for _, root := range p.roots {
		if any(root) {
			return true
		}
	}
	return false
}
