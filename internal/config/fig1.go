package config

import (
	"netupdate/internal/ltl"
	"netupdate/internal/topology"
)

// Fig1Nodes names the switches of the paper's Figure 1 example topology: a
// simplified datacenter with two cores, four aggregation switches, four
// top-of-rack switches, and hosts H1..H4 on T1..T4.
type Fig1Nodes struct {
	T1, T2, T3, T4 int
	A1, A2, A3, A4 int
	C1, C2         int
	H1, H2, H3, H4 int // host ids
}

// Fig1Topology builds the Figure 1 topology. Every ToR in a pod connects
// to both of its pod's aggregation switches, and every aggregation switch
// connects to both cores.
func Fig1Topology() (*topology.Topology, Fig1Nodes) {
	nodes := Fig1Nodes{
		T1: 0, T2: 1, T3: 2, T4: 3,
		A1: 4, A2: 5, A3: 6, A4: 7,
		C1: 8, C2: 9,
		H1: 101, H2: 102, H3: 103, H4: 104,
	}
	t := topology.New("fig1", 10)
	for _, tor := range []int{nodes.T1, nodes.T2} {
		t.AddLink(tor, nodes.A1)
		t.AddLink(tor, nodes.A2)
	}
	for _, tor := range []int{nodes.T3, nodes.T4} {
		t.AddLink(tor, nodes.A3)
		t.AddLink(tor, nodes.A4)
	}
	for _, agg := range []int{nodes.A1, nodes.A2, nodes.A3, nodes.A4} {
		t.AddLink(agg, nodes.C1)
		t.AddLink(agg, nodes.C2)
	}
	t.AddHost(nodes.H1, nodes.T1)
	t.AddHost(nodes.H2, nodes.T2)
	t.AddHost(nodes.H3, nodes.T3)
	t.AddHost(nodes.H4, nodes.T4)
	return t, nodes
}

// fig1Class is the H1 -> H3 traffic class used by all Figure 1 scenarios.
func fig1Class(n Fig1Nodes) Class {
	return Class{Name: "H1->H3", SrcHost: n.H1, DstHost: n.H3}
}

// fig1Paths returns the three named paths from the Overview.
func fig1Paths(n Fig1Nodes) (red, green, blue []int) {
	red = []int{n.T1, n.A1, n.C1, n.A3, n.T3}
	green = []int{n.T1, n.A1, n.C2, n.A3, n.T3}
	blue = []int{n.T1, n.A2, n.C1, n.A4, n.T3}
	return
}

// reroute returns a copy of cfg rerouted along path for class cl: rules on
// path switches are replaced, while stale rules on switches off the new
// path are left installed (matching the paper, where only A1 and C2 change
// in the red-to-green update).
func reroute(cfg *Config, topo *topology.Topology, cl Class, path []int, priority int) *Config {
	out := cfg.Clone()
	pat := cl.Pattern()
	for _, sw := range path {
		tbl := out.Table(sw)
		kept := tbl[:0:0]
		for _, r := range tbl {
			if r.Match != pat {
				kept = append(kept, r)
			}
		}
		out.SetTable(sw, kept)
	}
	if err := InstallPath(out, topo, cl, path, priority); err != nil {
		panic(err) // paths are static and known-valid
	}
	return out
}

// Fig1RedGreen is the first Overview scenario: shift H1->H3 traffic from
// the red path T1-A1-C1-A3-T3 to the green path T1-A1-C2-A3-T3 while
// preserving reachability. The correct order is C2 before A1.
func Fig1RedGreen() *Scenario {
	topo, n := Fig1Topology()
	cl := fig1Class(n)
	red, green, _ := fig1Paths(n)
	init := New()
	if err := InstallPath(init, topo, cl, red, 10); err != nil {
		panic(err)
	}
	final := reroute(init, topo, cl, green, 10)
	return &Scenario{
		Name:     "fig1-red-green",
		Topo:     topo,
		Init:     init,
		Final:    final,
		Specs:    []ClassSpec{{Class: cl, Formula: ltl.Reachability(n.T1, n.T3)}},
		Feasible: true,
	}
}

// Fig1RedBlue is the second Overview scenario: shift from the red path to
// the blue path T1-A2-C1-A4-T3 preserving reachability only. Updating A2
// and A4 first (unreachable), then T1 and C1 in either order, works.
func Fig1RedBlue() *Scenario {
	topo, n := Fig1Topology()
	cl := fig1Class(n)
	red, _, blue := fig1Paths(n)
	init := New()
	if err := InstallPath(init, topo, cl, red, 10); err != nil {
		panic(err)
	}
	final := reroute(init, topo, cl, blue, 10)
	return &Scenario{
		Name:     "fig1-red-blue",
		Topo:     topo,
		Init:     init,
		Final:    final,
		Specs:    []ClassSpec{{Class: cl, Formula: ltl.Reachability(n.T1, n.T3)}},
		Feasible: true,
	}
}

// Fig1RedBlueWaypoint is the third Overview scenario: shift from red to
// blue while preserving reachability and requiring every packet to
// traverse A3 or A4 (the scrubbing middleboxes). The synthesized sequence
// is A2, A4, T1, wait, C1 — the wait between T1 and C1 is load-bearing.
func Fig1RedBlueWaypoint() *Scenario {
	s := Fig1RedBlue()
	_, n := Fig1Topology()
	s.Name = "fig1-red-blue-waypoint"
	s.Specs = []ClassSpec{{
		Class: s.Specs[0].Class,
		Formula: ltl.And(
			ltl.Reachability(n.T1, n.T3),
			ltl.WaypointEither(n.T1, []int{n.A3, n.A4}, n.T3),
		),
	}}
	return s
}
