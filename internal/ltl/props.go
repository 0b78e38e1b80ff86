package ltl

// This file provides the property constructors used in the paper's
// evaluation (Section 6, "Configurations and properties"). Atomic
// propositions test the node a packet currently occupies: At(n) is the
// proposition sw=n, true exactly when the packet is being processed by
// switch n. (The paper writes "port = s" for the same test.)

// FieldSwitch is the Prop field used to test the current switch.
const FieldSwitch = "sw"

// FieldPort is the Prop field used to test the current ingress port.
const FieldPort = "pt"

// At returns the proposition that the packet is at switch sw.
func At(sw int) *Formula { return Atom(FieldSwitch, sw) }

// Reachability asserts that traffic entering at src eventually reaches dst:
//
//	(sw=src) -> F (sw=dst)
func Reachability(src, dst int) *Formula {
	return Implies(At(src), Eventually(At(dst)))
}

// Waypoint asserts that traffic from src must traverse waypoint w before
// reaching dst:
//
//	(sw=src) -> ((sw!=dst) U ((sw=w) & F (sw=dst)))
func Waypoint(src, w, dst int) *Formula {
	return Implies(At(src),
		Until(Not(At(dst)), And(At(w), Eventually(At(dst)))))
}

// ServiceChain asserts that traffic from src traverses the waypoints in
// order before reaching dst, following the paper's recursive definition:
//
//	way([], d)    = F (sw=d)
//	way(w::W, d)  = ((AND_{wk in W} sw!=wk) & sw!=d) U ((sw=w) & way(W, d))
//
// and the property is (sw=src) -> way(waypoints, dst).
func ServiceChain(src int, waypoints []int, dst int) *Formula {
	return Implies(At(src), way(waypoints, dst))
}

func way(waypoints []int, dst int) *Formula {
	if len(waypoints) == 0 {
		return Eventually(At(dst))
	}
	w, rest := waypoints[0], waypoints[1:]
	avoid := Not(At(dst))
	for _, wk := range rest {
		avoid = And(Not(At(wk)), avoid)
	}
	return Until(avoid, And(At(w), way(rest, dst)))
}

// WaypointEither asserts that traffic from src must traverse at least one
// of the waypoints before reaching dst — the "every packet traverses A2 or
// A3" middlebox property from Section 2:
//
//	(sw=src) -> ((sw!=dst) U (((sw=w1)|(sw=w2)|...) & F (sw=dst)))
func WaypointEither(src int, waypoints []int, dst int) *Formula {
	alt := False()
	for _, w := range waypoints {
		alt = Or(alt, At(w))
	}
	return Implies(At(src),
		Until(Not(At(dst)), And(alt, Eventually(At(dst)))))
}
