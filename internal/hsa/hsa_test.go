package hsa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

func randVec(r *rand.Rand) Vec {
	v := Vec{}
	for i := 0; i < Width; i++ {
		bit := uint64(1) << uint(i)
		switch r.Intn(3) {
		case 0:
			v.Ones |= bit
		case 1:
			v.Zeros |= bit
		default:
			v.Ones |= bit
			v.Zeros |= bit
		}
	}
	return v
}

// member reports whether a concrete header (as a bit vector) is in v.
func member(h uint64, v Vec) bool {
	for i := 0; i < Width; i++ {
		bit := uint64(1) << uint(i)
		if h&bit != 0 {
			if v.Ones&bit == 0 {
				return false
			}
		} else if v.Zeros&bit == 0 {
			return false
		}
	}
	return true
}

func memberSpace(h uint64, s Space) bool {
	for _, v := range s {
		if member(h, v) {
			return true
		}
	}
	return false
}

func TestVecAlgebraLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	err := quick.Check(func(seed int64, probe uint64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randVec(rr), randVec(rr)
		h := probe & fullMask
		// Intersection law.
		if member(h, a.Intersect(b)) != (member(h, a) && member(h, b)) {
			return false
		}
		// Subtraction law.
		if memberSpace(h, a.Subtract(b)) != (member(h, a) && !member(h, b)) {
			return false
		}
		// Containment law (spot-check with the probe).
		if a.Contains(b) && member(h, b) && !member(h, a) {
			return false
		}
		_ = r
		return true
	}, &quick.Config{MaxCount: 3000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSubtractCovers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		a, b, c := randVec(r), randVec(r), randVec(r)
		s := Space{a, b}
		h := r.Uint64() & fullMask
		if memberSpace(h, s.Subtract(c)) != (memberSpace(h, s) && !member(h, c)) {
			t.Fatal("space subtract law violated")
		}
	}
}

func TestFromPacketAndPattern(t *testing.T) {
	pkt := network.Packet{Src: 7, Dst: 9, Typ: 0}
	v := FromPacket(pkt)
	if v.IsEmpty() {
		t.Fatal("packet vector empty")
	}
	pat := network.MatchFlow(7, 9)
	pv := FromPattern(pat)
	if !pv.Contains(v) {
		t.Fatal("pattern must contain its packet")
	}
	other := FromPacket(network.Packet{Src: 7, Dst: 10})
	if !pv.Intersect(other).IsEmpty() {
		t.Fatal("pattern must reject other dst")
	}
	if !FromPattern(network.AnyPacket()).Contains(other) {
		t.Fatal("wildcard pattern contains everything")
	}
}

func TestVecString(t *testing.T) {
	if Any().String()[0] != 'x' {
		t.Fatal("Any should render as wildcards")
	}
	if (Vec{}).String() != "<empty>" {
		t.Fatal("empty vec string")
	}
}

// buildScene mirrors the random scene used in mc tests.
func buildScene(r *rand.Rand) (*topology.Topology, *config.Config, config.Class, *kripke.K) {
	for {
		n := 4 + r.Intn(6)
		topo := topology.WAN("t", n, r.Int63())
		topo.AddHost(100, r.Intn(n))
		topo.AddHost(101, r.Intn(n))
		cl := config.Class{SrcHost: 100, DstHost: 101}
		cfg := config.New()
		for sw := 0; sw < n; sw++ {
			if r.Intn(4) == 0 {
				continue
			}
			ports := topo.Ports(sw)
			cfg.AddRule(sw, network.Rule{
				Priority: 10, Match: cl.Pattern(),
				Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
			})
		}
		k, err := kripke.Build(topo, cfg, cl)
		if err != nil {
			continue
		}
		return topo, cfg, cl, k
	}
}

func randomSpec(r *rand.Rand, n int) *ltl.Formula {
	switch r.Intn(3) {
	case 0:
		return ltl.Reachability(r.Intn(n), r.Intn(n))
	case 1:
		return ltl.Waypoint(r.Intn(n), r.Intn(n), r.Intn(n))
	default:
		return ltl.ServiceChain(r.Intn(n), []int{r.Intn(n)}, r.Intn(n))
	}
}

func TestCheckerMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 150; iter++ {
		topo, _, _, k := buildScene(r)
		spec := randomSpec(r, topo.NumSwitches())
		hchk, err := New(k, spec)
		if err != nil {
			t.Fatal(err)
		}
		ichk, err := mc.NewIncremental(k, spec)
		if err != nil {
			t.Fatal(err)
		}
		hv, iv := hchk.Check(), ichk.Check()
		if hv.OK != iv.OK {
			t.Fatalf("iter %d: hsa=%v incremental=%v spec=%v", iter, hv.OK, iv.OK, spec)
		}
	}
}

// flowPaths renders every maximal flow path of the checker's plumbing
// graph, sorted, for comparing two graphs' forwarding of the class.
func flowPaths(c mc.Checker) []string {
	var out []string
	for _, t := range c.(*Checker).p.Terminals() {
		out = append(out, fmt.Sprint(t.Switches, t.InPorts, t.Kind, t.Host))
	}
	slices.Sort(out)
	return out
}

// TestCheckerUpdateRevertMatchesIncremental drives the checker the way
// the synthesis engine does and compares every verdict, and the verdict
// after full unwind, against a fresh incremental checker — and its flow
// paths against a plumbing graph built fresh from the structure. Two input
// shapes: one class rule per switch with every update reported; and
// tables that mix in foreign-class rules and class rules shadowed by a
// higher priority, with updates that change no transition of the class
// left unreported (the mc.Checker contract) — the plumbing graph then
// lags the structure on such a switch and must catch up from its own
// rules when the switch is next reported.
func TestCheckerUpdateRevertMatchesIncremental(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		r := rand.New(rand.NewSource(4))
		steps, skipped := 10, 0
		if mixed {
			steps = 30
		}
		for iter := 0; iter < 60; iter++ {
			topo, _, cl, k := buildScene(r)
			spec := randomSpec(r, topo.NumSwitches())
			hchk, err := New(k, spec)
			if err != nil {
				t.Fatal(err)
			}
			type frame struct {
				delta *kripke.Delta
				tok   mc.Token // nil: the update was not reported
			}
			var stack []frame
			pop := func() {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if fr.tok != nil {
					hchk.Revert(fr.tok)
				}
				k.Revert(fr.delta)
			}
			for step := 0; step < steps; step++ {
				if len(stack) > 0 && r.Intn(3) == 0 {
					pop()
					continue
				}
				sw := r.Intn(topo.NumSwitches())
				if src, _ := topo.HostByID(cl.SrcHost); mixed && r.Intn(2) == 0 {
					sw = src.Switch // every flow of the class passes here
				}
				ports := topo.Ports(sw)
				fwd := func() []network.Action {
					return []network.Action{network.Forward(ports[r.Intn(len(ports))])}
				}
				var tbl network.Table
				if mixed {
					// One edit of the installed table: the rule the
					// class is forwarded by (priority 10) is replaced or
					// dropped, a class rule it shadows (priority 5) or a
					// foreign-class rule comes or goes.
					tbl = k.Table(sw).Clone()
					without := func(prio int, m network.Pattern) bool {
						n := len(tbl)
						tbl = slices.DeleteFunc(tbl, func(x network.Rule) bool { return x.Priority == prio && x.Match == m })
						return len(tbl) < n
					}
					foreign := network.MatchFlow(500, 600)
					switch r.Intn(4) {
					case 0:
						without(10, cl.Pattern())
						tbl = append(tbl, network.Rule{Priority: 10, Match: cl.Pattern(), Actions: fwd()})
					case 1:
						without(10, cl.Pattern())
					case 2:
						if !without(5, cl.Pattern()) {
							tbl = append(tbl, network.Rule{Priority: 5, Match: cl.Pattern(), Actions: fwd()})
						}
					default:
						if !without(20, foreign) {
							tbl = append(tbl, network.Rule{Priority: 20, Match: foreign, Actions: fwd()})
						}
					}
				} else if r.Intn(3) > 0 {
					tbl = network.Table{{Priority: 10, Match: cl.Pattern(), Actions: fwd()}}
				}
				delta, err := k.UpdateSwitch(sw, tbl)
				if err != nil {
					k.Revert(delta)
					continue
				}
				if mixed && len(delta.Changed()) == 0 {
					skipped++
					stack = append(stack, frame{delta: delta})
					continue
				}
				hv, tok := hchk.Update(delta)
				stack = append(stack, frame{delta, tok})
				fresh, err := mc.NewIncremental(k, spec)
				if err != nil {
					t.Fatal(err)
				}
				if fv := fresh.Check(); hv.OK != fv.OK {
					t.Fatalf("mixed=%v iter %d step %d: hsa=%v incremental=%v spec=%v",
						mixed, iter, step, hv.OK, fv.OK, spec)
				}
				rebuilt, _ := New(k, spec)
				if got, want := flowPaths(hchk), flowPaths(rebuilt); !slices.Equal(got, want) {
					t.Fatalf("mixed=%v iter %d step %d: flow paths diverged from a fresh plumbing graph:\n got %v\nwant %v",
						mixed, iter, step, got, want)
				}
			}
			// Full unwind must restore the original verdict.
			for len(stack) > 0 {
				pop()
			}
			fresh, _ := mc.NewIncremental(k, spec)
			rebuilt, _ := New(k, spec)
			if hchk.Check().OK != fresh.Check().OK || !slices.Equal(flowPaths(hchk), flowPaths(rebuilt)) {
				t.Fatalf("mixed=%v iter %d: revert broke the hsa checker", mixed, iter)
			}
		}
		if mixed && skipped < 60 {
			t.Fatalf("only %d unreported updates in 60 walks; the mixed shape no longer exercises them", skipped)
		}
	}
}

func TestPlumberTerminalsLineDelivery(t *testing.T) {
	topo := topology.New("line", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	if err := config.InstallPath(cfg, topo, cl, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	p := NewPlumber(topo, cfg.Tables(), FromPacket(cl.Packet()))
	if p.HasLoop() {
		t.Fatal("line has no loop")
	}
	// Two deliveries: the real src->dst path [0 1 2], and the class header
	// injected at the destination's own host, delivered immediately ([2]).
	var paths [][]int
	for _, term := range p.Terminals() {
		if term.Kind == TerminalDelivered {
			if term.Host != 101 {
				t.Fatalf("delivered to %d, want 101", term.Host)
			}
			paths = append(paths, term.Switches)
		}
	}
	if len(paths) != 2 {
		t.Fatalf("delivered paths = %v, want [0 1 2] and [2]", paths)
	}
	long := paths[0]
	if len(paths[1]) > len(long) {
		long = paths[1]
	}
	if len(long) != 3 || long[0] != 0 || long[2] != 2 {
		t.Fatalf("end-to-end path = %v, want [0 1 2]", long)
	}
}

func TestPlumberRuleOps(t *testing.T) {
	topo := topology.New("line", 2)
	topo.AddLink(0, 1)
	topo.AddHost(100, 0)
	topo.AddHost(101, 1)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	if err := config.InstallPath(cfg, topo, cl, []int{0, 1}, 10); err != nil {
		t.Fatal(err)
	}
	p := NewPlumber(topo, cfg.Tables(), FromPacket(cl.Packet()))
	// countEndToEnd counts deliveries of flows injected at the source
	// host's switch (path starting at switch 0).
	countEndToEnd := func() int {
		n := 0
		for _, term := range p.Terminals() {
			if term.Kind == TerminalDelivered && term.Host == 101 && term.Switches[0] == 0 {
				n++
			}
		}
		return n
	}
	if countEndToEnd() != 1 {
		t.Fatal("initial delivery missing")
	}
	r0 := cfg.Table(0)[0]
	if !p.RemoveRule(0, r0) {
		t.Fatal("RemoveRule failed")
	}
	if countEndToEnd() != 0 {
		t.Fatal("delivery should stop after removing the ingress rule")
	}
	if p.RemoveRule(0, r0) {
		t.Fatal("double remove should fail")
	}
	p.AddRule(0, r0)
	if countEndToEnd() != 1 {
		t.Fatal("delivery should resume after re-adding the rule")
	}
}

func TestPriorityShadowing(t *testing.T) {
	// A high-priority drop rule (no actions) must shadow the low-priority
	// forwarding rule for the overlapping header space.
	topo := topology.New("line", 2)
	topo.AddLink(0, 1)
	topo.AddHost(100, 0)
	topo.AddHost(101, 1)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	if err := config.InstallPath(cfg, topo, cl, []int{0, 1}, 10); err != nil {
		t.Fatal(err)
	}
	p := NewPlumber(topo, cfg.Tables(), FromPacket(cl.Packet()))
	drop := network.Rule{Priority: 99, Match: cl.Pattern()}
	p.AddRule(0, drop)
	for _, term := range p.Terminals() {
		if term.Kind == TerminalDelivered && term.Host == 101 && term.Switches[0] == 0 {
			t.Fatal("high-priority drop rule should shadow forwarding")
		}
	}
	p.RemoveRule(0, drop)
	found := false
	for _, term := range p.Terminals() {
		if term.Kind == TerminalDelivered && term.Host == 101 && term.Switches[0] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("removing the shadow should restore delivery")
	}
}
