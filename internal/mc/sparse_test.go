package mc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// sharedScene draws a small dense network carrying several classes: each
// runs between two of a few hosts along a shortest path, some egress
// switches carry a rule the class's own rule shadows, a few switches
// carry a low-priority catch-all and one an in-port rule — rules of no
// class, which forward every class — and one class has no rule of its
// own anywhere. A configuration that forwards some class in a cycle is
// the caller's to skip.
func sharedScene(r *rand.Rand, seed int64) (*topology.Topology, *config.Config, []config.Class) {
	n := 12 + r.Intn(12)
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	var hosts []topology.Host
	for i := 0; i < 5; i++ {
		hosts = append(hosts, topo.AddHost(1000+i, r.Intn(n)))
	}
	cfg := config.New()
	var classes []config.Class
	used := map[[2]int]bool{}
	for len(classes) < 3+r.Intn(3) {
		a, b := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if a.Switch == b.Switch || used[[2]int{a.ID, b.ID}] {
			continue
		}
		used[[2]int{a.ID, b.ID}] = true
		cl := config.Class{Name: fmt.Sprintf("c%d", len(classes)), SrcHost: a.ID, DstHost: b.ID}
		if err := config.InstallPath(cfg, topo, cl, topo.ShortestPath(a.Switch, b.Switch), 10); err != nil {
			panic(err)
		}
		classes = append(classes, cl)
		if links := topo.Neighbors(b.Switch); len(classes)%2 == 0 {
			cfg.AddRule(b.Switch, network.Rule{
				Priority: 1, Match: cl.Pattern(),
				Actions: []network.Action{network.Forward(links[r.Intn(len(links))].LocalPort)},
			})
		}
	}
	for i := 0; i < 3; i++ {
		cfg.AddRule(r.Intn(n), catchAll(r, topo, r.Intn(n), i == 0))
	}
	classes = append(classes, config.Class{Name: "ruleless", SrcHost: hosts[0].ID, DstHost: hosts[0].ID + 4242})
	return topo, cfg, classes
}

func catchAll(r *rand.Rand, topo *topology.Topology, sw int, inPort bool) network.Rule {
	ports := topo.Ports(sw)
	rule := network.Rule{
		Priority: 1, Match: network.AnyPacket(),
		Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
	}
	if inPort {
		rule.Priority, rule.Match.InPort = 20, ports[r.Intn(len(ports))]
	}
	return rule
}

// sceneTable is a table some update might install on sw.
func sceneTable(r *rand.Rand, topo *topology.Topology, base *config.Config, classes []config.Class, sw int) network.Table {
	tbl := base.Table(sw).Clone()
	ports := topo.Ports(sw)
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		if len(tbl) > 0 {
			i := r.Intn(len(tbl))
			tbl = append(tbl[:i:i], tbl[i+1:]...)
		}
	case 2, 3:
		cl := classes[r.Intn(len(classes))]
		tbl = append(tbl, network.Rule{
			Priority: 10 + r.Intn(3), Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
		})
	default:
		tbl = append(tbl, catchAll(r, topo, sw, r.Intn(3) == 0))
	}
	return tbl
}

// locatedFormula is a random formula whose atoms name switches, port
// numbers — which many states of many switches share — and header fields
// of the class, so a state's atom valuation has all three parts.
func locatedFormula(r *rand.Rand, topo *topology.Topology, cl config.Class) *ltl.Formula {
	atom := func() *ltl.Formula {
		switch r.Intn(5) {
		case 0:
			return ltl.Atom(ltl.FieldPort, 1+r.Intn(5))
		case 1:
			return ltl.Atom("dst", cl.DstHost+r.Intn(2))
		default:
			return ltl.At(r.Intn(topo.NumSwitches()))
		}
	}
	var gen func(d int) *ltl.Formula
	gen = func(d int) *ltl.Formula {
		if d <= 0 {
			return atom()
		}
		switch r.Intn(7) {
		case 0:
			return ltl.Not(gen(d - 1))
		case 1:
			return ltl.And(gen(d-1), gen(d-1))
		case 2:
			return ltl.Or(gen(d-1), gen(d-1))
		case 3:
			return ltl.Next(gen(d - 1))
		case 4:
			return ltl.Until(gen(d-1), gen(d-1))
		case 5:
			return ltl.Release(gen(d-1), gen(d-1))
		default:
			return atom()
		}
	}
	// A switch atom and a port atom at the root, whatever the draw below.
	return ltl.Or(ltl.And(ltl.At(r.Intn(topo.NumSwitches())), ltl.Atom(ltl.FieldPort, 1+r.Intn(3))), gen(2+r.Intn(2)))
}

// checkerTwin is the sparse checker and the dense one it replaced over
// one structure (the dense labeler reads it through the same exported
// methods), driven in step.
type checkerTwin struct {
	t      *testing.T
	name   string
	k      *kripke.K
	sparse *Incremental
	dense  *denseIncremental
}

// compare requires the same label at every state of the arena, isolated
// ones included, the same verdict and the same counterexample.
func (w *checkerTwin) compare(op string) (violating bool) {
	w.t.Helper()
	for id := 0; id < w.k.NumStates(); id++ {
		if got, want := w.sparse.Labels(id), w.dense.Labels(id); !valuationsEqual(got, want) || want == nil {
			w.t.Fatalf("%s %s: Labels(%d) = %v, dense %v", w.name, op, id, got, want)
		}
	}
	sv, dv := w.sparse.Check(), w.dense.Check()
	if sv.OK != dv.OK || !slices.Equal(sv.Cex, dv.Cex) {
		w.t.Fatalf("%s %s: verdict %v %v, dense %v %v", w.name, op, sv.OK, sv.Cex, dv.OK, dv.Cex)
	}
	if !sv.OK && len(sv.Cex) == 0 {
		w.t.Fatalf("%s %s: violation without a counterexample", w.name, op)
	}
	return !sv.OK
}

func (w *checkerTwin) update(d *kripke.Delta) (Token, Token) {
	w.t.Helper()
	sv, st := w.sparse.Update(d)
	dv, dt := w.dense.Update(d)
	if sv.OK != dv.OK || !slices.Equal(sv.Cex, dv.Cex) {
		w.t.Fatalf("%s update: verdict %v %v, dense %v %v", w.name, sv.OK, sv.Cex, dv.OK, dv.Cex)
	}
	return st, dt
}

// TestSparseLabelingMatchesDense drives the incremental checker, and the
// dense-array implementation it replaced, over every class structure of
// random shared-switch scenarios under formulas whose atoms name
// switches, ports and header fields, through random sequences of what the
// engine and the session do: updates kept, reverted (the structure then
// reapplied and the checker updated again), updates that close a loop
// and are rolled back unseen, several switches updated as one step (the
// session's final verification) and kept or reverted like any update,
// undo stacks abandoned at a rebind, rebinds of a few switches naming the
// rewired states, and rebinds to a cyclic target pulled back without the
// checkers hearing of either move. After every operation every state of
// the arena — nearly all isolated in any one class — must carry the same
// label in both, and Check must give the same verdict and counterexample.
func TestSparseLabelingMatchesDense(t *testing.T) {
	var updates, loops, reverts, replays, rebinds, restores, steps, failing, ruleless int
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		topo, base, classes := sharedScene(r, seed)
		arena := kripke.NewArena(topo)
		for _, cl := range classes {
			k, err := arena.Build(base, cl)
			if err != nil {
				continue // a catch-all closed a loop for this class
			}
			spec := locatedFormula(r, topo, cl)
			sc, err := NewIncremental(k, spec)
			if err != nil {
				continue // oversized closure
			}
			dc, err := denseNewIncremental(k, spec)
			if err != nil {
				t.Fatal(err)
			}
			w := &checkerTwin{t: t, name: fmt.Sprintf("seed %d class %s", seed, cl.Name), k: k, sparse: sc.(*Incremental), dense: dc.(*denseIncremental)}
			if cl.Name == "ruleless" {
				ruleless++
			}
			w.compare("build")
			type applied struct {
				delta  *kripke.Delta
				st, dt Token
			}
			var stack []applied
			for step := 0; step < 40; step++ {
				switch op := r.Intn(12); {
				case op < 5:
					sw := r.Intn(topo.NumSwitches())
					delta, err := w.k.UpdateSwitch(sw, sceneTable(r, topo, base, classes, sw))
					if err != nil {
						w.k.Revert(delta) // a loop: rolled back before the checkers hear of it
						loops++
						w.compare("looping update")
						continue
					}
					st, dt := w.update(delta)
					stack = append(stack, applied{delta, st, dt})
					updates++
					if w.compare("update") {
						failing++
					}
				case op < 7:
					if len(stack) == 0 {
						continue
					}
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					w.sparse.Revert(top.st)
					w.dense.Revert(top.dt)
					w.k.Revert(top.delta)
					reverts++
					w.compare("revert")
					if r.Intn(2) == 0 {
						w.k.Reapply(top.delta)
						st, dt := w.update(top.delta)
						stack = append(stack, applied{top.delta, st, dt})
						replays++
						w.compare("reapply")
					}
				case op < 10:
					// A rebind abandons the outstanding undo tokens.
					stack = stack[:0]
					cfg := config.New()
					var some []int
					for sw := 0; sw < topo.NumSwitches(); sw++ {
						tbl := w.k.Table(sw)
						if r.Intn(4) == 0 {
							tbl = sceneTable(r, topo, base, classes, sw)
							some = append(some, sw)
						}
						cfg.SetTable(sw, tbl)
					}
					before := currentConfig(w.k)
					changed, err := w.k.RebindSwitches(cfg, some)
					if err != nil {
						// Cyclic target: pull the structure back; the
						// checkers saw neither move, so their labels stand.
						if _, _, err := w.k.Rebind(before); err != nil {
							t.Fatal(err)
						}
						restores++
						w.compare("restore after a cyclic target")
						continue
					}
					var rewired []int
					for _, sw := range changed {
						rewired = append(rewired, w.k.StatesOf(sw)...)
					}
					if len(rewired) > 0 {
						w.sparse.Rebind(rewired)
						w.dense.Rebind(rewired)
					}
					rebinds++
					w.compare("rebind")
				default:
					// Several switches as one step, one loop check, one update.
					cfg := config.New()
					var some []int
					for _, sw := range r.Perm(topo.NumSwitches())[:2+r.Intn(3)] {
						cfg.SetTable(sw, sceneTable(r, topo, base, classes, sw))
						some = append(some, sw)
					}
					delta, err := w.k.UpdateSwitches(cfg, some)
					if err != nil {
						w.k.Revert(delta)
						loops++
						w.compare("looping multi-switch step")
						continue
					}
					st, dt := w.update(delta)
					stack = append(stack, applied{delta, st, dt})
					steps++
					if w.compare("multi-switch step") {
						failing++
					}
				}
			}
		}
	}
	for name, n := range map[string]int{
		"updates": updates, "looping updates": loops, "reverts": reverts, "replays": replays, "rebinds": rebinds,
		"cyclic-target restores": restores, "multi-switch steps": steps, "violating states": failing, "rule-less classes": ruleless,
	} {
		if n < 20 {
			t.Errorf("only %d %s exercised", n, name)
		}
	}
	t.Logf("updates=%d loops=%d reverts=%d replays=%d rebinds=%d restores=%d multi-switch=%d violating=%d ruleless=%d",
		updates, loops, reverts, replays, rebinds, restores, steps, failing, ruleless)
}

// TestSinkLabelFirstReadWhileLabeling: a state that never had an edge
// has no label until something reads one, and the first reader may be
// computeLabel itself, half way through merging a predecessor's label:
// an update steers the class into a switch the formula names and no
// earlier state shared a valuation with, so the sink's label is interned
// inside the computation — past the end of a table view taken before it.
func TestSinkLabelFirstReadWhileLabeling(t *testing.T) {
	topo := topology.New("spur", 5)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddLink(2, 3)
	topo.AddLink(1, 4)
	topo.AddHost(100, 0)
	topo.AddHost(101, 3)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	if err := config.InstallPath(cfg, topo, cl, []int{0, 1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	k, err := kripke.Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	spec := ltl.Until(ltl.Not(ltl.At(4)), ltl.At(3)) // keep off the spur until delivered
	c, err := NewIncremental(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Check().OK {
		t.Fatal("the line violates the spec")
	}
	toSpur, _ := topo.PortToward(1, 4)
	delta, err := k.UpdateSwitch(1, network.Table{fwdRule(cl, toSpur)})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c.Update(delta)
	fresh, err := NewIncremental(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fv := fresh.Check(); v.OK || fv.OK || !slices.Equal(v.Cex, fv.Cex) {
		t.Fatalf("after steering into the spur: verdict %v %v, a fresh checker's %v %v", v.OK, v.Cex, fv.OK, fv.Cex)
	}
}
