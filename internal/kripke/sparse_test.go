package kripke

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// sharedScene draws a small dense network carrying several classes, the
// shape that makes a class structure's few connected states move around
// the arena: every class runs between two of a few hosts along a shortest
// path; some egress switches carry a rule the class's own rule shadows; a
// few switches carry a low-priority catch-all and one an in-port rule —
// rules of no class that forward every class — and one class has no rule
// anywhere, its own ingress included. Configurations that forward some
// class in a cycle are the caller's to handle: the catch-alls close loops
// now and then, which the comparison wants.
func sharedScene(r *rand.Rand, seed int64) (*topology.Topology, *config.Config, []config.Class) {
	n := 14 + r.Intn(16)
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	var hosts []topology.Host
	for i := 0; i < 6; i++ {
		hosts = append(hosts, topo.AddHost(1000+i, r.Intn(n)))
	}
	cfg := config.New()
	var classes []config.Class
	used := map[[2]int]bool{}
	for len(classes) < 4+r.Intn(3) {
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
	for i := 0; i < 4; i++ {
		cfg.AddRule(r.Intn(n), catchAll(r, topo, r.Intn(n), i == 0))
	}
	classes = append(classes, config.Class{Name: "ruleless", SrcHost: hosts[0].ID, DstHost: hosts[0].ID + 4242})
	return topo, cfg, classes
}

// catchAll is a rule of no class: it forwards any packet out of a random
// port of sw, below every class rule — or, with inPort, above them but
// for packets arriving on one port only.
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

// randomTable is a table some update might install on sw: nothing, the
// switch's table in base with a class rule pointed elsewhere or dropped,
// or with a catch-all or in-port rule added.
func randomTable(r *rand.Rand, topo *topology.Topology, base *config.Config, classes []config.Class, sw int) network.Table {
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

// twin is one class structure in both representations, driven in step.
type twin struct {
	t      *testing.T
	name   string
	sparse *K
	dense  *denseK
}

// twinDelta is one applied step: the dense structure takes a step of
// several switches as one update per switch.
type twinDelta struct {
	sparse *Delta
	dense  []*denseDelta
}

// sameLoop requires both errors to be nil or the same forwarding loop.
func (w *twin) sameLoop(op string, serr, derr error) bool {
	w.t.Helper()
	var sl, dl *ErrLoop
	if errors.As(serr, &sl) != errors.As(derr, &dl) || (serr == nil) != (derr == nil) {
		w.t.Fatalf("%s %s: sparse err %v, dense err %v", w.name, op, serr, derr)
	}
	if sl != nil && (!slices.Equal(sl.IDs, dl.IDs) || !slices.Equal(sl.Cycle, dl.Cycle)) {
		w.t.Fatalf("%s %s: sparse loop %v, dense loop %v", w.name, op, sl.IDs, dl.IDs)
	}
	return sl != nil
}

// compare checks everything a reader of the structure can see: Succ in
// order, Pred as a multiset and IsSink at every state of the arena —
// isolated ones included — Row's contract, the table read at every
// switch, and the loop search in both modes. Pred is compared as a
// multiset because removeOne's swap makes its order a function of the
// order in which rows were edited, which nothing reads.
func (w *twin) compare(op string, r *rand.Rand) {
	w.t.Helper()
	s, d := w.sparse, w.dense
	for id := 0; id < s.NumStates(); id++ {
		if !slices.Equal(s.Succ(id), d.Succ(id)) {
			w.t.Fatalf("%s %s: Succ(%d) = %v, dense %v", w.name, op, id, s.Succ(id), d.Succ(id))
		}
		sp, dp := slices.Clone(s.Pred(id)), slices.Clone(d.Pred(id))
		slices.Sort(sp)
		slices.Sort(dp)
		if !slices.Equal(sp, dp) {
			w.t.Fatalf("%s %s: Pred(%d) = %v, dense %v", w.name, op, id, sp, dp)
		}
		if s.IsSink(id) != d.IsSink(id) {
			w.t.Fatalf("%s %s: IsSink(%d) = %v, dense %v", w.name, op, id, s.IsSink(id), d.IsSink(id))
		}
		isolated := len(d.Succ(id)) == 0 && len(dp) == 0
		if !isolated && s.Row(id) == 0 {
			w.t.Fatalf("%s %s: state %d has an edge and no row", w.name, op, id)
		}
		if s.Row(id) < 0 || s.Row(id) >= s.NumRows() {
			w.t.Fatalf("%s %s: Row(%d) = %d of %d", w.name, op, id, s.Row(id), s.NumRows())
		}
	}
	for sw := 0; sw < s.Topo.NumSwitches(); sw++ {
		if !s.Table(sw).Equal(d.tables[sw]) {
			w.t.Fatalf("%s %s: tables differ on sw%d", w.name, op, sw)
		}
	}
	if got, want := s.findCycle(nil), d.findCycle(nil); !slices.Equal(got, want) {
		w.t.Fatalf("%s %s: findCycle(nil) = %v, dense %v", w.name, op, got, want)
	}
	from := make([]int, 1+r.Intn(5))
	for i := range from {
		from[i] = r.Intn(s.NumStates())
	}
	if got, want := s.findCycle(from), d.findCycle(from); !slices.Equal(got, want) {
		w.t.Fatalf("%s %s: findCycle(%v) = %v, dense %v", w.name, op, from, got, want)
	}
}

func (w *twin) update(sw int, tbl network.Table) (twinDelta, bool) {
	w.t.Helper()
	sd, serr := w.sparse.UpdateSwitch(sw, tbl)
	dd, derr := w.dense.UpdateSwitch(sw, tbl)
	loop := w.sameLoop("update", serr, derr)
	if !slices.Equal(sd.Changed(), dd.Changed()) {
		w.t.Fatalf("%s update sw%d: changed %v, dense %v", w.name, sw, sd.Changed(), dd.Changed())
	}
	return twinDelta{sd, []*denseDelta{dd}}, loop
}

// updateAll installs cfg's tables on the given switches as one step. The
// dense structure has no such step: it takes the switches one at a time,
// loops in between and all, and is searched for a loop once at the end,
// from the states that changed.
func (w *twin) updateAll(cfg *config.Config, switches []int) (twinDelta, bool) {
	w.t.Helper()
	sd, serr := w.sparse.UpdateSwitches(cfg, switches)
	var dds []*denseDelta
	var changed []int
	for _, sw := range switches {
		dd, derr := w.dense.UpdateSwitch(sw, cfg.Table(sw))
		if _, loop := derr.(*ErrLoop); derr != nil && !loop {
			w.t.Fatal(derr)
		}
		dds = append(dds, dd)
		changed = append(changed, dd.Changed()...)
	}
	if !slices.Equal(sd.Changed(), changed) {
		w.t.Fatalf("%s update %v: changed %v, dense %v", w.name, switches, sd.Changed(), changed)
	}
	var sl *ErrLoop
	var cyc []int
	if len(changed) > 0 {
		cyc = w.dense.findCycle(changed)
	}
	if errors.As(serr, &sl) != (cyc != nil) || (sl != nil && !slices.Equal(sl.IDs, cyc)) {
		w.t.Fatalf("%s update %v: sparse err %v, dense loop %v", w.name, switches, serr, cyc)
	}
	return twinDelta{sd, dds}, sl != nil
}

func (w *twin) revert(d twinDelta) {
	w.sparse.Revert(d.sparse)
	for i := len(d.dense) - 1; i >= 0; i-- {
		w.dense.Revert(d.dense[i])
	}
}

func (w *twin) reapply(d twinDelta) {
	w.sparse.Reapply(d.sparse)
	for _, dd := range d.dense {
		w.dense.Reapply(dd)
	}
}

// rebind runs Rebind (switches == nil) or RebindSwitches and reports
// whether the target loops.
func (w *twin) rebind(cfg *config.Config, switches []int) bool {
	w.t.Helper()
	var sc, st, dc, dt []int
	var serr, derr error
	if switches == nil {
		sc, st, serr = w.sparse.Rebind(cfg)
		dc, dt, derr = w.dense.Rebind(cfg)
	} else {
		sc, serr = w.sparse.RebindSwitches(cfg, switches)
		dc, derr = w.dense.RebindSwitches(cfg, switches)
	}
	if !slices.Equal(sc, dc) || !slices.Equal(st, dt) {
		w.t.Fatalf("%s rebind: changed %v touched %v, dense %v %v", w.name, sc, st, dc, dt)
	}
	return w.sameLoop("rebind", serr, derr)
}

// rebase moves the twin to a configuration that differs from its tables
// only where the class cannot see it — here and there a rule of another
// flow added, or those added earlier dropped — the sparse structure by
// Rebase, the dense one table by table with the AdoptTable the sparse one
// no longer has, and checks what Rebase promises: the structure reads
// every table from cfg alone, and forwards the class at every switch and
// port as it did before.
func (w *twin) rebase(r *rand.Rand, classes []config.Class) *config.Config {
	w.t.Helper()
	s := w.sparse
	pkt := s.Class.Packet()
	var others []config.Class
	for _, cl := range classes {
		if cl.Packet() != pkt {
			others = append(others, cl)
		}
	}
	before := make([]network.Table, s.Topo.NumSwitches())
	cfg := config.New()
	for sw := range before {
		tbl := s.Table(sw)
		before[sw] = tbl
		ports := s.Topo.Ports(sw)
		switch r.Intn(4) {
		case 0: // a rule of a flow nobody carries, or of another class
			match := network.MatchFlow(9000+r.Intn(3), 9100)
			if r.Intn(2) == 0 {
				match = others[r.Intn(len(others))].Pattern()
			}
			tbl = append(tbl.Clone(), network.Rule{
				Priority: 5 + r.Intn(20), Match: match,
				Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
			})
		case 1: // every rule this class's packet cannot match goes
			var kept network.Table
			for _, rule := range tbl {
				if rule.Match.Src < 0 || rule.Match.Src == pkt.Src && rule.Match.Dst == pkt.Dst {
					kept = append(kept, rule)
				}
			}
			tbl = kept
		}
		cfg.SetTable(sw, tbl)
		w.dense.AdoptTable(sw, cfg.Table(sw))
	}
	s.Rebase(cfg)
	if base, moved := s.Base(); base != cfg || moved != 0 {
		w.t.Fatalf("%s: after Rebase the structure holds %d tables over %p, want none over %p", w.name, moved, base, cfg)
	}
	for sw, old := range before {
		for _, pt := range s.Topo.Ports(sw) {
			if got, want := s.Table(sw).Apply(pkt, pt), old.Apply(pkt, pt); !slices.Equal(got, want) {
				w.t.Fatalf("%s: the rebase changed the class's forwarding at sw%d port %d: %v, was %v", w.name, sw, pt, got, want)
			}
		}
	}
	return cfg
}

// matchesFresh requires the structure to be the one a fresh Build makes at
// the tables it reports, edge for edge.
func (w *twin) matchesFresh(op string, arena *Arena) {
	w.t.Helper()
	cfg := config.New()
	for sw := 0; sw < w.sparse.Topo.NumSwitches(); sw++ {
		cfg.SetTable(sw, w.sparse.Table(sw))
	}
	fresh, err := arena.Build(cfg, w.sparse.Class)
	if err != nil {
		w.t.Fatalf("%s %s: no fresh build at the structure's tables: %v", w.name, op, err)
	}
	for id := 0; id < fresh.NumStates(); id++ {
		if !slices.Equal(w.sparse.Succ(id), fresh.Succ(id)) {
			w.t.Fatalf("%s %s: Succ(%d) = %v, a fresh build has %v", w.name, op, id, w.sparse.Succ(id), fresh.Succ(id))
		}
	}
}

// TestSparseStorageMatchesDense drives every class structure of random
// shared-switch scenarios, in the sparse representation and in the dense
// one it replaced, through random sequences of what the engine and the
// session do — updates of one switch and of several as one step, kept,
// reverted, reapplied and abandoned, updates that close a loop, rebinds of
// some switches and of all of them to configurations that may loop,
// rebases with deltas outstanding — and after every operation requires
// the same answer from every read of the structure at every state of the
// arena and every switch, the same delta, the same error and the same
// loop; wherever no loop stands, also the edges of a fresh Build at the
// same tables.
func TestSparseStorageMatchesDense(t *testing.T) {
	var updates, steps, loops, reverts, reapplies, rebinds, rebases, cyclicTargets, ruleless int
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		topo, base, classes := sharedScene(r, seed)
		arena := NewArena(topo)
		for _, cl := range classes {
			name := fmt.Sprintf("seed %d class %s", seed, cl.Name)
			sk, serr := arena.Build(base, cl)
			dk, derr := arena.buildDense(base, cl)
			w := &twin{t: t, name: name, sparse: sk, dense: dk}
			if w.sameLoop("build", serr, derr) {
				continue // a catch-all closed a loop for this class
			}
			w.compare("build", r)
			if cl.Name == "ruleless" {
				ruleless++ // connected by catch-alls only, if at all
			}
			good := base // the last loop-free configuration the twin was rebound to
			var stack []twinDelta
			for step := 0; step < 40; step++ {
				switch op := r.Intn(14); {
				case op >= 12:
					// A resync's end. Outstanding deltas stay good: they carry
					// the tables they swap.
					good = w.rebase(r, classes)
					rebases++
					w.compare("rebase", r)
					w.matchesFresh("rebase", arena)
				case op < 5:
					sw := r.Intn(topo.NumSwitches())
					d, loop := w.update(sw, randomTable(r, topo, base, classes, sw))
					updates++
					if loop {
						w.compare("looping update", r)
						w.revert(d)
						loops++
						w.compare("revert of a looping update", r)
						continue
					}
					stack = append(stack, d)
					w.compare("update", r)
					w.matchesFresh("update", arena)
				case op < 7:
					if len(stack) == 0 {
						continue
					}
					d := stack[len(stack)-1]
					w.revert(d)
					reverts++
					w.compare("revert", r)
					w.matchesFresh("revert", arena)
					if r.Intn(2) == 0 {
						w.reapply(d)
						reapplies++
						w.compare("reapply", r)
					} else {
						stack = stack[:len(stack)-1]
					}
				case op < 10:
					// A rebind abandons the outstanding deltas.
					stack = stack[:0]
					cfg := config.New()
					var some []int
					for sw := 0; sw < topo.NumSwitches(); sw++ {
						tbl := w.sparse.Table(sw)
						if r.Intn(4) == 0 {
							tbl = randomTable(r, topo, base, classes, sw)
							some = append(some, sw)
						}
						cfg.SetTable(sw, tbl)
					}
					if op == 9 {
						some = nil // sweep every switch
					} else if some == nil {
						some = []int{}
					}
					rebinds++
					if w.rebind(cfg, some) {
						cyclicTargets++
						w.compare("rebind to a cyclic target", r)
						if w.rebind(good, nil) {
							t.Fatalf("%s: the way back loops", name)
						}
						w.compare("rebind back", r)
						continue
					}
					good = cfg
					w.compare("rebind", r)
					w.matchesFresh("rebind", arena)
				default:
					cfg := config.New()
					var some []int
					for _, sw := range r.Perm(topo.NumSwitches())[:2+r.Intn(3)] {
						cfg.SetTable(sw, randomTable(r, topo, base, classes, sw))
						some = append(some, sw)
					}
					d, loop := w.updateAll(cfg, some)
					steps++
					if loop {
						w.compare("looping multi-switch step", r)
						w.revert(d)
						loops++
						w.compare("revert of a looping multi-switch step", r)
						continue
					}
					stack = append(stack, d)
					w.compare("multi-switch step", r)
					w.matchesFresh("multi-switch step", arena)
				}
			}
		}
	}
	for name, n := range map[string]int{
		"updates": updates, "multi-switch steps": steps, "looping updates": loops, "reverts": reverts, "reapplies": reapplies,
		"rebinds": rebinds, "rebases": rebases, "cyclic rebind targets": cyclicTargets, "rule-less classes": ruleless,
	} {
		if n < 20 {
			t.Errorf("only %d %s exercised", n, name)
		}
	}
	t.Logf("updates=%d multi-switch=%d loops=%d reverts=%d reapplies=%d rebinds=%d (cyclic %d) rebases=%d ruleless=%d",
		updates, steps, loops, reverts, reapplies, rebinds, cyclicTargets, rebases, ruleless)
}
