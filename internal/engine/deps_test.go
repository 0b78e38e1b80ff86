package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// TestDepAnalysisReproducesWaitDecisions: the extracted ordering analysis
// is the single source of dependency facts for both the wait-removal pass
// and the DAG builder, so replaying any synthesized plan through a fresh
// depAnalysis must reproduce exactly the wait barriers the plan kept: a
// barrier is needed before an update iff the plan has a wait there.
func TestDepAnalysisReproducesWaitDecisions(t *testing.T) {
	for _, c := range conformanceCases(t) {
		feasible, plan := synthesizeOutcome(t, c.name, c.sc, c.g)
		if !feasible {
			continue
		}
		e := engineFor(t, c.sc, c.g)
		d := e.newDepAnalysis()
		if diff := config.Diff(d.config(), c.sc.Init); len(diff) != 0 {
			t.Fatalf("%s: analysis does not start at Init; differs on %v", c.name, diff)
		}
		wait := false
		for _, st := range plan.Steps {
			if st.Wait {
				wait = true
				continue
			}
			affected := d.affected(st.Switch, st.Table)
			if len(affected) != len(c.sc.Specs) {
				t.Fatalf("%s: affected has %d entries, want one per spec (%d)",
					c.name, len(affected), len(c.sc.Specs))
			}
			if got := d.barrierNeeded(st.Switch, affected); got != wait {
				t.Fatalf("%s: barrierNeeded = %v before update(sw%d), plan wait = %v",
					c.name, got, st.Switch, wait)
			}
			if wait {
				d.barrier()
				if len(d.pending) != 0 {
					t.Fatalf("%s: pending window not cleared by barrier()", c.name)
				}
			}
			d.advance(st.Switch, st.Table, affected)
			wait = false
		}
		if diff := config.Diff(d.config(), c.sc.Final); len(diff) != 0 {
			t.Fatalf("%s: analysis does not end at Final; differs on %v", c.name, diff)
		}
	}
}

// TestDepAnalysisWindowBasics: white-box invariants of the pending
// window — barrierNeeded is trivially false on an empty window, advance
// records exactly the affecting live steps and returns stable indexes,
// and drain marks imply their barrier-level counterpart.
func TestDepAnalysisWindowBasics(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := synthesize(t, sc, grain{})
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, sc, grain{})
	d := e.newDepAnalysis()
	ups := plan.Updates()
	for i, st := range ups {
		affected := d.affected(st.Switch, st.Table)
		if len(d.pending) == 0 && d.barrierNeeded(st.Switch, affected) {
			t.Fatalf("step %d: barrierNeeded on an empty window", i)
		}
		before := len(d.pending)
		idx := d.advance(st.Switch, st.Table, affected)
		switch {
		case idx == -1:
			if len(d.pending) != before {
				t.Fatalf("step %d: advance returned -1 but grew the window", i)
			}
		case idx != before:
			t.Fatalf("step %d: advance index = %d, want %d", i, idx, before)
		default:
			p := &d.pending[idx]
			if p.sw != st.Switch {
				t.Fatalf("step %d: window entry records sw%d, want sw%d", i, p.sw, st.Switch)
			}
			if !anyTrue(p.affected) {
				t.Fatalf("step %d: window entry affects no class", i)
			}
		}
	}
	// At least one update of the Fig1 red-green plan affects a live class,
	// so the window cannot end empty.
	if len(d.pending) == 0 {
		t.Fatal("window recorded no entries")
	}
}

// config materializes the configuration the analysis has reached — the
// initial configuration under the overlay of the tables its steps set —
// so tests can compare it with config.Diff.
func (d *depAnalysis) config() *config.Config {
	c := config.New()
	for sw := 0; sw < d.n; sw++ {
		c.SetTable(sw, d.table(sw))
	}
	return c
}

// ---------------------------------------------------------------------
// Reference implementation. refAnalysis is the ordering analysis as it was
// before the live sets: a cloned configuration, a flat pending window and
// — liveSinceWait, verbatim — one fresh search per class per step over
// the current configuration plus every window table. It shares nothing
// with deps.go but the table predicates (classOutputs, headerMatches,
// appendClassSuccessors) and exists only as the oracle of
// TestOrderingAnalysisMatchesPerStepSearch.

type refEntry struct {
	sw       int
	tbl      network.Table
	affected []bool
}

type refAnalysis struct {
	e       *Engine
	cur     *config.Config
	pending []refEntry

	bfsSeen  []int32
	bfsEpoch int32
	bfsQueue []int
}

func newRefAnalysis(e *Engine) *refAnalysis {
	return &refAnalysis{e: e, cur: e.sc.Init.Clone()}
}

func (r *refAnalysis) affected(sw int, tbl network.Table) []bool {
	old := r.cur.Table(sw)
	out := make([]bool, len(r.e.sc.Specs))
	for ci, cs := range r.e.sc.Specs {
		pkt := cs.Class.Packet()
		oa, oka := classOutputs(nil, old, pkt)
		ob, okb := classOutputs(nil, tbl, pkt)
		same := oka && okb && len(oa) == len(ob)
		for _, x := range oa {
			same = same && containsAction(ob, x)
		}
		out[ci] = !same
	}
	return out
}

func (r *refAnalysis) barrierNeeded(s int, affected []bool) bool {
	if len(r.pending) == 0 {
		return false
	}
	e := r.e
	for ci, cs := range e.sc.Specs {
		if !affected[ci] {
			continue
		}
		pkt := cs.Class.Packet()
		var starts []int
		for _, p := range r.pending {
			if !p.affected[ci] {
				continue
			}
			starts = e.appendClassSuccessors(starts, p.tbl, p.sw, pkt)
		}
		if len(starts) == 0 {
			continue
		}
		if r.reaches(pkt, starts, s) {
			return true
		}
	}
	return false
}

func (r *refAnalysis) drainNeeded(p *refEntry, sw int, affected []bool) bool {
	e := r.e
	for ci, cs := range e.sc.Specs {
		if !affected[ci] || !p.affected[ci] {
			continue
		}
		pkt := cs.Class.Packet()
		starts := e.appendClassSuccessors(nil, p.tbl, p.sw, pkt)
		if len(starts) == 0 {
			continue
		}
		if r.reaches(pkt, starts, sw) {
			return true
		}
	}
	return false
}

func (r *refAnalysis) barrier() { r.pending = r.pending[:0] }

func (r *refAnalysis) advance(sw int, tbl network.Table, affected []bool) int {
	idx := -1
	if anyTrue(affected) && r.liveSinceWait(r.cur, r.pending, sw) {
		idx = len(r.pending)
		r.pending = append(r.pending, refEntry{sw: sw, tbl: r.cur.Table(sw), affected: affected})
	}
	r.cur.SetTable(sw, tbl)
	return idx
}

func (r *refAnalysis) bfsReset() {
	n := r.e.sc.Topo.NumSwitches()
	if len(r.bfsSeen) < n {
		r.bfsSeen = make([]int32, n)
		r.bfsEpoch = 0
	}
	r.bfsEpoch++
}

// liveSinceWait reports whether packets of some class could have reached
// switch sw at any point since the last retained wait. The reachability
// query runs from each class's ingress over the union of the current
// configuration's edges and the pre-update edges of every switch updated
// in the window — a superset of every configuration the window contained.
func (r *refAnalysis) liveSinceWait(cur *config.Config, pending []refEntry, sw int) bool {
	e := r.e
	for _, cs := range e.sc.Specs {
		pkt := cs.Class.Packet()
		src, ok := e.sc.Topo.HostByID(cs.Class.SrcHost)
		if !ok {
			continue
		}
		if src.Switch == sw {
			return true // ingress switches always see fresh packets
		}
		r.bfsReset()
		queue := append(r.bfsQueue[:0], src.Switch)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if v == sw {
				r.bfsQueue = queue[:0]
				return true
			}
			if r.bfsSeen[v] == r.bfsEpoch {
				continue
			}
			r.bfsSeen[v] = r.bfsEpoch
			queue = e.appendClassSuccessors(queue, cur.Table(v), v, pkt)
			// Union in every pre-update table recorded for v: at rule
			// granularity a switch can appear in pending more than once,
			// and each window table may have forwarded packets.
			for _, p := range pending {
				if p.sw == v {
					queue = e.appendClassSuccessors(queue, p.tbl, v, pkt)
				}
			}
		}
		r.bfsQueue = queue[:0]
	}
	return false
}

func (r *refAnalysis) reaches(pkt network.Packet, starts []int, target int) bool {
	r.bfsReset()
	queue := append(r.bfsQueue[:0], starts...)
	found := false
	for len(queue) > 0 {
		sw := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if sw == target {
			found = true
			break
		}
		if r.bfsSeen[sw] == r.bfsEpoch {
			continue
		}
		r.bfsSeen[sw] = r.bfsEpoch
		queue = r.e.appendClassSuccessors(queue, r.cur.Table(sw), sw, pkt)
	}
	r.bfsQueue = queue[:0]
	return found
}

func refRemoveWaits(e *Engine, steps []Step) []Step {
	d := newRefAnalysis(e)
	out := make([]Step, 0, len(steps))
	for _, st := range steps {
		if st.Wait {
			continue
		}
		affected := d.affected(st.Switch, st.Table)
		if d.barrierNeeded(st.Switch, affected) {
			out = append(out, Step{Wait: true})
			d.barrier()
		}
		d.advance(st.Switch, st.Table, affected)
		out = append(out, st)
	}
	return out
}

func refBuildDAG(e *Engine, steps []Step) *PlanDAG {
	d := newRefAnalysis(e)
	lastClass := make([]int, len(e.sc.Specs))
	for i := range lastClass {
		lastClass[i] = -1
	}
	lastSwitch := map[int]int{}
	dag := &PlanDAG{}
	var entries []int
	j := 0
	for _, st := range steps {
		if st.Wait {
			continue
		}
		affected := d.affected(st.Switch, st.Table)
		seen := map[int]bool{}
		var preds []int
		if li, ok := lastSwitch[st.Switch]; ok {
			seen[li] = true
			preds = append(preds, li)
		}
		for ci, a := range affected {
			if a && lastClass[ci] >= 0 && !seen[lastClass[ci]] {
				seen[lastClass[ci]] = true
				preds = append(preds, lastClass[ci])
			}
		}
		sort.Ints(preds)
		var drain []int
		for _, i := range preds {
			if entries[i] >= 0 && d.drainNeeded(&d.pending[entries[i]], st.Switch, affected) {
				drain = append(drain, i)
			}
		}
		entries = append(entries, d.advance(st.Switch, st.Table, affected))
		lastSwitch[st.Switch] = j
		for ci, a := range affected {
			if a {
				lastClass[ci] = j
			}
		}
		dag.Preds = append(dag.Preds, preds)
		dag.Drain = append(dag.Drain, drain)
		j++
	}
	levels := dag.Levels()
	dag.Depth = len(levels)
	for _, l := range levels {
		if len(l) > dag.Width {
			dag.Width = len(l)
		}
	}
	return dag
}

// sharedSwitchScenario draws classes over a small dense topology, so
// that most switches carry several classes and most classes' paths cross:
// every class runs between two of a few hosts, initially along a shortest
// path and finally along one that avoids part of it. A few final tables
// gain or lose a low-priority catch-all rule — a table change that
// alters no class's behavior but does alter the successor
// over-approximation the live sets follow — and one gains an
// in-port-constrained rule, which the behavior comparison must treat as
// a change. Two switches of the first class's path are joined a second
// time, and a rule of one class at one endpoint and of another at the
// other forwards over the new link, so a switch is reached through two
// ports of one neighbour, each table having one of them. A rule of some
// class is added at the last class's ingress switch, a step there that
// changes behavior. One class names a source host the topology lacks. The
// endpoints need not satisfy any specification: the ordering analysis
// takes any step sequence.
func sharedSwitchScenario(t *testing.T, seed int64, classes int) *config.Scenario {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const n = 36
	topo := topology.SmallWorld(n, 4, 0.3, seed)
	var hosts []topology.Host
	for i := 0; i < 7; i++ {
		hosts = append(hosts, topo.AddHost(1000+i, r.Intn(n)))
	}
	sc := &config.Scenario{Name: fmt.Sprintf("shared-%d", seed), Topo: topo, Init: config.New(), Final: config.New()}
	var firstPath []int
	used := map[[2]int]bool{}
	for len(sc.Specs) < classes {
		a, b := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if a.Switch == b.Switch || used[[2]int{a.ID, b.ID}] {
			continue
		}
		initPath := topo.ShortestPath(a.Switch, b.Switch)
		if len(initPath) < 3 {
			continue
		}
		avoid := initPath[1+r.Intn(len(initPath)-2)]
		finalPath := topo.ShortestPath(a.Switch, b.Switch, avoid)
		if finalPath == nil {
			finalPath = initPath
		}
		used[[2]int{a.ID, b.ID}] = true
		if firstPath == nil {
			firstPath = initPath
		}
		cl := config.Class{Name: fmt.Sprintf("c%d", len(sc.Specs)), SrcHost: a.ID, DstHost: b.ID}
		if err := config.InstallPath(sc.Init, topo, cl, initPath, 10); err != nil {
			t.Fatal(err)
		}
		if err := config.InstallPath(sc.Final, topo, cl, finalPath, 10); err != nil {
			t.Fatal(err)
		}
		sc.Specs = append(sc.Specs, config.ClassSpec{Class: cl, Formula: ltl.True()})
		// A shadowed rule at the egress switch, present at one endpoint
		// only: installing or removing it changes no class's behavior —
		// the step never enters the window — yet moves an edge of the
		// successor over-approximation inside this class's live set.
		links := topo.Neighbors(b.Switch)
		shadow := network.Rule{
			Priority: 1, Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(links[r.Intn(len(links))].LocalPort)},
		}
		if len(sc.Specs)%2 == 0 {
			sc.Init.AddRule(b.Switch, shadow)
		} else {
			sc.Final.AddRule(b.Switch, shadow)
		}
	}
	hop := r.Intn(len(firstPath) - 1)
	u, v := firstPath[hop], firstPath[hop+1]
	parallel, _ := topo.AddLink(u, v)
	for k, cfg := range []*config.Config{sc.Init, sc.Final} {
		cfg.AddRule(u, network.Rule{
			Priority: 15, Match: sc.Specs[k].Class.Pattern(),
			Actions: []network.Action{network.Forward(parallel)},
		})
	}
	last := sc.Specs[len(sc.Specs)-1].Class
	src, _ := topo.HostByID(last.SrcHost)
	ports := topo.Ports(src.Switch)
	sc.Final.AddRule(src.Switch, network.Rule{
		Priority: 15, Match: sc.Specs[r.Intn(len(sc.Specs))].Class.Pattern(),
		Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
	})
	for i := 0; i < 12; i++ {
		sw := r.Intn(n)
		ports := topo.Ports(sw)
		rule := network.Rule{
			Priority: 1, Match: network.AnyPacket(),
			Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
		}
		switch {
		case i == 0:
			rule.Priority, rule.Match.InPort = 20, ports[0]
			sc.Final.AddRule(sw, rule)
		case i%2 == 0:
			sc.Final.AddRule(sw, rule) // successors appear without a behavior change
		default:
			sc.Init.AddRule(sw, rule) // ... and disappear
		}
	}
	ghost := sc.Specs[0]
	ghost.Class = config.Class{Name: "ghost", SrcHost: 4242, DstHost: ghost.Class.DstHost}
	sc.Specs = append(sc.Specs, ghost)
	return sc
}

// randomSteps is the careful step sequence — a wait between every pair of
// updates, cumulative tables at rule granularity — of a random
// permutation of the engine's units in which every finalize step follows
// its merge step. It leaves e.curTables at the initial tables.
func randomSteps(e *Engine, r *rand.Rand) []Step {
	path := r.Perm(len(e.units))
	pos := make([]int, len(path))
	for i, ui := range path {
		pos[ui] = i
	}
	for _, u := range e.units {
		if u.requires >= 0 && pos[u.requires] > pos[u.id] {
			i, j := pos[u.requires], pos[u.id]
			path[i], path[j] = path[j], path[i]
			pos[u.requires], pos[u.id] = j, i
		}
	}
	var steps []Step
	for n, ui := range path {
		u := e.units[ui]
		tbl := e.unitTable(u)
		e.curTables[u.sw] = tbl
		if n > 0 {
			steps = append(steps, Step{Wait: true})
		}
		steps = append(steps, Step{Switch: u.sw, Table: tbl.Clone(), IsRule: u.isRule, RuleAdd: u.add, Rule: u.rule})
	}
	for _, u := range e.units {
		e.curTables[u.sw] = e.sc.Init.Table(u.sw)
	}
	return steps
}

// TestOrderingAnalysisMatchesPerStepSearch: on random multi-class step
// sequences at every granularity, the incremental ordering analysis gives
// exactly the answers of the reference's per-step search — every affected
// vector, every advance index, every barrierNeeded and drainNeeded answer
// under three barrier schedules (none, as the DAG build runs; where a
// barrier is needed, as wait removal runs; at random) — and removeWaits
// and buildDAG produce the reference's output.
func TestOrderingAnalysisMatchesPerStepSearch(t *testing.T) {
	grans := []struct {
		name string
		g    grain
	}{
		{"switch", grain{}},
		{"rules", grain{rules: true}},
		{"2simple", grain{twoSimple: true}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		sc := sharedSwitchScenario(t, seed, 8+int(seed)%4)
		for _, g := range grans {
			e := newEngineShell(sc, g.g)
			r := rand.New(rand.NewSource(seed * 977))
			for round := 0; round < 3; round++ {
				name := fmt.Sprintf("seed%d/%s/order%d", seed, g.name, round)
				steps := randomSteps(e, r)
				if round == 1 {
					// The first analysis of this round starts just below the
					// stamp rewind and runs across it; the next one rewinds.
					if e.deps == nil {
						e.deps = &depScratch{}
					}
					e.deps.tick = math.MaxInt32/2 - 4
				}
				sharing := 0
				for _, schedule := range []string{"none", "needed", "random"} {
					d, ref := e.newDepAnalysis(), newRefAnalysis(e)
					for si, st := range steps {
						if st.Wait {
							continue
						}
						aff, refAff := d.affected(st.Switch, st.Table), ref.affected(st.Switch, st.Table)
						if !reflect.DeepEqual(aff, refAff) {
							t.Fatalf("%s/%s step %d: affected = %v, reference %v", name, schedule, si, aff, refAff)
						}
						need, refNeed := d.barrierNeeded(st.Switch, aff), ref.barrierNeeded(st.Switch, aff)
						if need != refNeed {
							t.Fatalf("%s/%s step %d: barrierNeeded = %v, reference %v", name, schedule, si, need, refNeed)
						}
						for pi := range ref.pending {
							got, want := d.drainNeeded(&d.pending[pi], st.Switch, aff), ref.drainNeeded(&ref.pending[pi], st.Switch, aff)
							if got != want {
								t.Fatalf("%s/%s step %d: drainNeeded(entry %d) = %v, reference %v", name, schedule, si, pi, got, want)
							}
						}
						if schedule == "needed" && need || schedule == "random" && r.Intn(4) == 0 {
							d.barrier()
							ref.barrier()
						}
						idx, refIdx := d.advance(st.Switch, st.Table, aff), ref.advance(st.Switch, st.Table, aff)
						if idx != refIdx {
							t.Fatalf("%s/%s step %d (sw%d): advance = %d, reference %d", name, schedule, si, st.Switch, idx, refIdx)
						}
						if n := countTrue(aff); n > sharing {
							sharing = n
						}
					}
					d.release()
				}
				if sharing < 2 && g.name == "switch" {
					t.Fatalf("%s: no step affects two classes; the scenario does not share switches", name)
				}
				if round == 1 && e.deps.tick > math.MaxInt32/2 {
					t.Fatalf("%s: the analyses did not cross the stamp rewind (tick %d)", name, e.deps.tick)
				}
				out, refOut := e.removeWaits(steps), refRemoveWaits(e, steps)
				if !reflect.DeepEqual(out, refOut) {
					t.Fatalf("%s: removeWaits keeps %d waits, reference %d", name, countWaits(out), countWaits(refOut))
				}
				for _, in := range [][]Step{steps, out} {
					dag, refDAG := e.buildDAG(in), refBuildDAG(e, in)
					if !reflect.DeepEqual(dag, refDAG) {
						t.Fatalf("%s: buildDAG differs from the reference:\n got %+v\nwant %+v", name, dag, refDAG)
					}
				}
			}
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
