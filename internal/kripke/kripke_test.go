package kripke

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// lineScene: h100 - sw0 - sw1 - sw2 - h101, class routed along the line.
func lineScene() (*topology.Topology, *config.Config, config.Class) {
	topo := topology.New("line", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	if err := config.InstallPath(cfg, topo, cl, []int{0, 1, 2}, 10); err != nil {
		panic(err)
	}
	return topo, cfg, cl
}

// stateIndex maps every state of k's arena to its id.
func stateIndex(k *K) map[State]int {
	index := make(map[State]int, k.NumStates())
	for id := 0; id < k.NumStates(); id++ {
		index[k.StateAt(id)] = id
	}
	return index
}

func TestBuildStructure(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	// States: sw0 has ports {1(link),2(host)} => 2 arrival; sw1 ports
	// {1,2} => 2; sw2 ports {1,2(host)} => 2; plus 2 egress states.
	if k.NumStates() != 8 {
		t.Fatalf("states = %d, want 8", k.NumStates())
	}
	if len(k.Init()) != 2 {
		t.Fatalf("init = %v, want 2 host ingress states", k.Init())
	}
	// Walk the forwarding chain from the source ingress state.
	src, _ := topo.HostByID(100)
	q := stateIndex(k)[State{Kind: Arrival, Sw: src.Switch, Pt: src.Port}]
	var seq []State
	for !k.IsSink(q) {
		if n := len(k.Succ(q)); n != 1 {
			t.Fatalf("state %v has %d successors", k.StateAt(q), n)
		}
		q = k.Succ(q)[0]
		seq = append(seq, k.StateAt(q))
	}
	last := k.StateAt(q)
	if last.Kind != Egress || last.Sw != 2 {
		t.Fatalf("chain ends at %v, want egress at sw2", last)
	}
	if len(seq) != 3 { // sw1 arrival, sw2 arrival, egress
		t.Fatalf("chain = %v", seq)
	}
}

func TestDropStateIsSink(t *testing.T) {
	topo, cfg, cl := lineScene()
	cfg.SetTable(1, nil) // sw1 drops
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := topo.HostByID(100)
	q := stateIndex(k)[State{Kind: Arrival, Sw: src.Switch, Pt: src.Port}]
	q = k.Succ(q)[0] // sw1 arrival
	if !k.IsSink(q) || k.StateAt(q).Sw != 1 {
		t.Fatalf("drop state should be a sink at sw1, got %v", k.StateAt(q))
	}
}

func TestBuildRejectsLoop(t *testing.T) {
	topo := topology.New("tri", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddLink(2, 0)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	for _, hop := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		pt, _ := topo.PortToward(hop[0], hop[1])
		cfg.AddRule(hop[0], network.Rule{
			Priority: 10, Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(pt)},
		})
	}
	_, err := Build(topo, cfg, cl)
	var loop *ErrLoop
	if !errors.As(err, &loop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
	if len(loop.Cycle) == 0 {
		t.Fatal("loop error should carry the cycle")
	}
}

func TestBuildRejectsModification(t *testing.T) {
	topo, cfg, cl := lineScene()
	tbl := cfg.Table(1).Clone()
	tbl[0].Actions = append([]network.Action{network.SetField(network.FieldTyp, 9)}, tbl[0].Actions...)
	cfg.SetTable(1, tbl)
	if _, err := Build(topo, cfg, cl); err == nil {
		t.Fatal("expected modification error")
	}
}

func TestUpdateSwitchAndRevert(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotSuccs(k)
	delta, err := k.UpdateSwitch(1, nil) // sw1 now drops
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Changed()) != len(k.StatesOf(1)) {
		t.Fatalf("changed = %v", delta.Changed())
	}
	src, _ := topo.HostByID(100)
	q := stateIndex(k)[State{Kind: Arrival, Sw: src.Switch, Pt: src.Port}]
	q = k.Succ(q)[0]
	if !k.IsSink(q) {
		t.Fatal("sw1 should drop after update")
	}
	k.Revert(delta)
	if !succsEqual(before, snapshotSuccs(k)) {
		t.Fatal("revert did not restore transitions")
	}
}

// TestReapply checks that a reverted delta can be re-installed wholesale:
// Reapply must reproduce exactly the post-update transitions (succ and
// pred) without recomputing the forwarding semantics.
func TestReapply(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotSuccs(k)
	delta, err := k.UpdateSwitch(1, nil) // sw1 now drops
	if err != nil {
		t.Fatal(err)
	}
	after := snapshotSuccs(k)
	for cycle := 0; cycle < 3; cycle++ {
		k.Revert(delta)
		if !succsEqual(before, snapshotSuccs(k)) {
			t.Fatalf("cycle %d: revert did not restore transitions", cycle)
		}
		k.Reapply(delta)
		if !succsEqual(after, snapshotSuccs(k)) {
			t.Fatalf("cycle %d: reapply did not reproduce the update", cycle)
		}
		// pred must stay consistent with succ throughout.
		for id := 0; id < k.NumStates(); id++ {
			for _, s := range k.Succ(id) {
				found := false
				for _, p := range k.Pred(s) {
					if p == id {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("cycle %d: pred[%d] missing %d", cycle, s, id)
				}
			}
		}
	}
	if k.Table(1) != nil {
		t.Fatalf("reapply did not install the new table")
	}
	k.Revert(delta)
}

func TestUpdateDetectsLoop(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Point sw1 back at sw0: sw0 forwards to sw1, sw1 forwards to sw0.
	p10, _ := topo.PortToward(1, 0)
	tbl := network.Table{{
		Priority: 10, Match: cl.Pattern(),
		Actions: []network.Action{network.Forward(p10)},
	}}
	delta, err := k.UpdateSwitch(1, tbl)
	var loop *ErrLoop
	if !errors.As(err, &loop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
	k.Revert(delta)
	if _, err := k.UpdateSwitch(1, k.Table(1)); err != nil {
		t.Fatalf("revert left structure broken: %v", err)
	}
}

func TestHoldsAt(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := topo.HostByID(100)
	q := stateIndex(k)[State{Kind: Arrival, Sw: src.Switch, Pt: src.Port}]
	if !k.HoldsAt(q, ltl.Prop{Field: ltl.FieldSwitch, Value: 0}) {
		t.Error("sw=0 should hold at ingress")
	}
	if k.HoldsAt(q, ltl.Prop{Field: ltl.FieldSwitch, Value: 1}) {
		t.Error("sw=1 should not hold at ingress")
	}
	if !k.HoldsAt(q, ltl.Prop{Field: ltl.FieldPort, Value: int(src.Port)}) {
		t.Error("pt should hold at ingress")
	}
	if !k.HoldsAt(q, ltl.Prop{Field: "src", Value: 100}) {
		t.Error("class src field should hold")
	}
	if !k.HoldsAt(q, ltl.Prop{Field: "dst", Value: 101}) {
		t.Error("class dst field should hold")
	}
	if k.HoldsAt(q, ltl.Prop{Field: "bogus", Value: 1}) {
		t.Error("unknown fields are false")
	}
}

func TestTracesEnumeration(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := topo.HostByID(100)
	q := stateIndex(k)[State{Kind: Arrival, Sw: src.Switch, Pt: src.Port}]
	traces := k.Traces(q, 10)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1 (deterministic line)", len(traces))
	}
	if len(traces[0]) != 4 {
		t.Fatalf("trace = %v, want length 4", traces[0])
	}
}

func TestPredConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	topo := topology.WAN("w", 8, 3)
	topo.AddHost(100, 0)
	topo.AddHost(101, 5)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	cfg := config.New()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []*Delta
	for step := 0; step < 40; step++ {
		sw := r.Intn(8)
		var tbl network.Table
		if r.Intn(2) == 0 {
			ports := topo.Ports(sw)
			tbl = network.Table{{
				Priority: 10, Match: cl.Pattern(),
				Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
			}}
		}
		d, err := k.UpdateSwitch(sw, tbl)
		if err != nil {
			k.Revert(d)
			continue
		}
		deltas = append(deltas, d)
		checkPredInvariant(t, k)
		if len(deltas) > 2 && r.Intn(3) == 0 {
			last := deltas[len(deltas)-1]
			deltas = deltas[:len(deltas)-1]
			k.Revert(last)
			checkPredInvariant(t, k)
		}
	}
}

func checkPredInvariant(t *testing.T, k *K) {
	t.Helper()
	// pred must be exactly the inverse of succ.
	count := map[[2]int]int{}
	for v := 0; v < k.NumStates(); v++ {
		for _, u := range k.Succ(v) {
			count[[2]int{v, u}]++
		}
	}
	for u := 0; u < k.NumStates(); u++ {
		for _, v := range k.Pred(u) {
			count[[2]int{v, u}]--
		}
	}
	for e, c := range count {
		if c != 0 {
			t.Fatalf("pred/succ mismatch on edge %v: %d", e, c)
		}
	}
}

func snapshotSuccs(k *K) [][]int {
	out := make([][]int, k.NumStates())
	for i := range out {
		out[i] = append([]int(nil), k.Succ(i)...)
	}
	return out
}

func succsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestEmptyDelta: replacing a table with a behaviorally identical one (or
// one whose differences do not touch this class) must yield an empty
// delta, the signal the synthesis engine uses to skip the checker.
func TestEmptyDelta(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Same forwarding plus an unrelated rule for another flow: the class's
	// transitions are unchanged.
	tbl := cfg.Table(1).Clone()
	tbl = append(tbl, network.Rule{
		Priority: 5, Match: network.MatchFlow(200, 201),
		Actions: []network.Action{network.Forward(topo.Ports(1)[0])},
	})
	d, err := k.UpdateSwitch(1, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed()) != 0 {
		t.Fatalf("changed = %v, want empty delta", d.Changed())
	}
	if !k.Table(1).Equal(tbl) {
		t.Fatal("table must still be installed on an empty delta")
	}
	k.Revert(d)
	if !k.Table(1).Equal(cfg.Table(1)) {
		t.Fatal("revert must restore the old table")
	}
	checkPredInvariant(t, k)
}

// TestRebind: rebinding in place to another configuration must produce
// exactly the transitions a fresh Build of that configuration produces,
// report only the switches whose class forwarding changed, and keep the
// state arena (ids, init states) intact.
func TestRebind(t *testing.T) {
	topo := topology.New("diamond", 4)
	topo.AddLink(0, 1)
	topo.AddLink(0, 2)
	topo.AddLink(1, 3)
	topo.AddLink(2, 3)
	topo.AddHost(100, 0)
	topo.AddHost(101, 3)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	up := config.New()
	if err := config.InstallPath(up, topo, cl, []int{0, 1, 3}, 10); err != nil {
		t.Fatal(err)
	}
	down := config.New()
	if err := config.InstallPath(down, topo, cl, []int{0, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	k, err := Build(topo, up, cl)
	if err != nil {
		t.Fatal(err)
	}
	initBefore := append([]int(nil), k.Init()...)
	changed, touched, err := k.Rebind(down)
	if err != nil {
		t.Fatal(err)
	}
	// sw0 redirects, sw1 loses its rule, sw2 gains one; sw3 forwards to
	// the host in both configurations (identical table: not even visited).
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, sw := range changed {
		if !want[sw] {
			t.Fatalf("unexpected changed switch %d (changed=%v)", sw, changed)
		}
		delete(want, sw)
	}
	if len(want) != 0 {
		t.Fatalf("switches not reported as changed: %v (changed=%v)", want, changed)
	}
	// Every table replacement (here: the same three switches) is reported
	// as touched, the signal table-tracking checkers rebind on.
	if len(touched) != 3 {
		t.Fatalf("touched = %v, want the three differing switches", touched)
	}
	fresh, err := Build(topo, down, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !succsEqual(snapshotSuccs(k), snapshotSuccs(fresh)) {
		t.Fatal("rebound transitions differ from a fresh build")
	}
	checkPredInvariant(t, k)
	if !intsEqual(initBefore, k.Init()) {
		t.Fatal("rebind must not disturb initial states")
	}
	// Rebinding to the configuration already installed is a no-op.
	changed, touched, err = k.Rebind(down)
	if err != nil || len(changed) != 0 || len(touched) != 0 {
		t.Fatalf("idempotent rebind: changed=%v touched=%v err=%v", changed, touched, err)
	}
	// And back again: the structure keeps tracking the target.
	if _, _, err := k.Rebind(up); err != nil {
		t.Fatal(err)
	}
	freshUp, err := Build(topo, up, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !succsEqual(snapshotSuccs(k), snapshotSuccs(freshUp)) {
		t.Fatal("second rebind diverged from a fresh build")
	}
}

// TestRebindDetectsLoop: a target configuration that forwards the class
// in a cycle is reported, and the structure stays consistently bound to
// that configuration so the session can rebind elsewhere afterwards.
func TestRebindDetectsLoop(t *testing.T) {
	topo := topology.New("tri", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddLink(2, 0)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	good := config.New()
	if err := config.InstallPath(good, topo, cl, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	bad := config.New()
	for _, hop := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		pt, _ := topo.PortToward(hop[0], hop[1])
		bad.AddRule(hop[0], network.Rule{
			Priority: 10, Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(pt)},
		})
	}
	k, err := Build(topo, good, cl)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ErrLoop
	if _, _, err := k.Rebind(bad); !errors.As(err, &loop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
	// Recovery: rebind back to the loop-free configuration.
	if _, _, err := k.Rebind(good); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(topo, good, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !succsEqual(snapshotSuccs(k), snapshotSuccs(fresh)) {
		t.Fatal("structure did not recover after a loop rebind")
	}
}

// TestUpdateSwitchesIsOneStep: a target is applied as one step, so a loop
// that only the configurations between the endpoints have — here sw1
// turned back toward sw0 before sw0 stops feeding it — is not reported,
// a loop the target itself has is, and Revert puts back exactly the
// tables and transitions the step replaced, in both cases.
func TestUpdateSwitchesIsOneStep(t *testing.T) {
	topo := topology.New("ring", 4)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		topo.AddLink(l[0], l[1])
	}
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := config.Class{SrcHost: 100, DstHost: 101}
	good := config.New()
	if err := config.InstallPath(good, topo, cl, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	toward := func(cfg *config.Config, from, to int) {
		cfg.SetTable(from, network.Table{{
			Priority: 10, Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(mustPortToward(t, topo, from, to))},
		}})
	}
	target := good.Clone() // 0 -> 3 -> 2, with sw1 left pointing back at sw0
	toward(target, 1, 0)
	toward(target, 0, 3)
	toward(target, 3, 2)
	cyclic := good.Clone() // 0 -> 1 -> 0
	toward(cyclic, 1, 0)

	k, err := Build(topo, good, cl)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotSuccs(k)
	if d, err := k.UpdateSwitch(1, target.Table(1)); err == nil {
		t.Fatal("sw1 alone must loop: the scenario does not exercise a transient loop")
	} else {
		k.Revert(d)
	}

	d, err := k.UpdateSwitches(target, []int{1, 0, 3})
	if err != nil {
		t.Fatalf("loop-free target refused: %v", err)
	}
	if d.NumSwitches() != 3 || d.SwitchAt(0) != 1 || d.SwitchAt(2) != 3 {
		t.Fatalf("delta lists %d switches, want 1, 0, 3", d.NumSwitches())
	}
	fresh, err := Build(topo, target, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !succsEqual(snapshotSuccs(k), snapshotSuccs(fresh)) {
		t.Fatal("the step did not reach the target's transitions")
	}
	if len(d.Changed()) == 0 {
		t.Fatal("no changed states reported")
	}
	k.Revert(d)

	d, err = k.UpdateSwitches(cyclic, []int{1})
	var loop *ErrLoop
	if !errors.As(err, &loop) || d == nil {
		t.Fatalf("cyclic target: delta %v, err %v, want the applied delta and ErrLoop", d, err)
	}
	k.Revert(d)

	if !succsEqual(snapshotSuccs(k), before) {
		t.Fatal("reverts did not restore the transitions")
	}
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		if !k.Table(sw).Equal(good.Table(sw)) {
			t.Fatalf("reverts left a foreign table on sw%d", sw)
		}
	}
	checkPredInvariant(t, k)
}

// TestAppendSwitches: the shared counterexample-switch extraction must
// deduplicate switches in first-appearance order, honor entries already
// present in dst, and reuse the caller's buffer without allocating when
// capacity suffices.
func TestAppendSwitches(t *testing.T) {
	topo, cfg, cl := lineScene()
	k, err := Build(topo, cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	// Collect one arrival state per switch, plus duplicates.
	var ids []int
	for _, sw := range []int{1, 1, 0, 2, 0, 1} {
		ids = append(ids, k.StatesOf(sw)[0])
	}
	got := k.AppendSwitches(nil, ids)
	want := []int{1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("AppendSwitches = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSwitches = %v, want %v", got, want)
		}
	}
	// Entries already in dst are deduplicated against too.
	pre := k.AppendSwitches([]int{1}, ids)
	if len(pre) != 3 || pre[0] != 1 || pre[1] != 0 || pre[2] != 2 {
		t.Fatalf("AppendSwitches with seeded dst = %v, want [1 0 2]", pre)
	}
	// A pooled buffer with enough capacity is reused, not reallocated.
	buf := make([]int, 0, 8)
	out := k.AppendSwitches(buf, ids)
	if &out[:1][0] != &buf[:1][0] {
		t.Fatal("AppendSwitches reallocated despite sufficient capacity")
	}
	// ErrLoop carries ids consistent with its states, so the loop path of
	// the engine can use the same helper.
	bad := cfg.Clone()
	bad.SetTable(1, network.Table{{
		Priority: 99, Match: cl.Pattern(),
		Actions: []network.Action{network.Forward(mustPortToward(t, topo, 1, 0))},
	}})
	bad.SetTable(0, network.Table{
		{Priority: 99, Match: cl.Pattern(),
			Actions: []network.Action{network.Forward(mustPortToward(t, topo, 0, 1))}},
	})
	_, err = Build(topo, bad, cl)
	var loop *ErrLoop
	if !errors.As(err, &loop) {
		t.Fatalf("err = %v, want *ErrLoop", err)
	}
	if len(loop.IDs) != len(loop.Cycle) {
		t.Fatalf("loop IDs/Cycle length mismatch: %d vs %d", len(loop.IDs), len(loop.Cycle))
	}
	k2, err := Build(topo, cfg, cl) // any structure over the same topology
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range loop.IDs {
		if k2.StateAt(id) != loop.Cycle[i] {
			t.Fatalf("loop id %d resolves to %v, want %v", id, k2.StateAt(id), loop.Cycle[i])
		}
	}
	sws := k2.AppendSwitches(nil, loop.IDs)
	if len(sws) != 2 {
		t.Fatalf("loop switches = %v, want the two looping switches", sws)
	}
}

func mustPortToward(t *testing.T, topo *topology.Topology, from, to int) topology.Port {
	t.Helper()
	p, ok := topo.PortToward(from, to)
	if !ok {
		t.Fatalf("no port from sw%d toward sw%d", from, to)
	}
	return p
}

// refFindCycle is findCycle as it was before the explicit stack: a
// recursive colouring DFS with a colour map (or array, in whole-structure
// mode) and a parent map per call. Kept as the oracle for
// TestFindCycleMatchesRecursiveReference.
func refFindCycle(k *K, from []int) []int {
	const (
		gray  = 1
		black = 2
	)
	color := map[int]uint8{}
	parent := map[int]int{}
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		for _, u := range k.Succ(v) {
			switch color[u] {
			case 0:
				parent[u] = v
				if dfs(u) {
					return true
				}
			case gray:
				// Found a cycle u ... v -> u.
				cycle = append(cycle, u)
				for w := v; w != u; w = parent[w] {
					cycle = append(cycle, w)
				}
				return true
			}
		}
		color[v] = black
		return false
	}
	roots := from
	if roots == nil {
		roots = make([]int, k.NumStates())
		for i := range roots {
			roots[i] = i
		}
	}
	for _, v := range roots {
		if color[v] == 0 {
			parent[v] = v
			if dfs(v) {
				return cycle
			}
		}
	}
	return nil
}

// randomForwarding builds the class structure of a configuration in
// which every switch forwards the class out of one or two random ports
// (or drops it): a random functional graph with some branching, so
// forwarding loops — self-contained, nested, reachable from a few states
// only — are the rule. Arena.Build would reject it, so the structure is
// filled the way Build fills one, without the final loop check.
func randomForwarding(t *testing.T, topo *topology.Topology, cl config.Class, r *rand.Rand, loopy float64) *K {
	t.Helper()
	cfg := config.New()
	k := NewArena(topo).newK(cfg, cl)
	dst, _ := topo.HostByID(cl.DstHost)
	for sw := 0; sw < topo.NumSwitches(); sw++ {
		var acts []network.Action
		links := topo.Neighbors(sw)
		switch {
		case sw == dst.Switch:
			acts = append(acts, network.Forward(dst.Port))
		case r.Float64() < loopy:
			acts = append(acts, network.Forward(links[r.Intn(len(links))].LocalPort))
			if r.Intn(3) == 0 {
				acts = append(acts, network.Forward(links[r.Intn(len(links))].LocalPort))
			}
		default:
			// Towards the destination: never closes a loop by itself.
			if p := topo.ShortestPath(sw, dst.Switch); len(p) > 1 {
				pt, _ := topo.PortToward(sw, p[1])
				acts = append(acts, network.Forward(pt))
			}
		}
		if len(acts) > 0 {
			cfg.SetTable(sw, network.Table{{Priority: 10, Match: cl.Pattern(), Actions: acts}})
		}
		if _, err := k.recomputeSwitch(sw, cfg.Table(sw)); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// TestFindCycleMatchesRecursiveReference: on random structures with
// injected forwarding loops, the explicit-stack search returns the same
// state ids in the same order as the recursive reference, scanning the
// whole structure and from random root lists (the UpdateSwitch and
// Rebind modes) — including lists with repeated and unreachable roots,
// and searches that find nothing — and keeps doing so when one pooled
// scratch serves structures of different sizes in turn.
func TestFindCycleMatchesRecursiveReference(t *testing.T) {
	cycles, clean := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		topo := topology.SmallWorld(12+int(seed%5)*9, 4, 0.3, seed)
		topo.AddHost(100, 0)
		topo.AddHost(101, topo.NumSwitches()-1)
		cl := config.Class{SrcHost: 100, DstHost: 101}
		k := randomForwarding(t, topo, cl, r, []float64{0, 0.05, 0.3, 1}[seed%4])
		check := func(mode string, from []int) {
			got, want := k.findCycle(from), refFindCycle(k, from)
			if !intsEqual(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d %s: findCycle = %v, reference %v", seed, mode, got, want)
			}
			if got == nil {
				clean++
				return
			}
			cycles++
			for i, v := range got {
				// A cycle is reported against the direction of its edges.
				if next := got[(i+len(got)-1)%len(got)]; !slices.Contains(k.Succ(v), next) {
					t.Fatalf("seed %d %s: reported cycle %v has no edge %d -> %d", seed, mode, got, v, next)
				}
			}
		}
		check("whole", nil)
		for round := 0; round < 20; round++ {
			from := make([]int, 1+r.Intn(6))
			for i := range from {
				from[i] = r.Intn(k.NumStates())
			}
			check("from", from)
		}
		check("from-empty", []int{})
	}
	if cycles < 100 || clean < 100 {
		t.Fatalf("searches found %d cycles and %d clean structures; the scenarios cover one side only", cycles, clean)
	}
}
