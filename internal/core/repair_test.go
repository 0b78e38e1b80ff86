package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

func repairSession(t *testing.T, sc *config.Scenario, opts Options) *Session {
	t.Helper()
	s, err := NewSession(sc.Topo, sc.Init, sc.Specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRepairValidation(t *testing.T) {
	sc := config.Fig1RedBlue()
	s := repairSession(t, sc, Options{})
	if _, err := s.Repair(nil, nil); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("repair before any plan: err = %v, want ErrNoPlan", err)
	}
	plan, err := s.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	n := len(plan.Updates())
	for _, bad := range [][]int{{n}, {-1}, {0, 0}} {
		if _, err := s.Repair(bad, nil); !errors.Is(err, ErrBadCommit) {
			t.Fatalf("committed %v: err = %v, want ErrBadCommit", bad, err)
		}
	}
	// A committed step whose DAG predecessors are missing is rejected.
	closed := true
	for j, preds := range plan.DAG.Preds {
		if len(preds) > 0 {
			closed = false
			if _, err := s.Repair([]int{j}, nil); !errors.Is(err, ErrBadCommit) {
				t.Fatalf("non-closed {%d}: err = %v, want ErrBadCommit", j, err)
			}
			break
		}
	}
	if closed {
		t.Fatal("plan DAG has no dependency edge; validation case lost")
	}
	// Validation failures must not move the session.
	if d := config.Diff(s.Current(), sc.Final); len(d) != 0 {
		t.Fatalf("session moved off its configuration by rejected repairs: %v", d)
	}
}

// crashState reconstructs the configuration reached by committing the
// given plan updates from init.
func crashState(init *config.Config, plan *Plan, committed []int) *config.Config {
	crash := init.Clone()
	ups := plan.Updates()
	for _, j := range committed {
		crash.SetTable(ups[j].Switch, ups[j].Table.Clone())
	}
	return crash
}

// TestFaultRepairMetamorphicPrefix is the repair soundness test: for
// every example scenario and every plan step k, kill the update at step k
// — steps 0..k-1 committed — and Repair. The repair plan must be byte-
// identical to a fresh synthesis from the crash-state configuration (the
// session search is deterministic, so warm-resumed and cold search must
// agree exactly), and the composed trace — committed prefix, then repair
// plan — must reach the final configuration with every intermediate
// configuration satisfying every class specification.
func TestFaultRepairMetamorphicPrefix(t *testing.T) {
	cases := []*config.Scenario{
		config.Fig1RedGreen(),
		config.Fig1RedBlue(),
		config.Fig1RedBlueWaypoint(),
	}
	topo := topology.SmallWorld(60, 4, 0.3, 60)
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 2, Property: config.Reachability, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, sc)

	opts := Options{}
	for _, sc := range cases {
		base, err := Synthesize(sc, opts)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for k := 0; k <= len(base.Updates()); k++ {
			s := repairSession(t, sc, opts)
			if _, err := s.Synthesize(sc.Final); err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			committed := make([]int, k)
			for i := range committed {
				committed[i] = i
			}
			rep, err := s.Repair(committed, nil)
			if err != nil {
				t.Fatalf("%s k=%d: repair: %v", sc.Name, k, err)
			}
			if rep.Stats.RepairCommitted != k {
				t.Fatalf("%s k=%d: RepairCommitted = %d", sc.Name, k, rep.Stats.RepairCommitted)
			}
			crash := crashState(sc.Init, base, committed)
			// The composed execution: prefix states, then the repair plan's
			// states, every one spec-satisfying, ending exactly at final.
			for i, cfg := range base.Configs(sc.Init)[:k+1] {
				if !checkConfig(sc, cfg) {
					t.Fatalf("%s k=%d: committed prefix state %d violates the spec", sc.Name, k, i)
				}
			}
			repCfgs := rep.Configs(crash)
			for i, cfg := range repCfgs {
				if !checkConfig(sc, cfg) {
					t.Fatalf("%s k=%d: repair state %d violates the spec", sc.Name, k, i)
				}
			}
			if d := config.Diff(repCfgs[len(repCfgs)-1], sc.Final); len(d) != 0 {
				t.Fatalf("%s k=%d: composed plan misses final on %v", sc.Name, k, d)
			}
			// Metamorphic: warm repair == cold synthesis from the crash state.
			fresh, err := Synthesize(&config.Scenario{
				Name: sc.Name + "#fresh", Topo: sc.Topo,
				Init: crash, Final: sc.Final, Specs: sc.Specs,
			}, opts)
			if err != nil {
				t.Fatalf("%s k=%d: fresh synthesis from crash state: %v", sc.Name, k, err)
			}
			if got, want := rep.String(), fresh.String(); got != want {
				t.Fatalf("%s k=%d: repair diverged from fresh synthesis:\n got %s\nwant %s",
					sc.Name, k, got, want)
			}
			// The session advanced: it can serve the reverse update next.
			if d := config.Diff(s.Current(), sc.Final); len(d) != 0 {
				t.Fatalf("%s k=%d: session not at final after repair: %v", sc.Name, k, d)
			}
			if _, err := s.Synthesize(sc.Init); err != nil {
				t.Fatalf("%s k=%d: session unusable after repair: %v", sc.Name, k, err)
			}
		}
	}
}

// TestFaultRepairLadderEscalates: a repair target with no switch-
// granularity ordering (the double-diamond gadget) must not fail with
// ErrNoOrdering — the fallback ladder escalates the stuck component to a
// 2-simple search and returns a valid careful plan.
func TestFaultRepairLadderEscalates(t *testing.T) {
	topoI := topology.SmallWorld(40, 4, 0.3, 21)
	scInf, err := config.Infeasible(topoI, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Control: an ordinary synthesis of the same delta is impossible.
	if _, err := Synthesize(scInf, Options{}); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("control synthesis: err = %v, want ErrNoOrdering", err)
	}
	s := repairSession(t, scInf, Options{})
	if _, err := s.Synthesize(scInf.Init); err != nil {
		t.Fatalf("no-op synthesis: %v", err)
	}
	rep, err := s.Repair(nil, scInf.Final)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.Stats.EscalatedComponents == 0 {
		t.Fatal("no component escalated to 2-simple granularity")
	}
	if rep.Stats.TwoPhaseComponents != 0 {
		t.Fatalf("TwoPhaseComponents = %d; 2-simple escalation should have sufficed",
			rep.Stats.TwoPhaseComponents)
	}
	verifyPlan(t, scInf, rep)
	if d := config.Diff(s.Current(), scInf.Final); len(d) != 0 {
		t.Fatalf("session not at final after escalated repair: %v", d)
	}
}

// TestFaultRepairRungDeadline: the ladder's 2-simple rung searches under
// the repair's own context, so a deadline that passes halfway through the
// rung's search — after the rung's sub-synthesis arrived — stops it with
// ErrTimeout instead of the rung finishing on a clock of its own.
func TestFaultRepairRungDeadline(t *testing.T) {
	scInf, err := config.Infeasible(topology.SmallWorld(40, 4, 0.3, 21), config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := repairSession(t, scInf, Options{})
	rung := func(ctx context.Context) error {
		_, twoPhase, err := s.repairFallback(ctx, "rung", scInf.Specs, scInf.UpdatingSwitches(), scInf.Final)
		if err == nil && twoPhase {
			t.Fatal("the 2-simple rung found no ordering; the ladder fell through to two-phase")
		}
		return err
	}
	full := expiresAfter(math.MaxInt32)
	if err := rung(full); err != nil {
		t.Fatal(err)
	}
	polls := full.polls.Load()
	if polls < 2 {
		t.Fatalf("the rung polled its deadline %d time(s): on arrival only, never as it searched", polls)
	}
	if err := rung(expiresAfter(polls / 2)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline at poll %d of %d: err = %v, want ErrTimeout", polls/2, polls, err)
	}
}

// swapScenario has no careful update at any granularity: one class must
// keep visiting both A and B while its path flips from I-A-B-E to
// I-B-A-E. Updating I first skips A, A first skips B, B first forwards
// in a loop — and with a single class, rule granularity and 2-simple
// collapse to the same three cases. Only version-tagging can do it. With
// bystander, a switch X hangs off E, and a second class X -> h2 that the
// flip's rules do not match enters there.
func swapScenario(t *testing.T, bystander bool) *config.Scenario {
	t.Helper()
	const (
		swI, swA, swB, swE, swX = 0, 1, 2, 3, 4
		h1, h2, h3              = 100, 101, 102
	)
	topo := topology.New("swap", 4)
	if bystander {
		topo = topology.New("swap", 5)
	}
	topo.AddLink(swI, swA)
	topo.AddLink(swI, swB)
	topo.AddLink(swA, swB)
	topo.AddLink(swA, swE)
	topo.AddLink(swB, swE)
	topo.AddHost(h1, swI)
	topo.AddHost(h2, swE)
	cl := config.Class{Name: "h1->h2", SrcHost: h1, DstHost: h2}
	init := config.New()
	if err := config.InstallPath(init, topo, cl, []int{swI, swA, swB, swE}, 10); err != nil {
		t.Fatal(err)
	}
	specs := []config.ClassSpec{{Class: cl, Formula: ltl.And(
		ltl.Reachability(swI, swE),
		ltl.And(ltl.Waypoint(swI, swA, swE), ltl.Waypoint(swI, swB, swE)),
	)}}
	if bystander {
		topo.AddLink(swX, swE)
		topo.AddHost(h3, swX)
		by := config.Class{Name: "h3->h2", SrcHost: h3, DstHost: h2}
		if err := config.InstallPath(init, topo, by, []int{swX, swE}, 10); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, config.ClassSpec{Class: by, Formula: ltl.Reachability(swX, swE)})
	}
	tmp := config.New()
	if err := config.InstallPath(tmp, topo, cl, []int{swI, swB, swA, swE}, 20); err != nil {
		t.Fatal(err)
	}
	final := init.Clone()
	for _, sw := range []int{swI, swA, swB} {
		final.SetTable(sw, tmp.Table(sw).Clone())
	}
	return &config.Scenario{
		Name:  "swap",
		Topo:  topo,
		Init:  init,
		Final: final,
		Specs: specs,
	}
}

// TestFaultRepairLadderTwoPhase: when even the escalated careful search
// is impossible, the ladder's last rung version-tags the stuck component.
// The resulting plan is consistent by construction — verified here on the
// operational model under random interleavings — lands exactly on the
// target tables, and tags only the classes the stuck search checked.
func TestFaultRepairLadderTwoPhase(t *testing.T) {
	sc := swapScenario(t, false)
	// Control: careful search is impossible at every granularity.
	for _, opts := range []Options{
		{},
		{RuleGranularity: true},
		{TwoSimple: true},
	} {
		if _, err := Synthesize(sc, opts); !errors.Is(err, ErrNoOrdering) {
			t.Fatalf("control %+v: err = %v, want ErrNoOrdering", opts, err)
		}
	}
	s := repairSession(t, sc, Options{})
	if _, err := s.Synthesize(sc.Init); err != nil {
		t.Fatalf("no-op synthesis: %v", err)
	}
	rep, err := s.Repair(nil, sc.Final)
	if err != nil {
		t.Fatalf("repair must fall back to two-phase, got: %v", err)
	}
	if rep.Stats.TwoPhaseComponents == 0 {
		t.Fatal("TwoPhaseComponents = 0; the last rung did not report")
	}
	if rep.Waits() == 0 {
		t.Fatal("two-phase repair plan carries no wait barriers")
	}
	// The plan must land exactly on the target tables (tags collected).
	cfgs := rep.Configs(sc.Init)
	if d := config.Diff(cfgs[len(cfgs)-1], sc.Final); len(d) != 0 {
		t.Fatalf("two-phase repair misses final on %v", d)
	}
	if d := config.Diff(s.Current(), sc.Final); len(d) != 0 {
		t.Fatalf("session not at final after two-phase repair: %v", d)
	}
	// Consistency on the operational model: every packet injected during
	// the update is delivered and traverses both waypoints.
	cl := sc.Specs[0].Class
	for seed := int64(0); seed < 20; seed++ {
		n := network.NewNet(sc.Topo, sc.Init.Tables(), rep.Commands())
		r := rand.New(rand.NewSource(seed))
		injected := 0
		n.RunRandom(r, func(step int) bool {
			if step%2 == 0 && injected < 15 {
				n.Inject(cl.SrcHost, cl.Packet())
				injected++
			}
			return injected < 15
		})
		n.Drain()
		for id := 0; id < injected; id++ {
			if !n.DeliveredTo(id, cl.DstHost) {
				t.Fatalf("seed %d: packet %d lost during two-phase repair", seed, id)
			}
			sawA, sawB := false, false
			for _, o := range n.TraceOf(id) {
				if o.Sw == 1 {
					sawA = true
				}
				if o.Sw == 2 {
					sawB = true
				}
			}
			if !sawA || !sawB {
				t.Fatalf("seed %d: packet %d skipped a waypoint (A=%v B=%v)", seed, id, sawA, sawB)
			}
		}
	}

	// The ladder gets the classes the stuck search checked, also when the
	// search ran joint: the bystander class no changed rule matches is not
	// tagged, so its ingress switch stays out of the plan.
	sc = swapScenario(t, true)
	s = repairSession(t, sc, Options{NoDecomposition: true})
	if _, err := s.Synthesize(sc.Init); err != nil {
		t.Fatalf("no-op synthesis: %v", err)
	}
	if rep, err = s.Repair(nil, sc.Final); err != nil {
		t.Fatalf("joint repair must fall back to two-phase, got: %v", err)
	}
	if rep.Stats.TwoPhaseComponents != 1 {
		t.Fatalf("joint repair: TwoPhaseComponents = %d, want 1", rep.Stats.TwoPhaseComponents)
	}
	scope := map[int]bool{0: true} // the ingress switch of h1->h2, the one class the flip affects
	for _, sw := range config.Diff(sc.Init, sc.Final) {
		scope[sw] = true
	}
	for _, st := range rep.Updates() {
		if !scope[st.Switch] {
			t.Fatalf("joint repair updates sw%d, outside the diff and the affected classes' ingress switches", st.Switch)
		}
	}
}

// TestRepairOverInfeasibleMemo: the plan cache memoizes (crash
// configuration, target) as infeasible after a plain synthesis fails, and
// a repair to that target must still search and run the fallback ladder —
// the memo answers plain synthesis only — returning what a session with no
// cache returns, on both rungs of the ladder.
func TestRepairOverInfeasibleMemo(t *testing.T) {
	scInf, err := config.Infeasible(topology.SmallWorld(40, 4, 0.3, 21), config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*config.Scenario{scInf, swapScenario(t, false)} {
		repair := func(cache *PlanCache) *Plan {
			t.Helper()
			s := repairSession(t, sc, Options{})
			if cache != nil {
				s.SetCache(cache)
			}
			if _, err := s.Synthesize(sc.Init); err != nil {
				t.Fatalf("%s: no-op synthesis: %v", sc.Name, err)
			}
			if cache != nil {
				for n := 0; n < 2; n++ {
					if _, err := s.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) {
						t.Fatalf("%s: plain synthesis %d: err = %v, want ErrNoOrdering", sc.Name, n, err)
					}
				}
				if !s.LastStats().CacheHit {
					t.Fatalf("%s: the repeat was not answered by the infeasibility memo", sc.Name)
				}
			}
			rep, err := s.Repair(nil, sc.Final)
			if err != nil {
				t.Fatalf("%s: repair: %v", sc.Name, err)
			}
			if rep.Stats.CacheHit {
				t.Fatalf("%s: repair answered from the cache", sc.Name)
			}
			return rep
		}
		want, got := repair(nil), repair(NewPlanCache(0))
		if planDigest(got) != planDigest(want) ||
			got.Stats.EscalatedComponents != want.Stats.EscalatedComponents ||
			got.Stats.TwoPhaseComponents != want.Stats.TwoPhaseComponents {
			t.Fatalf("%s: repair over the memo = %s (escalated %d, two-phase %d), without a cache %s (%d, %d)",
				sc.Name, planDigest(got), got.Stats.EscalatedComponents, got.Stats.TwoPhaseComponents,
				planDigest(want), want.Stats.EscalatedComponents, want.Stats.TwoPhaseComponents)
		}
		if want.Stats.EscalatedComponents+want.Stats.TwoPhaseComponents == 0 {
			t.Fatalf("%s: the repair never reached the fallback ladder", sc.Name)
		}
	}
}

// TestFaultStatsCommittedComponents: a decomposed run canceled after its
// first component must report exactly that component as committed via
// Session.LastStats, a completed run reports all of them, and a joint run
// reports its one component.
func TestFaultStatsCommittedComponents(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	s := repairSession(t, sc, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testAfterComponent = func(i int) {
		if i == 0 {
			cancel()
		}
	}
	defer func() { testAfterComponent = nil }()
	var err error
	atProcs(1, func() { _, err = s.SynthesizeContext(ctx, sc.Final) }) // the hook runs between components searched one at a time
	if err == nil {
		t.Fatal("canceled decomposed run reported success")
	}
	got := s.LastStats().CommittedComponents
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("CommittedComponents after cancel = %v, want [0]", got)
	}
	testAfterComponent = nil
	plan, err := s.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	gotAll := plan.Stats.CommittedComponents
	if len(gotAll) != len(want) {
		t.Fatalf("CommittedComponents after success = %v, want %v", gotAll, want)
	}
	for i := range want {
		if gotAll[i] != want[i] {
			t.Fatalf("CommittedComponents after success = %v, want %v", gotAll, want)
		}
	}

	// A joint search is a one-component run, and reports as one.
	s = repairSession(t, sc, Options{NoDecomposition: true})
	if plan, err = s.Synthesize(sc.Final); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.Components != 1 || len(st.ComponentElapsed) != 1 ||
		len(st.CommittedComponents) != 1 || st.CommittedComponents[0] != 0 {
		t.Fatalf("joint run: Components %d, ComponentElapsed %v, CommittedComponents %v; want 1, one entry, [0]",
			st.Components, st.ComponentElapsed, st.CommittedComponents)
	}
}
