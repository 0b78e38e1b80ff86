package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// checkConfig verifies a static configuration against every class spec
// with a fresh incremental checker (treating forwarding loops as
// violations).
func checkConfig(sc *config.Scenario, cfg *config.Config) bool {
	for _, cs := range sc.Specs {
		k, err := kripke.Build(sc.Topo, cfg, cs.Class)
		if err != nil {
			return false
		}
		chk, err := mc.NewIncremental(k, cs.Formula)
		if err != nil {
			return false
		}
		if !chk.Check().OK {
			return false
		}
	}
	return true
}

// verifyPlan checks plan soundness: the plan's updates cover exactly the
// diff, each switch/unit once, and every intermediate configuration
// satisfies every spec.
func verifyPlan(t *testing.T, sc *config.Scenario, plan *Plan) {
	t.Helper()
	cfgs := plan.Configs(sc.Init)
	last := cfgs[len(cfgs)-1]
	if d := config.Diff(last, sc.Final); len(d) != 0 {
		t.Fatalf("plan does not reach the final configuration; differs on %v", d)
	}
	for i, cfg := range cfgs {
		if !checkConfig(sc, cfg) {
			t.Fatalf("intermediate configuration %d violates the spec (plan %v)", i, plan)
		}
	}
}

func TestFig1RedGreenOrder(t *testing.T) {
	sc := config.Fig1RedGreen()
	_, n := config.Fig1Topology()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := plan.Updates()
	if len(ups) != 2 {
		t.Fatalf("updates = %v, want 2", ups)
	}
	if ups[0].Switch != n.C2 || ups[1].Switch != n.A1 {
		t.Fatalf("order = sw%d, sw%d; want C2 (sw%d) before A1 (sw%d)",
			ups[0].Switch, ups[1].Switch, n.C2, n.A1)
	}
	verifyPlan(t, sc, plan)
}

func TestFig1RedBlue(t *testing.T) {
	sc := config.Fig1RedBlue()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Updates()) != 4 {
		t.Fatalf("updates = %v, want 4", plan.Updates())
	}
	verifyPlan(t, sc, plan)
}

func TestFig1RedBlueWaypointSynthesis(t *testing.T) {
	sc := config.Fig1RedBlueWaypoint()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, plan)
	if plan.Stats.WaitsBefore != 3 {
		t.Fatalf("careful 4-update plan should start with 3 waits, got %d", plan.Stats.WaitsBefore)
	}
	// The destination-first heuristic finds the order A4, C1, A2, T1,
	// which needs no waits at all (strictly better than the paper's
	// A2, A4, T1, wait, C1 — updating C1 before T1 removes the hazard).
	if got := plan.Waits(); got > 1 {
		t.Fatalf("plan %v keeps %d waits; wait removal under-performs", plan, got)
	}
}

// TestWaitRemovalKeepsPaperBarrier replays the paper's own sequence for
// the red-to-blue waypoint scenario (A2, A4, T1, C1) through the
// wait-removal heuristic: the barrier between T1 and C1 must survive —
// packets forwarded by the old T1 can reach C1, so updating C1 without a
// flush would let them skip both scrubbing waypoints.
func TestWaitRemovalKeepsPaperBarrier(t *testing.T) {
	sc := config.Fig1RedBlueWaypoint()
	_, n := config.Fig1Topology()
	e, err := newEngineShell(sc, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var steps []Step
	for i, sw := range []int{n.A2, n.A4, n.T1, n.C1} {
		if i > 0 {
			steps = append(steps, Step{Wait: true})
		}
		steps = append(steps, Step{Switch: sw, Table: sc.Final.Table(sw)})
	}
	out := e.removeWaits(steps)
	var kept []int // index of the update that follows each kept wait
	for i, s := range out {
		if s.Wait {
			kept = append(kept, out[i+1].Switch)
		}
	}
	if len(kept) != 1 || kept[0] != n.C1 {
		t.Fatalf("kept waits before %v, want exactly one before C1 (sw%d); plan %v", kept, n.C1, out)
	}
}

func TestFig1PlansVerify(t *testing.T) {
	for _, mk := range []func() *config.Scenario{config.Fig1RedGreen, config.Fig1RedBlue, config.Fig1RedBlueWaypoint} {
		sc := mk()
		plan, err := Synthesize(sc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		verifyPlan(t, sc, plan)
	}
}

func TestDiamondScenarios(t *testing.T) {
	for _, prop := range []config.Property{config.Reachability, config.Waypointing, config.ServiceChaining} {
		topo := topology.SmallWorld(150, 4, 0.3, int64(10+prop))
		sc, err := config.Diamonds(topo, config.DiamondOptions{Pairs: 2, Property: prop, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Synthesize(sc, Options{})
		if err != nil {
			t.Fatalf("%v: %v", prop, err)
		}
		verifyPlan(t, sc, plan)
	}
}

// TestInfeasibleSwitchGranularity: the double-diamond gadget has no
// switch-granularity ordering, and the proof stands with each Section 4.2
// switch of Ablation off — which reaches the joint search (one gadget)
// and every component's (two gadgets, two components) through
// SessionResources: counterexample learning and early termination leave
// their counters at zero when switched off. (The heuristic order does
// not matter on these instances; internal/bench.TestAblation pins it.)
func TestInfeasibleSwitchGranularity(t *testing.T) {
	for gadgets := 1; gadgets <= 2; gadgets++ {
		topo := topology.SmallWorld(40, 4, 0.3, 21)
		sc, err := config.Infeasible(topo, config.InfeasibleOptions{Gadgets: gadgets, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		run := func(abl Ablation) Stats {
			t.Helper()
			s, err := NewSessionWith(sc.Topo, sc.Init, sc.Specs, Options{}, SessionResources{Ablation: abl})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) {
				t.Fatalf("%d gadgets, %+v: err = %v, want ErrNoOrdering", gadgets, abl, err)
			}
			return s.LastStats()
		}
		if st := run(Ablation{}); st.Components != gadgets || st.CexLearned == 0 || st.SATCalls == 0 || !st.EarlyTerminate {
			t.Fatalf("%d gadgets, full: %+v, want one component per gadget, learning and early termination at work", gadgets, st)
		}
		if st := run(Ablation{NoCexLearning: true}); st.CexLearned != 0 || st.WrongPruned != 0 || st.SATCalls != 0 {
			t.Errorf("%d gadgets, NoCexLearning: %d learned, %d pruned, %d SAT calls; want none", gadgets, st.CexLearned, st.WrongPruned, st.SATCalls)
		}
		if st := run(Ablation{NoEarlyTermination: true}); st.SATCalls != 0 || st.EarlyTerminate || st.CexLearned == 0 {
			t.Errorf("%d gadgets, NoEarlyTermination: %d SAT calls, terminated %v, %d learned; want learning only", gadgets, st.SATCalls, st.EarlyTerminate, st.CexLearned)
		}
	}
}

func TestInfeasibleSolvableAtRuleGranularity(t *testing.T) {
	topo := topology.SmallWorld(40, 4, 0.3, 21)
	sc, err := config.Infeasible(topo, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Synthesize(sc, Options{RuleGranularity: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, plan)
	for _, s := range plan.Updates() {
		if !s.IsRule {
			t.Fatal("rule-granularity plan must consist of rule steps")
		}
	}
}

// TestTwoSimpleSolvesInfeasible: the k-simple extension (k=2) recovers
// rule-granularity power at switch granularity — the double-diamond
// gadget that is impossible for 1-simple orderings is solved by merging
// both rule generations before finalizing.
func TestTwoSimpleSolvesInfeasible(t *testing.T) {
	topo := topology.SmallWorld(40, 4, 0.3, 21)
	sc, err := config.Infeasible(topo, config.InfeasibleOptions{Gadgets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Synthesize(sc, Options{TwoSimple: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, plan)
	// Each updating switch is touched at most twice.
	count := map[int]int{}
	for _, s := range plan.Updates() {
		count[s.Switch]++
		if count[s.Switch] > 2 {
			t.Fatalf("switch %d updated %d times in a 2-simple plan", s.Switch, count[s.Switch])
		}
	}
}

// TestTwoSimpleOnFeasible: 2-simple mode must still solve ordinary
// scenarios and reach exactly the final configuration.
func TestTwoSimpleOnFeasible(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := Synthesize(sc, Options{TwoSimple: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, sc, plan)
}

// TestSynthesisSoundnessRandom runs the synthesizer over random small
// scenarios and verifies every produced plan.
func TestSynthesisSoundnessRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	produced := 0
	for iter := 0; iter < 25; iter++ {
		topo := topology.SmallWorld(30+r.Intn(30), 4, 0.3, r.Int63())
		sc, err := config.Diamonds(topo, config.DiamondOptions{
			Pairs: 1 + r.Intn(2), Property: config.Reachability, Seed: r.Int63(),
		})
		if err != nil {
			continue
		}
		plan, err := Synthesize(sc, Options{})
		if err != nil {
			if errors.Is(err, ErrNoOrdering) {
				continue
			}
			t.Fatal(err)
		}
		produced++
		verifyPlan(t, sc, plan)
	}
	if produced == 0 {
		t.Fatal("no plans produced; generator or synthesizer broken")
	}
}

// TestCompletenessVsBruteForce compares the synthesizer's answer against
// a brute-force search over all simple careful sequences.
func TestCompletenessVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checked := 0
	for iter := 0; iter < 40 && checked < 25; iter++ {
		topo := topology.SmallWorld(14, 4, 0.4, r.Int63())
		sc, err := config.Diamonds(topo, config.DiamondOptions{
			Pairs: 1, Property: config.Reachability, Seed: r.Int63(),
		})
		if err != nil {
			continue
		}
		units := config.Diff(sc.Init, sc.Final)
		if len(units) > 6 {
			continue // keep brute force tractable
		}
		checked++
		want := bruteForceOrderExists(sc, units)
		_, err = Synthesize(sc, Options{})
		got := err == nil
		if err != nil && !errors.Is(err, ErrNoOrdering) {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: synthesizer=%v bruteforce=%v (units %v)", iter, got, want, units)
		}
	}
	if checked == 0 {
		t.Skip("no tractable instances generated")
	}
}

// bruteForceOrderExists enumerates all permutations of switch updates and
// checks whether some permutation keeps every prefix configuration
// correct.
func bruteForceOrderExists(sc *config.Scenario, switches []int) bool {
	perm := append([]int(nil), switches...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return true
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			cfg := sc.Init.Clone()
			ok := true
			for _, sw := range perm[:k+1] {
				cfg.SetTable(sw, sc.Final.Table(sw))
			}
			ok = checkConfig(sc, cfg)
			if ok && rec(k+1) {
				return true
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return false
	}
	// Initial and final configs are part of the scenario contract.
	if !checkConfig(sc, sc.Init) || !checkConfig(sc, sc.Final) {
		return false
	}
	return rec(0)
}

func TestPlanExecutesOnOperationalModel(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := sc.Specs[0].Class
	// Execute the plan's commands on the operational machine under random
	// interleavings with continuous traffic; no packet may be lost.
	for seed := int64(0); seed < 20; seed++ {
		n := network.NewNet(sc.Topo, sc.Init.Tables(), plan.Commands())
		r := rand.New(rand.NewSource(seed))
		injected := 0
		n.RunRandom(r, func(step int) bool {
			if step%2 == 0 && injected < 12 {
				n.Inject(cl.SrcHost, cl.Packet())
				injected++
			}
			return injected < 12
		})
		n.Drain()
		for id := 0; id < injected; id++ {
			if !n.DeliveredTo(id, cl.DstHost) {
				t.Fatalf("seed %d: packet %d lost during synthesized update", seed, id)
			}
		}
	}
}

// TestWaitRemovedPlanExecutesCorrectly exercises the wait-removal
// heuristic end to end: a diamond scenario whose plan dismantles the old
// branch (the case where waits are provably unnecessary) is executed on
// the operational machine under random interleavings with live traffic,
// and every packet must still be delivered.
func TestWaitRemovedPlanExecutesCorrectly(t *testing.T) {
	topo := topology.SmallWorld(40, 4, 0.3, 77)
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 2, Property: config.Reachability, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.WaitsAfter >= plan.Stats.WaitsBefore {
		t.Fatalf("wait removal ineffective: %d -> %d", plan.Stats.WaitsBefore, plan.Stats.WaitsAfter)
	}
	for seed := int64(0); seed < 15; seed++ {
		n := network.NewNet(sc.Topo, sc.Init.Tables(), plan.Commands())
		r := rand.New(rand.NewSource(seed))
		type sent struct {
			id  int
			dst int
		}
		var packets []sent
		n.RunRandom(r, func(step int) bool {
			if step%2 == 0 && len(packets) < 24 {
				cs := sc.Specs[len(packets)%len(sc.Specs)]
				id := n.Inject(cs.Class.SrcHost, cs.Class.Packet())
				packets = append(packets, sent{id: id, dst: cs.Class.DstHost})
			}
			return len(packets) < 24
		})
		n.Drain()
		for _, p := range packets {
			if !n.DeliveredTo(p.id, p.dst) {
				t.Fatalf("seed %d: packet %d lost under wait-removed plan %v", seed, p.id, plan)
			}
		}
	}
}

func TestInitialViolationDetected(t *testing.T) {
	sc := config.Fig1RedGreen()
	// Waypoint through C2: true on the green (final) path, false on the
	// red (initial) path.
	_, n := config.Fig1Topology()
	sc.Specs[0].Formula = ltl.Waypoint(n.T1, n.C2, n.T3)
	_, err := Synthesize(sc, Options{})
	if !errors.Is(err, ErrInitialViolation) {
		t.Fatalf("err = %v, want ErrInitialViolation", err)
	}
}

func TestFinalViolationDetected(t *testing.T) {
	sc := config.Fig1RedGreen()
	_, n := config.Fig1Topology()
	// Waypoint through C1: true on red (init), false on green (final).
	sc.Specs[0].Formula = ltl.Waypoint(n.T1, n.C1, n.T3)
	_, err := Synthesize(sc, Options{})
	if !errors.Is(err, ErrFinalViolation) {
		t.Fatalf("err = %v, want ErrFinalViolation", err)
	}
}

// TestTimeout: the request's context is the search's one clock. A
// deadline that passes halfway through a decomposed search — after the
// request arrived, inside the components' DFS — stops it with ErrTimeout;
// no component starts a clock of its own.
func TestTimeout(t *testing.T) {
	sc, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 3, PairsPerRegion: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := SessionResources{Ablation: Ablation{NoCexLearning: true, NoEarlyTermination: true}}
	// A context that never expires counts the polls of the whole search.
	full := expiresAfter(math.MaxInt32)
	plan, err := SynthesizeWith(full, sc, Options{}, res)
	if err != nil {
		t.Fatal(err)
	}
	polls := full.polls.Load()
	if c := plan.Stats.Components; c < 2 || polls <= int32(c) {
		t.Fatalf("%d component(s) polled the deadline %d time(s): want several components, each polling as it searches", c, polls)
	}
	if _, err := SynthesizeWith(expiresAfter(polls/2), sc, Options{}, res); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline at poll %d of %d: err = %v, want ErrTimeout", polls/2, polls, err)
	}
}

func TestStatsPopulated(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.Units != 2 || st.Checks == 0 || st.Elapsed <= 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	if b.get(129) {
		t.Fatal("fresh bitset must be empty")
	}
	c := b.set(129).set(0)
	if !c.get(129) || !c.get(0) || b.get(0) {
		t.Fatal("set must be persistent")
	}
	if c.count() != 2 {
		t.Fatalf("count = %d", c.count())
	}
	if b.key() == c.key() {
		t.Fatal("keys must differ")
	}
	rel := newBitset(130).set(0).set(5)
	val := newBitset(130).set(0)
	if !c.matchesPattern(rel, val) {
		t.Fatal("c has 0 set and 5 unset; should match pattern")
	}
	d := c.set(5)
	if d.matchesPattern(rel, val) {
		t.Fatal("d has 5 set; should not match")
	}
}

func TestPlanHelpers(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := Synthesize(sc, Options{NoWaitRemoval: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Waits() != 1 {
		t.Fatalf("careful 2-update plan has %d waits, want 1", plan.Waits())
	}
	cmds := plan.Commands()
	// update, incr, flush, update
	if len(cmds) != 4 {
		t.Fatalf("commands = %v", cmds)
	}
	if plan.String() == "" {
		t.Fatal("empty plan string")
	}
	cfgs := plan.Configs(sc.Init)
	if len(cfgs) != 3 {
		t.Fatalf("configs = %d, want 3", len(cfgs))
	}
}
