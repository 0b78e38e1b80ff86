package netupdate

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPublicSynthesizeQuickstart(t *testing.T) {
	sc := Fig1RedGreen()
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Updates()) != 2 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestPublicVerify(t *testing.T) {
	sc := Fig1RedGreen()
	ok, cex, err := Verify(sc.Topo, sc.Init, sc.Specs)
	if err != nil || !ok || cex != nil {
		t.Fatalf("initial config should verify: ok=%v cex=%v err=%v", ok, cex, err)
	}
	// Break the config: drop the core's rule.
	broken := sc.Init.Clone()
	_, nodes := fig1Nodes()
	broken.SetTable(nodes.C1, nil)
	ok, cex, err = Verify(sc.Topo, broken, sc.Specs)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil {
		t.Fatalf("broken config must fail with a counterexample, got ok=%v cex=%v", ok, cex)
	}
	if cex.String() == "" {
		t.Fatal("counterexample should render")
	}
}

func TestPublicVerifyLoop(t *testing.T) {
	topo := NewTopology("loop", 2)
	topo.AddLink(0, 1)
	topo.AddHost(100, 0)
	topo.AddHost(101, 1)
	cl := Class{SrcHost: 100, DstHost: 101}
	cfg := NewConfig()
	p01, _ := topo.PortToward(0, 1)
	p10, _ := topo.PortToward(1, 0)
	cfg.AddRule(0, fwdRule(cl, p01))
	cfg.AddRule(1, fwdRule(cl, p10))
	ok, cex, err := Verify(topo, cfg, []ClassSpec{{Class: cl, Formula: Reachability(0, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil {
		t.Fatal("loop must be reported as a counterexample")
	}
}

func TestPublicParseFormula(t *testing.T) {
	f, err := ParseFormula("sw=1 -> F sw=5")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(Reachability(1, 5)) {
		t.Fatalf("parsed %v", f)
	}
	if _, err := ParseFormula("sw="); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPublicBuildScenarioFromScratch(t *testing.T) {
	// Line topology h100 - 0 - 1 - 2 - h101; move traffic from the direct
	// route to the same route (no-op diff must synthesize trivially).
	topo := NewTopology("line", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	cl := Class{SrcHost: 100, DstHost: 101}
	init := NewConfig()
	if err := InstallPath(init, topo, cl, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{
		Name:  "noop",
		Topo:  topo,
		Init:  init,
		Final: init.Clone(),
		Specs: []ClassSpec{{Class: cl, Formula: Reachability(0, 2)}},
	}
	plan, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("no-op scenario should produce an empty plan, got %v", plan)
	}
}

func TestPublicTwoPhaseAndSimulate(t *testing.T) {
	sc := Fig1RedGreen()
	cmds, peaks := TwoPhasePlan(sc)
	if len(cmds) == 0 || len(peaks) == 0 {
		t.Fatal("two-phase plan empty")
	}
	classes := []Class{sc.Specs[0].Class}
	res := Simulate(sc.Topo, sc.Init, cmds, classes, SimParams{
		Duration:     200 * time.Millisecond,
		BucketWidth:  20 * time.Millisecond,
		CommandStart: 50 * time.Millisecond,
	})
	if res.Lost != 0 {
		t.Fatalf("two-phase lost %d probes", res.Lost)
	}
	naive := NaivePlan(sc)
	res = Simulate(sc.Topo, sc.Init, naive, classes, SimParams{
		Duration:      400 * time.Millisecond,
		BucketWidth:   20 * time.Millisecond,
		CommandStart:  50 * time.Millisecond,
		UpdateLatency: 100 * time.Millisecond,
	})
	if res.Lost == 0 {
		t.Fatal("naive plan should lose probes")
	}
}

func TestPublicErrors(t *testing.T) {
	topo := SmallWorld(40, 4, 0.3, 21)
	sc, err := Infeasible(topo, infeasibleOpts(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Synthesize(sc, Options{})
	if !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}
}

// TestPublicSynthesizeContext: the one-shot answers as Synthesize does
// under a live context and with ErrCanceled under a canceled one.
func TestPublicSynthesizeContext(t *testing.T) {
	sc := Fig1RedGreen()
	want, err := Synthesize(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SynthesizeContext(context.Background(), sc, Options{})
	if err != nil || got.String() != want.String() {
		t.Fatalf("live context: plan %v, err %v; want %v", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SynthesizeContext(ctx, sc, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context: err = %v, want ErrCanceled", err)
	}
}

func TestPublicSynthesizerStream(t *testing.T) {
	topo := SmallWorld(50, 4, 0.3, 9)
	stream, err := RollingUpdates(topo, RollingOptions{
		Pairs: 2, Property: PropReachability, Seed: 9, Steps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sy, err := NewSynthesizer(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		tgt, err := stream.Next()
		if err != nil {
			break // io.EOF
		}
		plan, err := sy.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		if len(plan.Updates()) == 0 {
			t.Fatalf("step %d: empty plan for a real reroute", steps)
		}
		steps++
	}
	if steps != 4 || sy.Runs() != 4 {
		t.Fatalf("steps = %d, runs = %d, want 4", steps, sy.Runs())
	}
}

// TestSynthesizerConcurrentUseGuard: a Synthesizer is not goroutine-safe;
// an overlapping call must fail fast with ErrConcurrentUse and leave the
// in-flight call (and the session) untouched.
func TestSynthesizerConcurrentUseGuard(t *testing.T) {
	sc := Fig1RedGreen()
	sy, err := NewSynthesizer(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic overlap: mark a call in flight by hand and verify the
	// latecomer is rejected without doing any work.
	sy.inFlight.Store(true)
	if _, err := sy.Synthesize(sc.Final); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("err = %v, want ErrConcurrentUse", err)
	}
	if sy.Runs() != 0 {
		t.Fatal("rejected call must not reach the session")
	}
	sy.inFlight.Store(false)

	// And the guard releases: a plain call goes through afterwards, and a
	// hammered Synthesizer never reports anything besides a plan or
	// ErrConcurrentUse (run under -race in CI).
	if _, err := sy.Synthesize(sc.Final); err != nil {
		t.Fatalf("guard stuck: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sy.Synthesize(sc.Final); err != nil && !errors.Is(err, ErrConcurrentUse) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
}
