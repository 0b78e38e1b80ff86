package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/obs"
	"netupdate/internal/topology"
)

// rollingTargets materializes a small rolling-update walk so every engine
// configuration under test sees the identical stream.
func rollingTargets(t *testing.T, seed int64, pairs, steps, flips int) (*config.RollingStream, []*config.Config) {
	t.Helper()
	topo := topology.SmallWorld(50, 4, 0.3, seed)
	s, err := config.RollingUpdates(topo, config.RollingOptions{
		Pairs: pairs, Property: config.Reachability, Seed: seed,
		Steps: steps, FlipsPerStep: flips,
	})
	if err != nil {
		t.Fatal(err)
	}
	var targets []*config.Config
	for {
		tgt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tgt)
	}
	return s, targets
}

// TestSessionWarmColdConformance: the Nth plan from a long-lived session
// must equal the plan a fresh one-shot Synthesize produces for the same
// (previous, target) pair.
func TestSessionWarmColdConformance(t *testing.T) {
	stream, targets := rollingTargets(t, 23, 2, 4, 1)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := stream.Init()
	for n, tgt := range targets {
		warm, err := sess.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: warm: %v", n, err)
		}
		cold, err := Synthesize(&config.Scenario{
			Name: "cold", Topo: stream.Topo(), Init: cur, Final: tgt,
			Specs: stream.Specs(),
		}, Options{})
		if err != nil {
			t.Fatalf("step %d: cold: %v", n, err)
		}
		if got, want := warm.String(), cold.String(); got != want {
			t.Fatalf("step %d: warm plan diverged:\nwarm %s\ncold %s", n, got, want)
		}
		if got, want := sess.Current(), tgt; got != want {
			t.Fatalf("step %d: session did not advance", n)
		}
		cur = tgt
	}
	if sess.Runs() != len(targets) {
		t.Fatalf("runs = %d, want %d", sess.Runs(), len(targets))
	}
}

// TestSessionRebindLabelEquality is the metamorphic rolling-stream walk:
// after every synthesis (and hence every in-place rebind), the warm
// incremental checkers' per-state labels must equal those of checkers
// built from scratch over the session's current configuration.
func TestSessionRebindLabelEquality(t *testing.T) {
	stream, targets := rollingTargets(t, 31, 2, 5, 2)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels := func(step int) {
		t.Helper()
		for ci, cs := range sess.specs {
			warm, ok := sess.checkers[ci].(*mc.Incremental)
			if !ok {
				t.Fatalf("step %d: checker %d is %T, want *mc.Incremental", step, ci, sess.checkers[ci])
			}
			k2, err := kripke.Build(sess.topo, sess.cur, cs.Class)
			if err != nil {
				t.Fatalf("step %d class %v: %v", step, cs.Class, err)
			}
			coldC, err := mc.NewIncremental(k2, cs.Formula)
			if err != nil {
				t.Fatal(err)
			}
			cold := coldC.(*mc.Incremental)
			if warmOK, coldOK := warm.Check().OK, cold.Check().OK; warmOK != coldOK {
				t.Fatalf("step %d class %v: warm OK=%v cold OK=%v", step, cs.Class, warmOK, coldOK)
			}
			for id := 0; id < k2.NumStates(); id++ {
				wl, cl := warm.Labels(id), cold.Labels(id)
				if len(wl) != len(cl) {
					t.Fatalf("step %d class %v state %d: labels diverge\nwarm %v\ncold %v",
						step, cs.Class, id, wl, cl)
				}
				for j := range wl {
					if wl[j] != cl[j] {
						t.Fatalf("step %d class %v state %d: labels diverge\nwarm %v\ncold %v",
							step, cs.Class, id, wl, cl)
					}
				}
			}
		}
	}
	checkLabels(-1)
	for n, tgt := range targets {
		if _, err := sess.Synthesize(tgt); err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
		checkLabels(n)
	}
}

// TestSessionSurvivesFailedSynthesis: a target that violates the
// specification (or admits no ordering) must leave the session at its
// previous configuration with warm state intact, and later syntheses
// must still conform to one-shot runs.
func TestSessionSurvivesFailedSynthesis(t *testing.T) {
	stream, targets := rollingTargets(t, 41, 2, 2, 1)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A target that drops a class entirely violates its reachability spec.
	bad := stream.Init().Clone()
	config.RemoveClassRules(bad, stream.Specs()[0].Class)
	if _, err := sess.Synthesize(bad); !errors.Is(err, ErrFinalViolation) {
		t.Fatalf("err = %v, want ErrFinalViolation", err)
	}
	if sess.Current() != stream.Init() {
		t.Fatal("failed synthesis must not advance the session")
	}
	cur := stream.Init()
	for n, tgt := range targets {
		warm, err := sess.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
		cold, err := Synthesize(&config.Scenario{
			Name: "cold", Topo: stream.Topo(), Init: cur, Final: tgt, Specs: stream.Specs(),
		}, Options{})
		if err != nil {
			t.Fatalf("step %d: cold: %v", n, err)
		}
		if warm.String() != cold.String() {
			t.Fatalf("step %d: plans diverged after a failed synthesis:\nwarm %s\ncold %s",
				n, warm.String(), cold.String())
		}
		cur = tgt
	}
}

// TestSessionInitialViolation: a session cannot be opened over an initial
// configuration that violates the specification.
func TestSessionInitialViolation(t *testing.T) {
	sc := config.Fig1RedGreen()
	_, n := config.Fig1Topology()
	sc.Specs[0].Formula = ltl.Waypoint(n.T1, n.C2, n.T3)
	if _, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{}); !errors.Is(err, ErrInitialViolation) {
		t.Fatalf("err = %v, want ErrInitialViolation", err)
	}
}

// TestSessionClassSkips: a diff confined to one region of a multi-region
// workload forms a single interference component, and the classes of the
// other regions — outside every unit's footprint — must not be visited by
// the search at all. Visits are counted from the exported statistics
// (checker calls plus class skips; a bystander's standing verdict is read,
// not counted): a session that holds the bystander classes must count
// exactly what a session holding only the footprint's classes counts.
// Independently of the counters, a tripwire on every bystander's checker
// catches any update handed to it: the verification reads a bystander's
// standing verdict, and nothing else may touch it.
func TestSessionClassSkips(t *testing.T) {
	sc := multiRegionScenario(t, 3, 2, 0, 11)
	target, classes := singleComponentTarget(t, sc, 0)
	if len(classes) < 2 || len(classes) == len(sc.Specs) {
		t.Fatalf("want a multi-class footprint with bystanders, got %d of %d classes", len(classes), len(sc.Specs))
	}
	var footprint []config.ClassSpec
	inside := map[int]bool{}
	for _, ci := range classes {
		footprint = append(footprint, sc.Specs[ci])
		inside[ci] = true
	}
	visits := func(specs []config.ClassSpec) (int, *Plan) {
		sess, err := NewSession(sc.Topo, sc.Init, specs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sess.Synthesize(target)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.Components != 1 {
			t.Fatalf("Components = %d, want a single-component run", plan.Stats.Components)
		}
		return plan.Stats.Checks + plan.Stats.ClassSkips, plan
	}
	withBystanders, full := visits(sc.Specs)
	alone, sub := visits(footprint)
	if full.String() != sub.String() {
		t.Fatalf("bystander classes changed the plan:\n got %s\nwant %s", full, sub)
	}
	if withBystanders != alone {
		t.Fatalf("search visited classes outside the footprint: %d class visits, %d without the bystanders", withBystanders, alone)
	}

	sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range sess.checkers {
		if !inside[ci] {
			sess.checkers[ci] = tripwireChecker{Checker: sess.checkers[ci], t: t}
		}
	}
	wired, err := sess.Synthesize(target)
	if err != nil {
		t.Fatal(err)
	}
	if wired.String() != full.String() {
		t.Fatalf("plan diverged under the tripwire:\n got %s\nwant %s", wired, full)
	}
}

// tripwireChecker reports any update handed to a class that should be
// outside the diff's footprint.
type tripwireChecker struct {
	mc.Checker
	t *testing.T
}

func (c tripwireChecker) Update(d *kripke.Delta) (mc.Verdict, mc.Token) {
	c.t.Errorf("class outside the footprint was handed an update")
	return c.Checker.Update(d)
}

// lazyFinalSessions returns a cold-built session and one restored from a
// twin's snapshot, neither of which has synthesized yet.
func lazyFinalSessions(t *testing.T, stream *config.RollingStream, opts Options) map[string]*Session {
	t.Helper()
	cold, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(stream.Topo(), stream.Specs(), opts, img)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Session{"cold": cold, "restored": restored}
}

// TestSessionLazyFinalBuildAbortsCleanly: on the very first Synthesize
// of a session — cold-built or restored — a target that fails
// verification (a later class violating its spec, when the earlier
// class's step is already applied, or a class forwarded in a cycle) must
// report ErrFinalViolation and leave the session serving normally: every
// following plan equals a one-shot synthesis.
func TestSessionLazyFinalBuildAbortsCleanly(t *testing.T) {
	stream, targets := rollingTargets(t, 67, 2, 2, 1)
	// Class 0 keeps a valid route; class 1 (the later one) is dropped.
	violating := stream.Init().Clone()
	config.RemoveClassRules(violating, stream.Specs()[1].Class)
	cyclic := loopingConfig(t, stream.Topo(), stream.Init(), stream.Specs()[0].Class)
	for badName, bad := range map[string]*config.Config{"violating": violating, "cyclic": cyclic} {
		for how, sess := range lazyFinalSessions(t, stream, Options{}) {
			name := badName + "/" + how
			if _, err := sess.Synthesize(bad); !errors.Is(err, ErrFinalViolation) {
				t.Fatalf("%s: err = %v, want ErrFinalViolation", name, err)
			}
			cur := stream.Init()
			for n, tgt := range targets {
				warm, err := sess.Synthesize(tgt)
				if err != nil {
					t.Fatalf("%s: step %d after aborted first verification: %v", name, n, err)
				}
				cold, err := Synthesize(&config.Scenario{
					Name: "cold", Topo: stream.Topo(), Init: cur, Final: tgt, Specs: stream.Specs(),
				}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if warm.String() != cold.String() {
					t.Fatalf("%s: step %d: plans diverged:\nwarm %s\ncold %s", name, n, warm.String(), cold.String())
				}
				cur = tgt
			}
		}
	}
}

// loopingConfig is base with class cl forwarded in a two-switch cycle.
func loopingConfig(t *testing.T, topo *topology.Topology, base *config.Config, cl config.Class) *config.Config {
	t.Helper()
	a := 0
	link, ok := topo.LinkAt(a, topo.Ports(a)[0])
	if !ok {
		t.Fatal("switch 0 has no link")
	}
	b := link.Peer
	pab, _ := topo.PortToward(a, b)
	pba, _ := topo.PortToward(b, a)
	bad := base.Clone()
	config.RemoveClassRules(bad, cl)
	bad.AddRule(a, network.Rule{Priority: 10, Match: cl.Pattern(),
		Actions: []network.Action{network.Forward(pab)}})
	bad.AddRule(b, network.Rule{Priority: 10, Match: cl.Pattern(),
		Actions: []network.Action{network.Forward(pba)}})
	return bad
}

// TestSessionSurvivesLoopingTarget: a target that forwards a class in a
// cycle must fail with ErrFinalViolation — on every submission, not just
// the first — and leave the session fully serviceable (regression: the
// rebound-but-never-relabeled verification checker accepted the looping
// target when it was resubmitted unchanged).
func TestSessionSurvivesLoopingTarget(t *testing.T) {
	stream, targets := rollingTargets(t, 71, 2, 2, 1)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A successful run first, so the verification structures exist and
	// the looping target exercises the rebind path.
	if _, err := sess.Synthesize(targets[0]); err != nil {
		t.Fatal(err)
	}
	topo := stream.Topo()
	bad := loopingConfig(t, topo, targets[0], stream.Specs()[0].Class)
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := sess.Synthesize(bad); !errors.Is(err, ErrFinalViolation) {
			t.Fatalf("attempt %d: err = %v, want ErrFinalViolation", attempt, err)
		}
	}
	// The session still serves good targets, conforming to one-shot runs.
	warm, err := sess.Synthesize(targets[1])
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Synthesize(&config.Scenario{
		Name: "cold", Topo: topo, Init: targets[0], Final: targets[1], Specs: stream.Specs(),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatalf("plans diverged after looping target:\nwarm %s\ncold %s", warm.String(), cold.String())
	}
}

// TestRefusedTargetLeavesNoTrace: a target that fails verification — a
// later class violating its specification, or forwarded in a cycle, when
// an earlier class's step is already applied and checked — is undone, not
// resynced: every class structure and every label of the session that saw
// it equals those of a twin that never did, at every state of the arena,
// and both serve the same next target with the same plan and the same
// work. The refusal is the session's most recent attempt: LastStats shows
// it (units, checks, verification time, request id), and its trace is
// complete — the root span is closed, not left for a snapshot to close.
func TestRefusedTargetLeavesNoTrace(t *testing.T) {
	stream, targets := rollingTargets(t, 67, 2, 3, 2)
	specs := stream.Specs()
	moves := func(from, to *config.Config, cl config.Class) bool {
		for _, ci := range classesSeeing(specs, from, to) {
			if specs[ci].Class == cl {
				return true
			}
		}
		return false
	}
	if !moves(targets[0], targets[1], specs[0].Class) {
		t.Fatal("want a step that reroutes the first class, so that its verification step is applied before the second class refuses")
	}
	violating := targets[1].Clone()
	config.RemoveClassRules(violating, specs[1].Class)
	cyclic := loopingConfig(t, stream.Topo(), targets[1], specs[1].Class)
	for name, bad := range map[string]*config.Config{"violating": violating, "cyclic": cyclic} {
		var seen, clean *Session
		for _, sp := range []**Session{&seen, &clean} {
			sess, err := NewSession(stream.Topo(), stream.Init(), specs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Synthesize(targets[0]); err != nil {
				t.Fatal(err)
			}
			*sp = sess
		}
		ctx := obs.WithTracing(obs.WithRequestID(context.Background(), "req-refused"))
		if _, err := seen.SynthesizeContext(ctx, bad); !errors.Is(err, ErrFinalViolation) {
			t.Fatalf("%s: err = %v, want ErrFinalViolation", name, err)
		}

		st := seen.LastStats()
		if st.RequestID != "req-refused" || st.Units == 0 || st.Checks == 0 || st.VerifyElapsed <= 0 {
			t.Fatalf("%s: LastStats does not show the refused attempt: %+v", name, st)
		}
		if st.WaitsBefore != 0 || st.DAGDepth != 0 || st.SearchElapsed != 0 {
			t.Fatalf("%s: LastStats still shows the previous request: %+v", name, st)
		}
		first := seen.trace.Snapshot()
		time.Sleep(2 * time.Millisecond) // an open span's export grows with the clock
		second := seen.trace.Snapshot()
		ri := first.Root()
		if ri < 0 || first.Spans[ri].Name != "synthesize" || first.RequestID != "req-refused" {
			t.Fatalf("%s: refused request's trace: %+v", name, first)
		}
		if first.Spans[ri].DurUS != second.Spans[ri].DurUS {
			t.Fatalf("%s: the refused request's root span was left open", name)
		}
		if spanNames(first)["final-verify"] != 1 {
			t.Fatalf("%s: spans of the refused request: %v", name, spanNames(first))
		}

		for ci := range specs {
			a, b := seen.ks[ci], clean.ks[ci]
			for id := 0; id < a.NumStates(); id++ {
				if !slices.Equal(a.Succ(id), b.Succ(id)) {
					t.Fatalf("%s class %d state %d: Succ %v, never-refused session %v", name, ci, id, a.Succ(id), b.Succ(id))
				}
			}
			for sw := 0; sw < stream.Topo().NumSwitches(); sw++ {
				if !a.Table(sw).Equal(b.Table(sw)) {
					t.Fatalf("%s class %d: sw%d holds a table of the refused target", name, ci, sw)
				}
			}
		}
		compareSessionLabels(t, name, seen, clean)
		requireRebased(t, name+": after the refusal", seen)

		got, err := seen.Synthesize(targets[1])
		if err != nil {
			t.Fatalf("%s: after the refusal: %v", name, err)
		}
		requireRebased(t, name+": after the plan that followed", seen)
		want, err := clean.Synthesize(targets[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: plan after the refusal diverged:\n got %s\nwant %s", name, got, want)
		}
		if g, w := countersOnly(got.Stats), countersOnly(want.Stats); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: work after the refusal diverged:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

// requireRebased fails unless every class structure of s reads every table
// from the session's current configuration: bound to it, holding no table
// of its own over it — how every request, served or not, must leave them.
func requireRebased(t *testing.T, what string, s *Session) {
	t.Helper()
	for i, k := range s.ks {
		if base, moved := k.Base(); base != s.cur || moved != 0 {
			t.Fatalf("%s: class %d's structure holds %d tables over %p; the session is at %p", what, i, moved, base, s.cur)
		}
	}
}

// TestStatsAreDeterministic: every search runs on one goroutine over
// structures nothing else touches, so what a request costs in checks,
// backtracks, labelings and solver calls is a function of the stream: two
// sessions over the same stream — feasible and not, with cache hits and
// memoized rejections, searched jointly and as concurrently scheduled
// components — report equal statistics, wall-clock fields and request id
// aside. (CI runs this package at 1, 2 and 4 CPUs, which is what sizes the
// component scheduler.)
func TestStatsAreDeterministic(t *testing.T) {
	feasible := multiRegionScenario(t, 3, 2, 0, 11)
	stuck, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var backtracks, learned, hits, components int
	for _, sc := range []*config.Scenario{feasible, stuck} {
		for _, joint := range []bool{false, true} {
			run := func() []Stats {
				sess, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{NoDecomposition: joint})
				if err != nil {
					t.Fatal(err)
				}
				sess.EnableCache()
				var out []Stats
				for _, tgt := range []*config.Config{sc.Final, sc.Init, sc.Final, sc.Final} {
					if _, err := sess.Synthesize(tgt); err != nil && !errors.Is(err, ErrNoOrdering) {
						t.Fatal(err)
					}
					out = append(out, countersOnly(sess.LastStats()))
				}
				return out
			}
			a, b := run(), run()
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("%s joint=%v request %d: two sessions over one stream disagree:\n%+v\n%+v", sc.Name, joint, i, a[i], b[i])
				}
				backtracks += a[i].Backtracks
				learned += a[i].CexLearned
				components = max(components, a[i].Components)
				if a[i].CacheHit {
					hits++
				}
			}
		}
	}
	if backtracks == 0 || learned == 0 || hits == 0 || components < 2 {
		t.Fatalf("stream exercised %d backtracks, %d learned counterexamples, %d cache hits, %d components at most",
			backtracks, learned, hits, components)
	}
}

// TestSynthesizeContextCanceled: an already-canceled context fails with
// ErrCanceled before touching the warm structures, and the session keeps
// serving afterwards — the canceled run must not corrupt or advance it.
func TestSynthesizeContextCanceled(t *testing.T) {
	stream, targets := rollingTargets(t, 41, 2, 2, 1)
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.SynthesizeContext(ctx, targets[0]); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if sess.Current() != stream.Init() {
		t.Fatal("canceled run advanced the session")
	}
	plan, err := sess.SynthesizeContext(context.Background(), targets[0])
	if err != nil {
		t.Fatalf("session dead after canceled run: %v", err)
	}
	cold, err := Synthesize(&config.Scenario{
		Name: "cold", Topo: stream.Topo(), Init: stream.Init(),
		Final: targets[0], Specs: stream.Specs(),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() != cold.String() {
		t.Fatalf("post-cancel plan diverged:\nwarm %s\ncold %s", plan, cold)
	}
}

// TestSynthesizeContextDeadline: a context deadline bounds the search,
// reporting ErrTimeout — and a search aborted
// mid-flight leaves the session consistent for the next target.
func TestSynthesizeContextDeadline(t *testing.T) {
	topo := topology.SmallWorld(60, 4, 0.3, 31)
	sc, err := config.Infeasible(topo, config.InfeasibleOptions{Gadgets: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessionWith(sc.Topo, sc.Init, sc.Specs, Options{},
		SessionResources{Ablation: Ablation{NoCexLearning: true, NoEarlyTermination: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, serr := sess.SynthesizeContext(ctx, sc.Final)
	if !errors.Is(serr, ErrTimeout) && !errors.Is(serr, ErrNoOrdering) {
		t.Fatalf("err = %v, want timeout (or fast exhaustion)", serr)
	}
	// The session must still be at its initial configuration and able to
	// serve a trivial follow-up (the identity update synthesizes to an
	// empty plan).
	if sess.Current() != sc.Init {
		t.Fatal("aborted run advanced the session")
	}
	if _, err := sess.SynthesizeContext(context.Background(), sc.Init); err != nil {
		t.Fatalf("session dead after deadline abort: %v", err)
	}
}
