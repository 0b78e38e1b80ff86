package mc

import (
	"math/rand"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// randomScene builds a random topology with one traffic class and a
// random, possibly partial, forwarding configuration. It retries until
// the configuration is loop-free (Build succeeds).
func randomScene(r *rand.Rand) (*topology.Topology, *config.Config, config.Class, *kripke.K) {
	for {
		n := 4 + r.Intn(6)
		topo := topology.WAN("t", n, r.Int63())
		src := r.Intn(n)
		dst := r.Intn(n)
		hs := topo.AddHost(100, src)
		hd := topo.AddHost(101, dst)
		_ = hs
		_ = hd
		cl := config.Class{SrcHost: 100, DstHost: 101}
		cfg := config.New()
		for sw := 0; sw < n; sw++ {
			if r.Intn(4) == 0 {
				continue // no rule: drop
			}
			ports := topo.Ports(sw)
			pt := ports[r.Intn(len(ports))]
			cfg.AddRule(sw, fwdRule(cl, pt))
		}
		k, err := kripke.Build(topo, cfg, cl)
		if err != nil {
			continue
		}
		return topo, cfg, cl, k
	}
}

func fwdRule(cl config.Class, pt topology.Port) network.Rule {
	return network.Rule{
		Priority: 10,
		Match:    cl.Pattern(),
		Actions:  []network.Action{network.Forward(pt)},
	}
}

// randomFormula produces a small NNF-able formula over switch atoms.
func randomFormula(r *rand.Rand, n int) *ltl.Formula {
	var gen func(d int) *ltl.Formula
	gen = func(d int) *ltl.Formula {
		if d <= 0 {
			return ltl.At(r.Intn(n))
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
			return ltl.At(r.Intn(n))
		}
	}
	return gen(2 + r.Intn(2))
}

// bruteForce checks the property by enumerating every trace from every
// initial state and evaluating the formula directly.
func bruteForce(k *kripke.K, f *ltl.Formula) bool {
	for _, q0 := range k.Init() {
		for _, tr := range k.Traces(q0, 100000) {
			env := make([]ltl.Env, len(tr))
			for i, id := range tr {
				env[i] = k.Env(id)
			}
			if !f.EvalTrace(env) {
				return false
			}
		}
	}
	return true
}

func TestIncrementalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		topo, _, _, k := randomScene(r)
		f := randomFormula(r, topo.NumSwitches())
		chk, err := NewIncremental(k, f)
		if err != nil {
			continue // oversized closure
		}
		got := chk.Check()
		want := bruteForce(k, f)
		if got.OK != want {
			t.Fatalf("iter %d: incremental=%v bruteforce=%v formula=%v", iter, got.OK, want, f)
		}
		if !got.OK {
			validateCex(t, k, f, got.Cex)
		}
	}
}

// validateCex checks that a counterexample trace is a real trace of the
// structure and genuinely violates the formula.
func validateCex(t *testing.T, k *kripke.K, f *ltl.Formula, cex []int) {
	t.Helper()
	if len(cex) == 0 {
		t.Fatal("empty counterexample")
	}
	isInit := false
	for _, q0 := range k.Init() {
		if q0 == cex[0] {
			isInit = true
			break
		}
	}
	if !isInit {
		t.Fatalf("counterexample does not start at an initial state: %v", Describe(k, cex))
	}
	for i := 0; i+1 < len(cex); i++ {
		ok := false
		for _, s := range k.Succ(cex[i]) {
			if s == cex[i+1] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("counterexample has non-edge %d -> %d", cex[i], cex[i+1])
		}
	}
	if !k.IsSink(cex[len(cex)-1]) {
		t.Fatalf("counterexample does not end at a sink")
	}
	env := make([]ltl.Env, len(cex))
	for i, id := range cex {
		env[i] = k.Env(id)
	}
	if f.EvalTrace(env) {
		t.Fatalf("counterexample satisfies the formula: %v", Describe(k, cex))
	}
}

func TestBatchMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for iter := 0; iter < 100; iter++ {
		topo, _, _, k := randomScene(r)
		f := randomFormula(r, topo.NumSwitches())
		inc, err := NewIncremental(k, f)
		if err != nil {
			continue
		}
		bat, err := NewBatch(k, f)
		if err != nil {
			continue
		}
		if inc.Check().OK != bat.Check().OK {
			t.Fatalf("iter %d: incremental and batch disagree on %v", iter, f)
		}
	}
}

// TestIncrementalUpdateMatchesFresh applies a random sequence of switch
// updates and reverts, comparing the incremental verdict against a
// freshly-built checker at every step.
func TestIncrementalUpdateMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for iter := 0; iter < 60; iter++ {
		topo, cfg, cl, k := randomScene(r)
		f := randomFormula(r, topo.NumSwitches())
		chk, err := NewIncremental(k, f)
		if err != nil {
			continue
		}
		type frame struct {
			delta *kripke.Delta
			tok   Token
		}
		var stack []frame
		for step := 0; step < 12; step++ {
			if len(stack) > 0 && r.Intn(3) == 0 {
				// Backtrack.
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				chk.Revert(fr.tok)
				k.Revert(fr.delta)
			} else {
				sw := r.Intn(topo.NumSwitches())
				var tbl network.Table
				if r.Intn(3) > 0 {
					ports := topo.Ports(sw)
					tbl = network.Table{fwdRule(cl, ports[r.Intn(len(ports))])}
				}
				delta, err := k.UpdateSwitch(sw, tbl)
				if err != nil {
					// Loop introduced: revert and skip.
					k.Revert(delta)
					continue
				}
				v, tok := chk.Update(delta)
				stack = append(stack, frame{delta, tok})
				// Compare against a fresh checker on the same structure.
				fresh, ferr := NewIncremental(k, f)
				if ferr != nil {
					t.Fatal(ferr)
				}
				fv := fresh.Check()
				if v.OK != fv.OK {
					t.Fatalf("iter %d step %d: incremental=%v fresh=%v formula=%v",
						iter, step, v.OK, fv.OK, f)
				}
				if !v.OK {
					validateCex(t, k, f, v.Cex)
				}
				want := bruteForce(k, f)
				if v.OK != want {
					t.Fatalf("iter %d step %d: incremental=%v brute=%v", iter, step, v.OK, want)
				}
			}
		}
		// Unwind fully and confirm we are back to the initial verdict.
		initial := bruteForce(k2Initial(topo, cfg, cl), f)
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			chk.Revert(fr.tok)
			k.Revert(fr.delta)
		}
		if got := chk.Check(); got.OK != initial {
			t.Fatalf("iter %d: after full revert, verdict %v != initial %v", iter, got.OK, initial)
		}
	}
}

func k2Initial(topo *topology.Topology, cfg *config.Config, cl config.Class) *kripke.K {
	k, err := kripke.Build(topo, cfg, cl)
	if err != nil {
		panic(err)
	}
	return k
}

// exampleScenarios returns the repository's example scenarios: the Figure
// 1 variants plus diamond workloads on each topology family.
func exampleScenarios(t *testing.T) []*config.Scenario {
	t.Helper()
	scs := []*config.Scenario{
		config.Fig1RedGreen(),
		config.Fig1RedBlue(),
		config.Fig1RedBlueWaypoint(),
	}
	ft, _ := topology.FatTreeForSize(20)
	for _, topo := range []*topology.Topology{
		topology.WAN("meta", 20, 7),
		topology.SmallWorld(24, 4, 0.3, 7),
		ft,
	} {
		for _, prop := range []config.Property{config.Reachability, config.Waypointing} {
			sc, err := config.Diamonds(topo, config.DiamondOptions{
				Pairs: 1, Property: prop, Seed: 7,
			})
			if err != nil {
				continue // the property's diamond does not fit this topology
			}
			scs = append(scs, sc)
		}
	}
	if len(scs) < 6 {
		t.Fatalf("only %d example scenarios generated", len(scs))
	}
	return scs
}

// TestMetamorphicIncrementalVsBatch drives the incremental and the batch
// checker through an identical randomized sequence of UpdateSwitch and
// Revert operations over every example scenario, asserting per-state
// label equality and identical verdicts at every step. The batch checker
// recomputes everything from scratch each time, so any divergence pins a
// bug in the incremental bookkeeping (stale labels, bad epoch stamps,
// broken undo tokens, or intern-table corruption).
func TestMetamorphicIncrementalVsBatch(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, sc := range exampleScenarios(t) {
		for _, cs := range sc.Specs {
			k, err := kripke.Build(sc.Topo, sc.Init, cs.Class)
			if err != nil {
				continue // initial config loops for this class: not checkable
			}
			inc, err := NewIncremental(k, cs.Formula)
			if err != nil {
				continue // oversized closure
			}
			bat, err := NewBatch(k, cs.Formula)
			if err != nil {
				t.Fatal(err)
			}
			tables := func(sw int) []network.Table {
				return []network.Table{sc.Init.Table(sw), sc.Final.Table(sw)}
			}
			metamorphicDrive(t, r, k, inc, bat, sc.UpdatingSwitches(), tables, 16)
		}
	}
	// Random scenes with random formulas and random partial tables widen
	// the input space beyond the curated scenarios.
	for iter := 0; iter < 25; iter++ {
		topo, _, cl, k := randomScene(r)
		f := randomFormula(r, topo.NumSwitches())
		inc, err := NewIncremental(k, f)
		if err != nil {
			continue
		}
		bat, err := NewBatch(k, f)
		if err != nil {
			continue
		}
		sws := make([]int, topo.NumSwitches())
		for i := range sws {
			sws[i] = i
		}
		tables := func(sw int) []network.Table {
			ports := topo.Ports(sw)
			return []network.Table{
				nil, // drop everything
				{fwdRule(cl, ports[r.Intn(len(ports))])},
			}
		}
		metamorphicDrive(t, r, k, inc, bat, sws, tables, 14)
	}
}

// metamorphicDrive applies a random update/revert walk to both checkers
// over the shared structure k, comparing verdicts and per-state labels
// after every step.
func metamorphicDrive(t *testing.T, r *rand.Rand, k *kripke.K,
	inc, bat Checker, sws []int, tables func(sw int) []network.Table, steps int) {
	t.Helper()
	type mframe struct {
		delta *kripke.Delta
		itok  Token
		btok  Token
	}
	var stack []mframe
	compare := func(step int) {
		iv := inc.Check()
		bv := bat.Check() // relabels from scratch
		if iv.OK != bv.OK {
			t.Fatalf("step %d: verdicts diverge: incremental=%v batch=%v", step, iv.OK, bv.OK)
		}
		il := inc.(*Incremental)
		bl := bat.(*Batch)
		for id := 0; id < k.NumStates(); id++ {
			if !valuationsEqual(il.Labels(id), bl.Labels(id)) {
				t.Fatalf("step %d: label of state %d diverges:\n  incremental=%v\n  batch=%v",
					step, id, il.Labels(id), bl.Labels(id))
			}
		}
	}
	compare(-1)
	for step := 0; step < steps; step++ {
		if len(stack) > 0 && r.Intn(3) == 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			inc.Revert(fr.itok)
			bat.Revert(fr.btok)
			k.Revert(fr.delta)
		} else {
			sw := sws[r.Intn(len(sws))]
			tbls := tables(sw)
			delta, err := k.UpdateSwitch(sw, tbls[r.Intn(len(tbls))])
			if err != nil {
				if delta != nil {
					k.Revert(delta) // loop: applied, must roll back
				}
				continue
			}
			iv, itok := inc.Update(delta)
			bv, btok := bat.Update(delta)
			if iv.OK != bv.OK {
				t.Fatalf("step %d: update verdicts diverge: incremental=%v batch=%v", step, iv.OK, bv.OK)
			}
			stack = append(stack, mframe{delta, itok, btok})
		}
		compare(step)
	}
	// Unwind fully; the checkers must land back on the initial state.
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		inc.Revert(fr.itok)
		bat.Revert(fr.btok)
		k.Revert(fr.delta)
	}
	compare(steps)
}

func TestStatsAccumulate(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	_, _, _, k := randomScene(r)
	chk, err := NewIncremental(k, ltl.Reachability(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	chk.Check()
	st := chk.Stats()
	if st.Checks == 0 || st.StatesLabeled == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
}

// TestForgetMemo: ForgetMemo with a MemoMark taken before a run of
// updates puts the checker's memo back as it was, so the same run again
// misses the memo exactly as often as it did the first time.
func TestForgetMemo(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	type step struct {
		sw  int
		tbl network.Table
	}
	missed := 0
	for iter := 0; iter < 40; iter++ {
		topo, _, cl, k := randomScene(r)
		f := randomFormula(r, topo.NumSwitches())
		var seq []step
		for i := 0; i < 8; i++ {
			sw := r.Intn(topo.NumSwitches())
			ports := topo.Ports(sw)
			seq = append(seq, step{sw, network.Table{fwdRule(cl, ports[r.Intn(len(ports))])}})
		}
		for _, factory := range []Factory{NewIncremental, NewBatch} {
			chk, err := factory(k, f)
			if err != nil {
				continue
			}
			run := func() int {
				before := chk.Stats().ExtendMisses
				var deltas []*kripke.Delta
				var toks []Token
				for _, st := range seq {
					delta, err := k.UpdateSwitch(st.sw, st.tbl)
					if err != nil {
						k.Revert(delta)
						continue
					}
					_, tok := chk.Update(delta)
					deltas, toks = append(deltas, delta), append(toks, tok)
				}
				for i := len(deltas) - 1; i >= 0; i-- {
					chk.Revert(toks[i])
					k.Revert(deltas[i])
				}
				return chk.Stats().ExtendMisses - before
			}
			mark := chk.MemoMark()
			first := run()
			chk.ForgetMemo(mark)
			if got := chk.MemoMark(); got != mark {
				t.Fatalf("iter %d %s: MemoMark %d after ForgetMemo(%d)", iter, chk.Name(), got, mark)
			}
			if again := run(); again != first {
				t.Fatalf("iter %d %s: %d misses after forgetting, %d the first time", iter, chk.Name(), again, first)
			}
			missed += first
		}
	}
	if missed == 0 {
		t.Fatal("no run missed the memo: nothing was forgotten")
	}
}

// randomConfigFor draws a random loop-free configuration for an existing
// scene (same topology and class), for exercising Rebind.
func randomConfigFor(r *rand.Rand, topo *topology.Topology, cl config.Class) (*config.Config, bool) {
	n := topo.NumSwitches()
	for attempt := 0; attempt < 20; attempt++ {
		cfg := config.New()
		for sw := 0; sw < n; sw++ {
			if r.Intn(4) == 0 {
				continue
			}
			ports := topo.Ports(sw)
			cfg.AddRule(sw, fwdRule(cl, ports[r.Intn(len(ports))]))
		}
		if _, err := kripke.Build(topo, cfg, cl); err == nil {
			return cfg, true
		}
	}
	return nil, false
}

// TestIncrementalRebindMatchesFresh drives one warm checker through a
// random walk of in-place rebinds and compares, after every step, its
// verdict and per-state labels against a cold checker built from scratch
// on the rebound configuration.
func TestIncrementalRebindMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		topo, _, cl, k := randomScene(r)
		spec := randomFormula(r, topo.NumSwitches())
		warmC, err := NewIncremental(k, spec)
		if err != nil {
			t.Fatal(err)
		}
		warm := warmC.(*Incremental)
		for step := 0; step < 6; step++ {
			cfg, ok := randomConfigFor(r, topo, cl)
			if !ok {
				continue
			}
			changed, _, err := k.Rebind(cfg)
			if err != nil {
				t.Fatalf("iter %d step %d: rebind: %v", iter, step, err)
			}
			var rewired []int
			for _, sw := range changed {
				rewired = append(rewired, k.StatesOf(sw)...)
			}
			warm.Rebind(rewired)
			k2, err := kripke.Build(topo, cfg, cl)
			if err != nil {
				t.Fatal(err)
			}
			coldC, err := NewIncremental(k2, spec)
			if err != nil {
				t.Fatal(err)
			}
			cold := coldC.(*Incremental)
			wv, cv := warm.Check(), cold.Check()
			if wv.OK != cv.OK {
				t.Fatalf("iter %d step %d: warm OK=%v cold OK=%v", iter, step, wv.OK, cv.OK)
			}
			for id := 0; id < k.NumStates(); id++ {
				if !valuationsEqual(warm.Labels(id), cold.Labels(id)) {
					t.Fatalf("iter %d step %d: labels diverge at state %d:\nwarm %v\ncold %v",
						iter, step, id, warm.Labels(id), cold.Labels(id))
				}
			}
			// The warm checker must still work incrementally after the
			// rebind: update/revert round-trips agree with the cold one.
			sw := r.Intn(topo.NumSwitches())
			ports := topo.Ports(sw)
			tbl := network.Table{fwdRule(cl, ports[r.Intn(len(ports))])}
			dw, errW := k.UpdateSwitch(sw, tbl)
			dc, errC := k2.UpdateSwitch(sw, tbl)
			if (errW == nil) != (errC == nil) {
				t.Fatalf("iter %d step %d: update err diverged: %v vs %v", iter, step, errW, errC)
			}
			if errW == nil {
				vw, tokW := warm.Update(dw)
				vc, tokC := cold.Update(dc)
				if vw.OK != vc.OK {
					t.Fatalf("iter %d step %d: post-rebind update OK=%v vs %v", iter, step, vw.OK, vc.OK)
				}
				warm.Revert(tokW)
				cold.Revert(tokC)
			}
			k.Revert(dw)
			k2.Revert(dc)
		}
	}
}

// TestWarmthSharesLabels: two checkers for the same formula built through
// one Warmth share a label table and a closure, so the second interns
// (almost) nothing new; distinct formulas get distinct entries.
func TestWarmthSharesLabels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	topo, _, cl, k := randomScene(r)
	spec := ltl.Reachability(0, 1)
	w := NewWarmth()
	c1, err := NewIncrementalWarm(k, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	interned1 := c1.Stats().LabelsInterned
	if interned1 == 0 {
		t.Fatal("first checker interned nothing; test is vacuous")
	}
	cfg2, ok := randomConfigFor(r, topo, cl)
	if !ok {
		t.Skip("no second configuration found")
	}
	k2, err := kripke.Build(topo, cfg2, cl)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewIncrementalWarm(k2, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.(*Incremental).tab; got != c1.(*Incremental).tab {
		t.Fatal("checkers for one formula must share the warm label table")
	}
	if c1.(*Incremental).clo != c2.(*Incremental).clo {
		t.Fatal("checkers for one formula must share the warm closure")
	}
	if w.Len() != 1 {
		t.Fatalf("warmth entries = %d, want 1", w.Len())
	}
	if _, err := NewIncrementalWarm(k, ltl.Reachability(1, 2), w); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("warmth entries = %d, want 2 after a second formula", w.Len())
	}
	// Verdicts through the shared table still match brute force.
	if got, want := c1.Check().OK, bruteForce(k, spec); got != want {
		t.Fatalf("warm checker verdict = %v, brute force = %v", got, want)
	}
}

// TestEmptyDeltaSkipsWork: an update that does not change the class's
// transitions produces an empty delta, and the incremental checker's
// Update on it relabels nothing and keeps the verdict.
func TestEmptyDeltaSkipsWork(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	topo, cfg, _, k := randomScene(r)
	spec := randomFormula(r, topo.NumSwitches())
	c, err := NewIncremental(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Check()
	sw := r.Intn(topo.NumSwitches())
	tbl := cfg.Table(sw).Clone()
	tbl = append(tbl, network.Rule{ // other-flow rule: class-irrelevant
		Priority: 1, Match: network.MatchFlow(500, 501),
		Actions: []network.Action{network.Forward(topo.Ports(sw)[0])},
	})
	d, err := k.UpdateSwitch(sw, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed()) != 0 {
		t.Fatalf("changed = %v, want empty", d.Changed())
	}
	labeledBefore := c.Stats().StatesLabeled
	v, tok := c.Update(d)
	if v.OK != before.OK {
		t.Fatalf("verdict changed on empty delta: %v -> %v", before.OK, v.OK)
	}
	if got := c.Stats().StatesLabeled; got != labeledBefore {
		t.Fatalf("empty delta relabeled %d states", got-labeledBefore)
	}
	c.Revert(tok)
	k.Revert(d)
}

// currentConfig reads back the tables installed in k.
func currentConfig(k *kripke.K) *config.Config {
	cfg := config.New()
	for sw := 0; sw < k.Topo.NumSwitches(); sw++ {
		cfg.SetTable(sw, k.Table(sw))
	}
	return cfg
}

// TestIncrementalMatchesFreshAndBatchOnRandomSequences is the checker's
// differential test: one warm incremental checker is driven through random
// sequences of everything the engine and the session do to it — updates
// kept, reverted or committed (newest first, as the search's success
// unwind and a cache replay commit theirs; a delta under a committed one
// is then committed too), updates that close a forwarding loop and are rolled
// back before the checker sees them (a failed replay), whole targets
// applied as one multi-switch step and kept or reverted (the session's
// final verification; a cyclic one is rolled back unseen), undo stacks
// abandoned at a rebind, rebinds that name the rewired states, a
// rebind to a cyclic target pulled back without the checker hearing of
// either move, and rebases on a configuration that differs from the
// structure's tables by rules of other flows, of which the checker hears
// nothing either — and after every operation its per-state labels, verdict
// and counterexample must equal those of a fresh incremental checker and
// of the batch checker, both built on a fresh structure at the same
// tables.
func TestIncrementalMatchesFreshAndBatchOnRandomSequences(t *testing.T) {
	r := rand.New(rand.NewSource(20150613))
	var updates, loops, reverts, commits, targets, rebinds, rebases, noops, restores, failing int
	for iter := 0; iter < 60; iter++ {
		topo, _, cl, k := randomScene(r)
		spec := randomFormula(r, topo.NumSwitches())
		warmC, err := NewIncremental(k, spec)
		if err != nil {
			continue // oversized closure
		}
		warm := warmC.(*Incremental)
		type applied struct {
			delta *kripke.Delta
			tok   Token
			// sealed marks an update a newer committed one sits on: it can
			// only be committed.
			sealed bool
		}
		var stack []applied
		compare := func(step int, op string) {
			t.Helper()
			k2, err := kripke.Build(topo, currentConfig(k), cl)
			if err != nil {
				t.Fatalf("iter %d step %d (%s): structure left cyclic: %v", iter, step, op, err)
			}
			freshC, err := NewIncremental(k2, spec)
			if err != nil {
				t.Fatal(err)
			}
			batchC, err := NewBatch(k2, spec)
			if err != nil {
				t.Fatal(err)
			}
			fresh, batch := freshC.(*Incremental), batchC.(*Batch)
			wv, fv, bv := warm.Check(), fresh.Check(), batch.Check()
			if wv.OK != fv.OK || wv.OK != bv.OK {
				t.Fatalf("iter %d step %d (%s): verdict warm=%v fresh=%v batch=%v", iter, step, op, wv.OK, fv.OK, bv.OK)
			}
			for id := 0; id < k.NumStates(); id++ {
				if !valuationsEqual(warm.Labels(id), fresh.Labels(id)) || !valuationsEqual(warm.Labels(id), batch.Labels(id)) {
					t.Fatalf("iter %d step %d (%s): labels diverge at state %d:\nwarm  %v\nfresh %v\nbatch %v",
						iter, step, op, id, warm.Labels(id), fresh.Labels(id), batch.Labels(id))
				}
			}
			if wv.OK {
				return
			}
			failing++
			if len(wv.Cex) == 0 || !slices.Equal(wv.Cex, fv.Cex) {
				t.Fatalf("iter %d step %d (%s): counterexample warm=%v fresh=%v", iter, step, op, wv.Cex, fv.Cex)
			}
			// Batch scans the initial states in host order, the incremental
			// checkers take the smallest violating one: the traces must
			// agree whenever both start at the same state.
			if bv.Cex[0] == wv.Cex[0] && !slices.Equal(wv.Cex, bv.Cex) {
				t.Fatalf("iter %d step %d (%s): counterexample warm=%v batch=%v", iter, step, op, wv.Cex, bv.Cex)
			}
			validateCex(t, k2, spec, bv.Cex)
		}
		for step := 0; step < 30; step++ {
			switch op := r.Intn(12); {
			case op == 11:
				// The end of a session's resync: the structure is bound to a
				// configuration under which the class is forwarded as before;
				// undo tokens stay good.
				cfg := currentConfig(k)
				for sw := 0; sw < topo.NumSwitches(); sw++ {
					if ports := topo.Ports(sw); r.Intn(3) == 0 {
						cfg.SetTable(sw, append(k.Table(sw).Clone(), network.Rule{
							Priority: 5 + r.Intn(10), Match: network.MatchFlow(500, 501+r.Intn(2)),
							Actions: []network.Action{network.Forward(ports[r.Intn(len(ports))])},
						}))
					}
				}
				k.Rebase(cfg)
				rebases++
				compare(step, "rebase")
			case op < 5:
				sw := r.Intn(topo.NumSwitches())
				ports := topo.Ports(sw)
				var tbl network.Table
				if r.Intn(5) > 0 {
					tbl = network.Table{fwdRule(cl, ports[r.Intn(len(ports))])}
				}
				delta, err := k.UpdateSwitch(sw, tbl)
				if err != nil {
					k.Revert(delta) // a loop: rolled back before the checker hears of it
					loops++
					compare(step, "looping update")
					continue
				}
				_, tok := warm.Update(delta)
				stack = append(stack, applied{delta: delta, tok: tok})
				updates++
				compare(step, "update")
			case op < 7:
				if len(stack) == 0 || stack[len(stack)-1].sealed {
					continue
				}
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				warm.Revert(top.tok)
				k.Revert(top.delta)
				reverts++
				compare(step, "revert")
			case op == 7:
				// Some of the newest updates stay.
				for n := 1 + r.Intn(len(stack)+1); n > 0 && len(stack) > 0; n-- {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					warm.Commit(top.tok)
					k.Commit(top.delta)
					commits++
					if len(stack) > 0 {
						stack[len(stack)-1].sealed = true
					}
					compare(step, "commit")
				}
			default:
				cfg := config.New()
				for sw := 0; sw < topo.NumSwitches(); sw++ {
					if ports := topo.Ports(sw); r.Intn(4) > 0 {
						cfg.AddRule(sw, fwdRule(cl, ports[r.Intn(len(ports))]))
					}
				}
				all := make([]int, topo.NumSwitches())
				for sw := range all {
					all[sw] = sw
				}
				if r.Intn(2) == 0 {
					// The whole target as one step, like any other update.
					delta, err := k.UpdateSwitches(cfg, all)
					if err != nil {
						k.Revert(delta)
						loops++
						compare(step, "cyclic target as one step")
						continue
					}
					_, tok := warm.Update(delta)
					stack = append(stack, applied{delta: delta, tok: tok})
					targets++
					compare(step, "target as one step")
					continue
				}
				// A rebind invalidates the outstanding undo tokens: the
				// session drops them with the engine that held them.
				stack = stack[:0]
				before := currentConfig(k)
				changed, err := k.RebindSwitches(cfg, all)
				if err != nil {
					// Cyclic target: pull the structure back to the loop-free
					// configuration it left; the checker saw neither move,
					// so its labels stand.
					if _, _, err := k.Rebind(before); err != nil {
						t.Fatal(err)
					}
					restores++
					compare(step, "restore after cyclic target")
					continue
				}
				if len(changed) == 0 {
					noops++
					compare(step, "rebind without change")
					continue
				}
				var rewired []int
				for _, sw := range changed {
					rewired = append(rewired, k.StatesOf(sw)...)
				}
				warm.Rebind(rewired)
				rebinds++
				compare(step, "rebind")
			}
		}
	}
	for name, n := range map[string]int{
		"updates": updates, "looping updates": loops, "reverts": reverts, "commits": commits, "one-step targets": targets,
		"rebinds": rebinds, "rebases": rebases, "cyclic-target restores": restores, "violating states": failing,
	} {
		if n < 20 {
			t.Errorf("only %d %s exercised", n, name)
		}
	}
	t.Logf("updates=%d loops=%d reverts=%d commits=%d targets=%d rebinds=%d (no-op %d) rebases=%d restores=%d violating=%d",
		updates, loops, reverts, commits, targets, rebinds, noops, rebases, restores, failing)
}
