package netupdate

// One benchmark per table/figure of the paper's evaluation (Section 6),
// at sizes that finish in CI time, plus micro-benchmarks for the moving
// parts. cmd/experiments regenerates the figures at the paper's sizes and
// prints the full series.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"netupdate/internal/bench"
	"netupdate/internal/buchi"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/hsa"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/obs"
	"netupdate/internal/sat"
	"netupdate/internal/topology"
)

// BenchmarkFig2aProbeLoss regenerates Figure 2(a): probe delivery during
// naive, ordering, and two-phase updates of the Figure 1 example.
func BenchmarkFig2aProbeLoss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2bRuleOverhead regenerates Figure 2(b): per-switch rule
// overhead of two-phase versus ordering updates.
func BenchmarkFig2bRuleOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7(a-c): synthesis runtime per checker
// backend on each topology family (reachability diamonds).
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	families := []bench.Family{bench.FamilyZoo, bench.FamilyFatTree, bench.FamilySmallWorld}
	checkers := []bench.Backend{bench.Incremental, bench.Batch, bench.NuSMVLike}
	for _, fam := range families {
		for _, ck := range checkers {
			b.Run(string(fam)+"/"+ck.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc, err := bench.DiamondWorkload(fam, 60, config.Reachability, 60)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := core.SynthesizeWith(context.Background(), sc, core.Options{}, core.SessionResources{Factory: ck.New}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7RuleGranularity regenerates Figure 7(d-f): Incremental vs
// the NetPlumber substitute at rule granularity.
func BenchmarkFig7RuleGranularity(b *testing.B) {
	b.ReportAllocs()
	for _, ck := range []bench.Backend{bench.Incremental, bench.NetPlumberLike} {
		b.Run(ck.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := bench.DiamondWorkload(bench.FamilySmallWorld, 50, config.Reachability, 50)
				if err != nil {
					b.Fatal(err)
				}
				_, err = core.SynthesizeWith(context.Background(), sc, core.Options{RuleGranularity: true}, core.SessionResources{Factory: ck.New})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8gScalability regenerates Figure 8(g): Small-World
// scalability for the three property families.
func BenchmarkFig8gScalability(b *testing.B) {
	b.ReportAllocs()
	for _, prop := range []config.Property{config.Reachability, config.Waypointing, config.ServiceChaining} {
		b.Run(prop.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := bench.DiamondWorkload(bench.FamilySmallWorld, 120, prop, 120*7)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Synthesize(sc, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdSynthesizeMulticlass is a cold synthesis with the shape of
// the traffic the benchmark spine serves — many classes over a few
// hundred switches (14 diamonds on a 400-switch small-world graph) —
// where Figure 8(g) above has 120 switches and one diamond: per-class
// structure builds, initial labeling, final verification, a decomposed
// search, wait removal and the DAG build all carry weight here, and work
// proportional to classes x switches x plan steps shows. CI gates
// allocs/op (.github/alloc-budgets.txt); BenchmarkOrderingAnalysis in
// internal/core isolates the passes after the search on the same plan.
func BenchmarkColdSynthesizeMulticlass(b *testing.B) {
	sc, err := config.Diamonds(topology.SmallWorld(400, 4, 0.3, 400), config.DiamondOptions{
		Pairs: 14, Property: config.Reachability, Seed: 400 * 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(sc, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionFootprint reads what one warm session holds, on the four
// tenant shapes of the spine's serve-large-mixed workload: 8 regions x 2
// diamonds, their link classes and one infeasible gadget region on
// degree-6 small-world graphs of 400-800 switches. live-B/session is the
// heap in use after two collections, less what was in use before the
// session existed (topology and scenario): /built after NewSession — the
// private arena and one structure and checker per class — /served after
// the first Synthesize, which adds the last plan and the rows and labels
// the target's states gained (engine scratch is borrowed from a
// process-level pool for the run, not held). A session's classes each connect a few dozen
// of the arena's thousands of states; an array per class as long as the
// arena shows here as megabytes and nowhere in allocs/op, which is why CI
// gates this reading (.github/alloc-budgets.txt).
func BenchmarkSessionFootprint(b *testing.B) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, n := range []int{400, 500, 650, 800} {
		topo := topology.SmallWorld(n, 6, 0.3, int64(n))
		var sc *config.Scenario
		for regions := 8; sc == nil; regions-- {
			if regions == 0 {
				b.Fatalf("cannot place any region on small-world-%d", n)
			}
			sc, _ = config.MultiRegion(topo, config.MultiRegionOptions{
				Regions: regions, PairsPerRegion: 2, InfeasibleRegions: 1,
				Property: config.Reachability, Seed: int64(n),
			})
		}
		// The first target moves every class but the gadget's, which no
		// ordering moves together.
		target := sc.Final.Clone()
		for _, cs := range sc.Specs {
			var reg int
			var side string
			if k, _ := fmt.Sscanf(cs.Class.Name, "r%dg%s", &reg, &side); k != 2 {
				continue
			}
			config.RemoveClassRules(target, cs.Class)
			for _, sw := range sc.Init.Switches() {
				for _, rule := range sc.Init.Table(sw) {
					if rule.Match == cs.Class.Pattern() {
						target.AddRule(sw, rule)
					}
				}
			}
		}
		for _, served := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/built", n)
			if served {
				name = fmt.Sprintf("n=%d/served", n)
			}
			b.Run(name, func(b *testing.B) {
				var total uint64
				for i := 0; i < b.N; i++ {
					before := live()
					sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if served {
						if _, err := sess.Synthesize(target); err != nil {
							b.Fatal(err)
						}
					}
					if after := live(); after > before {
						total += after - before
					}
					runtime.KeepAlive(sess)
				}
				b.ReportMetric(float64(total)/float64(b.N), "live-B/session")
			})
		}
	}
}

// BenchmarkFig8hInfeasible regenerates Figure 8(h): time to prove that no
// switch-granularity ordering exists.
func BenchmarkFig8hInfeasible(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := bench.InfeasibleWorkload(60, config.Reachability, 2, 60*3)
		if err != nil {
			b.Fatal(err)
		}
		_, err = core.Synthesize(sc, core.Options{})
		if !errors.Is(err, core.ErrNoOrdering) {
			b.Fatalf("err = %v, want ErrNoOrdering", err)
		}
	}
}

// BenchmarkEarlyTermInfeasible proves "impossible" on the Figure 8(h)
// instances at 400 switches, where the search refutes every unit at the
// root and each counterexample reaches the early-termination store. One op
// is one search on a warm session, and nearly all of its allocations are
// the store's clauses — transitivity, cycle and learnt. CI gates allocs/op
// (.github/alloc-budgets.txt): a store that re-solves once per precedence
// cycle allocates over twice as much on service chaining.
func BenchmarkEarlyTermInfeasible(b *testing.B) {
	for _, prop := range []config.Property{config.Waypointing, config.ServiceChaining} {
		sc, err := bench.InfeasibleWorkload(400, prop, 400/30+1, 400*3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prop.String()+"-400", func(b *testing.B) {
			sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := sess.Synthesize(sc.Final)
				if !errors.Is(err, core.ErrNoOrdering) {
					b.Fatalf("err = %v, want ErrNoOrdering", err)
				}
			}
		})
	}
}

// BenchmarkFig8iRuleGranularity regenerates Figure 8(i): solving the
// switch-impossible workloads at rule granularity.
func BenchmarkFig8iRuleGranularity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := bench.InfeasibleWorkload(60, config.Reachability, 2, 60*3)
		if err != nil {
			b.Fatal(err)
		}
		_, err = core.Synthesize(sc, core.Options{RuleGranularity: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaitRemoval regenerates the Section 6 "Waits" measurements:
// synthesis with and without the wait-removal pass.
func BenchmarkWaitRemoval(b *testing.B) {
	b.ReportAllocs()
	sc, err := bench.DiamondWorkload(bench.FamilySmallWorld, 120, config.Reachability, 120)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.Synthesize(sc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if plan.Stats.WaitsAfter >= plan.Stats.WaitsBefore && plan.Stats.WaitsBefore > 2 {
			b.Fatalf("wait removal ineffective: %d -> %d",
				plan.Stats.WaitsBefore, plan.Stats.WaitsAfter)
		}
	}
}

// BenchmarkCheckerOnlyComparison regenerates the Section 6 checker-only
// comparison (same model-checking questions, different backends).
func BenchmarkCheckerOnlyComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.CheckerOnly(60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the optimization ablation table.
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablation(60, 5*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRollingStream measures the steady-state controller workload:
// a rolling random walk of diamond targets over one topology, synthesized
// either through one long-lived session (warm — structures rebound in
// place, labels and scratch reused) or with a fresh one-shot Synthesize
// per target (cold). One benchmark op is the whole stream (8 syntheses),
// so warm and cold do identical work per op; the warm variant must show
// strictly lower ns/op and allocs/op. CI gates the warm allocs/op (see
// .github/workflows/ci.yml).
func BenchmarkRollingStream(b *testing.B) {
	w, err := bench.BuildStreamWorkload(bench.FamilySmallWorld, 60, 8, config.Reachability, 60*11)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		cur := w.Init
		for i := 0; i < b.N; i++ {
			for _, tgt := range w.Targets {
				sc := &config.Scenario{Name: "roll", Topo: w.Topo, Init: cur, Final: tgt, Specs: w.Specs}
				if _, err := core.Synthesize(sc, opts); err != nil {
					b.Fatal(err)
				}
				cur = tgt
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		sess, err := core.NewSession(w.Topo, w.Init, w.Specs, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tgt := range w.Targets {
				if _, err := sess.Synthesize(tgt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// The traced variant is the warm stream with every synthesis run under
	// a context that asks for a trace (obs.WithTracing): each records its
	// phase spans into a trace of its own and exports a snapshot on the
	// plan. CI gates its allocs/op too — a trace must stay a constant
	// handful of allocations, not scale with the work.
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		sess, err := core.NewSession(w.Topo, w.Init, w.Specs, opts)
		if err != nil {
			b.Fatal(err)
		}
		ctx := obs.WithTracing(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tgt := range w.Targets {
				plan, err := sess.SynthesizeContext(ctx, tgt)
				if err != nil {
					b.Fatal(err)
				}
				if plan.Trace == nil {
					b.Fatal("traced synthesis returned no trace")
				}
			}
		}
	})
}

// BenchmarkFlappingStream measures the verification-first plan cache on
// flapping traffic: one warm session alternates between two
// configurations (a link flap, the canonical repetitive controller
// stream). One benchmark op is a full flap round trip (2 syntheses). The
// cached variant primes one round trip outside the timer, so every
// measured synthesis is a cache hit — replay-verification through the
// warm checkers instead of a search — and must show strictly lower ns/op
// and allocs/op than the nocache variant, which pays the full DFS on the
// identical instances. CI gates the cached allocs/op
// (.github/alloc-budgets.txt); the benchmark spine reads the same pair end
// to end as core.synthesize_hit_us against core.synthesize_miss_ms.
func BenchmarkFlappingStream(b *testing.B) {
	w, err := bench.BuildStreamWorkload(bench.FamilySmallWorld, 60, 2, config.Reachability, 60*11)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name   string
		cached bool
	}{
		{"cached", true},
		{"nocache", false},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			sess, err := core.NewSession(w.Topo, w.Init, w.Specs, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if v.cached {
				sess.EnableCache()
			}
			// Prime one flap round trip so the cached variant measures
			// pure hits and both variants measure settled sessions.
			if _, err := sess.Synthesize(w.Targets[0]); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Synthesize(w.Init); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Synthesize(w.Targets[0]); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Synthesize(w.Init); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := sess.LastStats().CacheHit; got != v.cached {
				b.Fatalf("CacheHit = %v, want %v", got, v.cached)
			}
		})
	}
}

// BenchmarkDecomposedStream measures interference-partitioned synthesis
// against the joint search on the multi-region workload (6 independent
// regions of 2 chained diamonds each), served from a warm session that
// flip-flops between the two endpoint configurations. One benchmark op is
// a full round trip (2 syntheses), so both variants do identical logical
// work per op; the decomposed variant must show lower ns/op — its
// sub-searches iterate only each region's classes while the joint search
// pays every class on every unit application — and CI pins its allocs/op
// (.github/alloc-budgets.txt).
func BenchmarkDecomposedStream(b *testing.B) {
	sc, err := bench.MultiRegionWorkload(320, 6, 2, 0, config.Reachability, 320*13)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		joint bool
	}{
		{"joint", true},
		{"decomposed", false},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := core.Options{NoDecomposition: v.joint}
			sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, opts)
			if err != nil {
				b.Fatal(err)
			}
			// Prime one round trip so label interning and scratch growth
			// settle before measurement.
			if _, err := sess.Synthesize(sc.Final); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Synthesize(sc.Init); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Synthesize(sc.Final); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Synthesize(sc.Init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks ---

func benchScene(b *testing.B, n int) (*config.Scenario, *kripke.K, *ltl.Formula) {
	b.Helper()
	topo := topology.SmallWorld(n, 4, 0.3, int64(n))
	sc, err := config.Diamonds(topo, config.DiamondOptions{
		Pairs: 1, Property: config.Reachability, Seed: int64(n),
	})
	if err != nil {
		b.Fatal(err)
	}
	k, err := kripke.Build(sc.Topo, sc.Init, sc.Specs[0].Class)
	if err != nil {
		b.Fatal(err)
	}
	return sc, k, sc.Specs[0].Formula
}

// BenchmarkKripkeBuild measures building a class Kripke structure.
func BenchmarkKripkeBuild(b *testing.B) {
	b.ReportAllocs()
	sc, _, _ := benchScene(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kripke.Build(sc.Topo, sc.Init, sc.Specs[0].Class); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUpdateLoop measures a checker's update/revert cycle on one switch.
func benchUpdateLoop(b *testing.B, factory mc.Factory) {
	sc, k, spec := benchScene(b, 200)
	chk, err := factory(k, spec)
	if err != nil {
		b.Fatal(err)
	}
	chk.Check()
	sw := sc.UpdatingSwitches()[0]
	newTbl := sc.Final.Table(sw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, err := k.UpdateSwitch(sw, newTbl)
		if err != nil {
			b.Fatal(err)
		}
		_, tok := chk.Update(delta)
		chk.Revert(tok)
		k.Revert(delta)
	}
}

// BenchmarkIncrementalUpdate measures the incremental checker's
// relabel-on-update (the paper's core operation).
func BenchmarkIncrementalUpdate(b *testing.B) {
	b.ReportAllocs()
	benchUpdateLoop(b, mc.NewIncremental)
}

// BenchmarkIncrementalSteadyState isolates the checker's steady-state
// Update+Revert cycle: the kripke delta is computed once and re-applied
// with Reapply, so the loop exercises only the checker's epoch-stamped
// relabeling and pooled undo tokens. The loop must report 0 allocs/op —
// that is the acceptance bar for the allocation-free hot path. A passing
// update is chosen deliberately: a failing verdict allocates its
// counterexample trace.
func BenchmarkIncrementalSteadyState(b *testing.B) {
	sc, k, spec := benchScene(b, 200)
	chk, err := mc.NewIncremental(k, spec)
	if err != nil {
		b.Fatal(err)
	}
	chk.Check()
	var delta *kripke.Delta
	for _, sw := range sc.UpdatingSwitches() {
		d, err := k.UpdateSwitch(sw, sc.Final.Table(sw))
		if err != nil {
			if d != nil {
				k.Revert(d) // loop errors leave the update applied
			}
			continue
		}
		v, tok := chk.Update(d)
		chk.Revert(tok)
		k.Revert(d)
		if v.OK {
			delta = d
			break
		}
	}
	if delta == nil {
		b.Fatal("no passing single-switch update in the scenario")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reapply(delta)
		_, tok := chk.Update(delta)
		chk.Revert(tok)
		k.Revert(delta)
	}
}

// BenchmarkSearchStep measures what the search pays per candidate and
// class: UpdateSwitch, the checker's Update and Check, and both Reverts,
// on a passing single-switch update, the forwarding semantics recomputed
// every time. The loop must report 0 allocs/op: the delta is a window of
// the structure's undo log, the successor lists come from the ones the
// last revert freed, and the token from the checker's freelist. One step
// runs before the timer so the structure holds its log.
func BenchmarkSearchStep(b *testing.B) {
	sc, k, spec := benchScene(b, 200)
	chk, err := mc.NewIncremental(k, spec)
	if err != nil {
		b.Fatal(err)
	}
	chk.Check()
	sw := -1
	for _, s := range sc.UpdatingSwitches() {
		d, err := k.UpdateSwitch(s, sc.Final.Table(s))
		if err != nil {
			if d != nil {
				k.Revert(d)
			}
			continue
		}
		moved := len(d.Changed()) > 0
		v, tok := chk.Update(d)
		chk.Revert(tok)
		k.Revert(d)
		if v.OK && moved {
			sw = s
			break
		}
	}
	if sw < 0 {
		b.Fatal("no passing single-switch update in the scenario")
	}
	tbl := sc.Final.Table(sw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := k.UpdateSwitch(sw, tbl)
		if err != nil {
			b.Fatal(err)
		}
		_, tok := chk.Update(d)
		if !chk.Check().OK {
			b.Fatal("the update stopped passing")
		}
		chk.Revert(tok)
		k.Revert(d)
	}
}

// BenchmarkBatchUpdate measures the full-relabel baseline on the same
// operation.
func BenchmarkBatchUpdate(b *testing.B) {
	b.ReportAllocs()
	benchUpdateLoop(b, mc.NewBatch)
}

// BenchmarkBuchiUpdate measures the automaton-theoretic (NuSMV-substitute)
// checker on the same operation.
func BenchmarkBuchiUpdate(b *testing.B) {
	b.ReportAllocs()
	benchUpdateLoop(b, buchi.New)
}

// BenchmarkHSAUpdate measures the header-space (NetPlumber-substitute)
// checker on the same operation.
func BenchmarkHSAUpdate(b *testing.B) {
	b.ReportAllocs()
	benchUpdateLoop(b, hsa.New)
}

// BenchmarkLTLExtend measures one labeling step.
func BenchmarkLTLExtend(b *testing.B) {
	b.ReportAllocs()
	clo := ltl.MustClosure(ltl.ServiceChain(1, []int{2, 3, 4}, 5))
	atoms := clo.AtomValuation(ltl.EnvFunc(func(p ltl.Prop) bool { return p.Value == 3 }))
	next := clo.Sink(atoms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = clo.Extend(atoms, next)
	}
}

// BenchmarkSATPigeonhole measures the CDCL solver on a classic UNSAT
// instance (6 pigeons, 5 holes).
func BenchmarkSATPigeonhole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		v := func(p, h int) sat.Lit { return sat.Lit(p*5 + h + 1) }
		for p := 0; p < 6; p++ {
			s.AddClause(v(p, 0), v(p, 1), v(p, 2), v(p, 3), v(p, 4))
		}
		for h := 0; h < 5; h++ {
			for p1 := 0; p1 < 6; p1++ {
				for p2 := p1 + 1; p2 < 6; p2++ {
					s.AddClause(-v(p1, h), -v(p2, h))
				}
			}
		}
		if s.Solve() {
			b.Fatal("pigeonhole must be unsat")
		}
	}
}

// BenchmarkDAGExecution measures the decentralized DAG executor: one op
// simulates the full asynchronous execution of a synthesized multi-region
// plan (every switch committing as soon as its predecessors ack) against
// probe traffic. The plan is synthesized once outside the timer so the op
// isolates executor work; CI pins its allocs/op (see
// .github/workflows/ci.yml).
func BenchmarkDAGExecution(b *testing.B) {
	sc, err := bench.MultiRegionWorkload(160, 4, 2, 0, config.Reachability, 160*13)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if plan.DAG == nil || plan.Stats.DAGWidth < 2 {
		b.Fatalf("plan DAG missing or too narrow: %+v", plan.DAG)
	}
	var classes []Class
	for _, cs := range sc.Specs {
		classes = append(classes, cs.Class)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SimulateDAG(sc.Topo, sc.Init, plan, classes, SimParams{
			Duration: time.Second, ProbeInterval: 2 * time.Millisecond,
		})
		if res.Lost != 0 || res.CompleteAt == 0 {
			b.Fatalf("DAG execution lost %d probes, complete at %v", res.Lost, res.CompleteAt)
		}
	}
}

// BenchmarkRepair measures warm-session repair after a mid-execution
// crash: each iteration rebuilds a session and plan (untimed), commits
// the first half of the plan's DAG nodes, and times Session.Repair from
// that crash state back to the stranded target. Allocations stay
// diff-proportional (the rebind touches only crashed-vs-current diffs,
// and the search reuses pooled engine scratch); CI gates allocs/op.
func BenchmarkRepair(b *testing.B) {
	sc, err := bench.MultiRegionWorkload(160, 4, 2, 0, config.Reachability, 160*13)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, opts)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := sess.Synthesize(sc.Final)
		if err != nil {
			b.Fatal(err)
		}
		prefix := make([]int, len(plan.Updates())/2)
		for j := range prefix {
			prefix[j] = j
		}
		b.StartTimer()
		rep, err := sess.Repair(prefix, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.RepairCommitted != len(prefix) {
			b.Fatalf("repair stats = %+v", rep.Stats)
		}
	}
}

// BenchmarkSnapshotRestore measures core.RestoreSessionWith on a warm
// multi-region session's image, over the shared arena with the context
// fingerprint handed over. /decoded is an image that arrives as bytes
// (migration, restart): the configuration is decoded and every class
// built and verified on it before the session exists, which is a cold
// NewSessionWith plus the decode.
func BenchmarkSnapshotRestore(b *testing.B) {
	sc, err := bench.MultiRegionWorkload(160, 4, 2, 0, config.Reachability, 160*13)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{}
	res := core.SessionResources{
		Arena: kripke.NewArena(sc.Topo), Warmth: mc.NewWarmth(),
		ContextFP: core.ContextFingerprint(sc.Topo, sc.Specs, opts),
	}
	sess, err := core.NewSessionWith(sc.Topo, sc.Init, sc.Specs, opts, res)
	if err != nil {
		b.Fatal(err)
	}
	sess.EnableCache()
	if _, err := sess.Synthesize(sc.Final); err != nil {
		b.Fatal(err)
	}
	img, err := sess.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restored, err := core.RestoreSessionWith(sc.Topo, sc.Specs, opts, img, res)
			if err != nil {
				b.Fatal(err)
			}
			if restored.Runs() != sess.Runs() || restored.Current() == sess.Current() {
				b.Fatalf("restored %d runs (want %d), on the writer's configuration object: %v", restored.Runs(), sess.Runs(), restored.Current() == sess.Current())
			}
		}
	})
}

// BenchmarkSimulatorFig1 measures the discrete-event simulator on the
// Figure 1 scenario.
func BenchmarkSimulatorFig1(b *testing.B) {
	b.ReportAllocs()
	sc := config.Fig1RedGreen()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	classes := []Class{sc.Specs[0].Class}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Simulate(sc.Topo, sc.Init, plan.Commands(), classes, SimParams{
			Duration: time.Second,
		})
		if res.Lost != 0 {
			b.Fatal("unexpected loss")
		}
	}
}
