package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"netupdate/internal/buchi"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/hsa"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/sim"
	"netupdate/internal/twophase"
)

// Fig2a reproduces Figure 2(a): probes received over time during the
// red-to-green update of Figure 1 under the naive, two-phase, and
// synthesized ordering updates.
func Fig2a() (*Table, error) {
	sc := config.Fig1RedGreen()
	classes := []config.Class{sc.Specs[0].Class}
	params := sim.Params{
		LinkLatency:   50 * time.Microsecond,
		UpdateLatency: 500 * time.Millisecond, // slow switches: visible window
		ProbeInterval: 5 * time.Millisecond,
		Duration:      6 * time.Second,
		BucketWidth:   250 * time.Millisecond,
		CommandStart:  time.Second,
	}
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		return nil, err
	}
	naive := sim.Run(sc.Topo, sc.Init, twophase.Naive(sc), classes, params)
	ordering := sim.Run(sc.Topo, sc.Init, plan.Commands(), classes, params)
	tp := sim.Run(sc.Topo, sc.Init, twophase.Build(sc).Commands, classes, params)

	t := &Table{
		Title:  "Figure 2(a): probes received during the red->green update",
		Note:   "fraction of probes delivered, bucketed by send time",
		Header: []string{"t(s)", "naive", "ordering", "two-phase"},
	}
	for i := range naive.Buckets {
		t.Add(
			fmt.Sprintf("%.2f", naive.Buckets[i].Start.Seconds()),
			naive.Buckets[i].Fraction(),
			ordering.Buckets[i].Fraction(),
			tp.Buckets[i].Fraction(),
		)
	}
	t.Add("lost", naive.Lost, ordering.Lost, tp.Lost)
	return t, nil
}

// Fig2b reproduces Figure 2(b): per-switch rule overhead of the
// two-phase update versus the synthesized ordering update.
func Fig2b() (*Table, error) {
	sc := config.Fig1RedGreen()
	_, nodes := config.Fig1Topology()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		return nil, err
	}
	tp := twophase.Build(sc)
	ordPeak, _ := twophase.OrderingPeaks(sc.Init, plan.Commands())
	t := &Table{
		Title:  "Figure 2(b): per-switch rule overhead (peak/steady)",
		Header: []string{"switch", "two-phase", "ordering"},
	}
	names := []struct {
		name string
		sw   int
	}{
		{"T1", nodes.T1}, {"T2", nodes.T2}, {"T3", nodes.T3}, {"T4", nodes.T4},
		{"A1", nodes.A1}, {"A2", nodes.A2}, {"A3", nodes.A3}, {"A4", nodes.A4},
		{"C1", nodes.C1}, {"C2", nodes.C2},
	}
	ratio := func(peak, steady int) string {
		if steady == 0 {
			if peak == 0 {
				return "-"
			}
			return fmt.Sprintf("%dX/0", peak)
		}
		return fmt.Sprintf("%.1fX", float64(peak)/float64(steady))
	}
	for _, n := range names {
		steady := len(sc.Final.Table(n.sw))
		if s := len(sc.Init.Table(n.sw)); s > steady {
			steady = s
		}
		t.Add(n.name, ratio(tp.PeakRules[n.sw], steady), ratio(ordPeak[n.sw], steady))
	}
	return t, nil
}

// Backend is one row of the paper's checker comparison (Section 6, Figure
// 7): a name for the report and the constructor its sessions build their
// per-class checkers with. The engine serves the incremental checker
// only; the other rows exist to regenerate the figure and reach the
// engine through core.SessionResources.Factory.
type Backend struct {
	Name string
	// New is nil for the served checker: the session's own incremental
	// checker over its shared warmth, exactly what every daemon runs.
	New mc.Factory
}

// The four backends of Figure 7. The NuSMV and NetPlumber rows are
// stand-ins (DESIGN.md "Checker contract").
var (
	Incremental    = Backend{Name: "incremental"}
	Batch          = Backend{Name: "batch", New: mc.NewBatch}
	NuSMVLike      = Backend{Name: "nusmv-like", New: buchi.New}
	NetPlumberLike = Backend{Name: "netplumber-like", New: hsa.New}

	Backends = []Backend{Incremental, Batch, NuSMVLike, NetPlumberLike}
)

// synthesize is one synthesis of a figure, its search bounded by timeout.
func synthesize(sc *config.Scenario, opts core.Options, res core.SessionResources, timeout time.Duration) (*core.Plan, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return core.SynthesizeWith(ctx, sc, opts, res)
}

// SynthesisPoint is one measurement of a synthesis sweep.
type SynthesisPoint struct {
	Size     int
	Rules    int
	Updating int
	// Seconds per checker backend; negative values mark timeout/error.
	Seconds map[string]float64
}

// Fig7 reproduces Figure 7(a-c): synthesis runtime with the Incremental,
// Batch, and NuSMV-substitute backends on one topology family, for the
// reachability property.
func Fig7(f Family, sizes []int, checkers []Backend, timeout time.Duration) (*Table, []SynthesisPoint, error) {
	return sweep(fmt.Sprintf("Figure 7 (%s): synthesis runtime by checker", f),
		f, sizes, checkers, config.Reachability, timeout, false)
}

// Fig7Rule reproduces Figure 7(d-f): Incremental versus the NetPlumber
// substitute at rule granularity; the x axis is the rule count.
func Fig7Rule(f Family, sizes []int, timeout time.Duration) (*Table, []SynthesisPoint, error) {
	return sweep(fmt.Sprintf("Figure 7 d-f (%s): rule-granularity runtime", f),
		f, sizes, []Backend{Incremental, NetPlumberLike},
		config.Reachability, timeout, true)
}

func sweep(title string, f Family, sizes []int, checkers []Backend, prop config.Property, timeout time.Duration, ruleGranularity bool) (*Table, []SynthesisPoint, error) {
	var points []SynthesisPoint
	for si, n := range sizes {
		background := 0
		if ruleGranularity {
			background = n // realistic table sizes for the rule-count axis
		}
		sc, err := DiamondWorkloadBG(f, n, prop, int64(n), background)
		if err != nil {
			return nil, nil, err
		}
		pt := SynthesisPoint{
			Size:     sc.Topo.NumSwitches(),
			Rules:    sc.Init.NumRules() + sc.Final.NumRules(),
			Updating: len(sc.UpdatingSwitches()),
			Seconds:  map[string]float64{},
		}
		for i := range checkers {
			// Rotated, so no column is always the first on a new topology.
			ck := checkers[(si+i)%len(checkers)]
			secs, err := timeSynthesis(ck, sc, core.Options{RuleGranularity: ruleGranularity}, timeout)
			if err != nil {
				pt.Seconds[ck.Name] = -1
				continue
			}
			pt.Seconds[ck.Name] = secs
		}
		points = append(points, pt)
	}
	t := &Table{Title: title}
	t.Header = []string{"switches", "rules", "updating"}
	for _, ck := range checkers {
		t.Header = append(t.Header, ck.Name+"(s)")
	}
	for _, pt := range points {
		row := []interface{}{pt.Size, pt.Rules, pt.Updating}
		for _, ck := range checkers {
			if s := pt.Seconds[ck.Name]; s < 0 {
				row = append(row, "t/o")
			} else {
				row = append(row, s)
			}
		}
		t.Add(row...)
	}
	return t, points, nil
}

func timeSynthesis(b Backend, sc *config.Scenario, opts core.Options, timeout time.Duration) (float64, error) {
	return timed(nil, func() error {
		_, err := synthesize(sc, opts, core.SessionResources{Factory: b.New}, timeout)
		if errors.Is(err, core.ErrNoOrdering) {
			return nil
		}
		return err
	})
}

// timed reports what one call of run costs, in seconds. The first call
// warms the process up (arena pages, interned labels, the engine's
// scratch pool) and is discarded; the result is the median of at least
// three further calls, and of more while they have taken under 200 ms
// together. A first call that takes over a second is itself the sample:
// the large Figure 8(h) cells cost seconds, and a cold start is noise
// there. setup, if not nil, runs untimed before every call. An error
// ends the sampling and is returned with the time its call took.
func timed(setup, run func() error) (float64, error) {
	var samples []float64
	var total time.Duration
	for first := true; first || len(samples) < 3 || total < 200*time.Millisecond; first = false {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		err := run()
		el := time.Since(start)
		if err != nil || (first && el > time.Second) {
			return el.Seconds(), err
		}
		if !first {
			samples = append(samples, el.Seconds())
			total += el
		}
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], nil
}

// timePlan is timed for a synthesis whose plan the caller reads.
func timePlan(synth func() (*core.Plan, error)) (float64, *core.Plan, error) {
	var plan *core.Plan
	secs, err := timed(nil, func() (err error) {
		plan, err = synth()
		return err
	})
	return secs, plan, err
}

// Fig8g reproduces Figure 8(g): scalability of the incremental backend on
// Small-World topologies for the three property families. It also
// returns the wait-removal statistics used by the "Waits" paragraph of
// Section 6.
func Fig8g(sizes []int, timeout time.Duration) (*Table, *Table, error) {
	t := &Table{
		Title:  "Figure 8(g): Small-World scalability (Incremental checker)",
		Header: []string{"switches", "updating", "reachability(s)", "waypointing(s)", "service-chaining(s)"},
	}
	w := &Table{
		Title:  "Section 6 'Waits': wait removal on the 8(g) runs",
		Header: []string{"switches", "property", "waits-before", "waits-after", "removal(s)"},
	}
	for _, n := range sizes {
		row := []interface{}{0, 0}
		for _, prop := range []config.Property{config.Reachability, config.Waypointing, config.ServiceChaining} {
			sc, err := DiamondWorkload(FamilySmallWorld, n, prop, int64(n)*7)
			if err != nil {
				return nil, nil, err
			}
			row[0] = sc.Topo.NumSwitches()
			if prop == config.Reachability {
				row[1] = len(sc.UpdatingSwitches())
			}
			secs, plan, err := timePlan(func() (*core.Plan, error) {
				return synthesize(sc, core.Options{}, core.SessionResources{}, timeout)
			})
			if err != nil {
				row = append(row, "t/o")
				continue
			}
			row = append(row, secs)
			w.Add(sc.Topo.NumSwitches(), prop.String(), plan.Stats.WaitsBefore,
				plan.Stats.WaitsAfter, plan.Stats.WaitRemovalElapsed.Seconds())
		}
		t.Add(row...)
	}
	return t, w, nil
}

// Fig8h reproduces Figure 8(h): detecting that no switch-granularity
// update exists on double-diamond workloads (the runtime to report
// "impossible").
func Fig8h(sizes []int, timeout time.Duration) (*Table, error) {
	t := &Table{
		Title:  "Figure 8(h): time to report 'impossible' (switch granularity)",
		Header: []string{"switches", "reachability(s)", "waypointing(s)", "service-chaining(s)"},
	}
	for _, n := range sizes {
		row := []interface{}{n}
		for _, prop := range []config.Property{config.Reachability, config.Waypointing, config.ServiceChaining} {
			sc, err := InfeasibleWorkload(n, prop, n/30+1, int64(n)*3)
			if err != nil {
				return nil, err
			}
			secs, serr := timeImpossible(sc, core.Ablation{}, timeout)
			switch {
			case serr == errSolved:
				return nil, serr
			case serr != nil:
				row = append(row, "t/o")
			default:
				row = append(row, secs)
			}
		}
		t.Add(row...)
	}
	return t, nil
}

var errSolved = errors.New("bench: infeasible workload was solved at switch granularity")

// timeImpossible times the proof that sc has no ordering under abl.
func timeImpossible(sc *config.Scenario, abl core.Ablation, timeout time.Duration) (float64, error) {
	return timed(nil, func() error {
		_, err := synthesize(sc, core.Options{}, core.SessionResources{Ablation: abl}, timeout)
		switch {
		case errors.Is(err, core.ErrNoOrdering):
			return nil
		case err == nil:
			return errSolved
		}
		return err
	})
}

// Fig8i reproduces Figure 8(i): solving the switch-impossible workloads
// at rule granularity; the x axis is the rule count.
func Fig8i(sizes []int, timeout time.Duration) (*Table, *Table, error) {
	t := &Table{
		Title:  "Figure 8(i): rule-granularity solves the 8(h) workloads",
		Header: []string{"switches", "rules", "reachability(s)", "waypointing(s)", "service-chaining(s)"},
	}
	w := &Table{
		Title:  "Section 6 'Waits': wait removal on the 8(i) runs",
		Header: []string{"rules", "property", "waits-before", "waits-after", "removal(s)"},
	}
	for _, n := range sizes {
		row := []interface{}{n, 0}
		for _, prop := range []config.Property{config.Reachability, config.Waypointing, config.ServiceChaining} {
			sc, err := InfeasibleWorkload(n, prop, n/30+1, int64(n)*3)
			if err != nil {
				return nil, nil, err
			}
			rules := sc.Init.NumRules() + sc.Final.NumRules()
			if prop == config.Reachability {
				row[1] = rules
			}
			secs, plan, serr := timePlan(func() (*core.Plan, error) {
				return synthesize(sc, core.Options{RuleGranularity: true}, core.SessionResources{}, timeout)
			})
			if serr != nil {
				row = append(row, "t/o ("+serr.Error()+")")
				continue
			}
			row = append(row, secs)
			w.Add(rules, prop.String(), plan.Stats.WaitsBefore, plan.Stats.WaitsAfter,
				plan.Stats.WaitRemovalElapsed.Seconds())
		}
		t.Add(row...)
	}
	return t, w, nil
}

// CheckerOnly reproduces the Section 6 "Incremental vs NetPlumber"
// checker-only comparison: both backends answer the same sequence of
// model-checking questions (the updates of a synthesized plan) and the
// total times are compared.
func CheckerOnly(n int) (*Table, error) {
	sc, err := DiamondWorkload(FamilySmallWorld, n, config.Reachability, int64(n))
	if err != nil {
		return nil, err
	}
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Section 6: checker-only comparison on identical MC questions",
		Header: []string{"backend", "checks", "total(s)"},
	}
	// Checkers are built directly here, outside any session, so the
	// incremental row needs its constructor spelled.
	for _, b := range []Backend{{Name: Incremental.Name, New: mc.NewIncremental}, NetPlumberLike} {
		secs, checks, err := replayPlan(sc, plan, b.New)
		if err != nil {
			return nil, err
		}
		t.Add(b.Name, checks, secs)
	}
	return t, nil
}

// replayPlan replays the plan's update sequence against fresh checkers of
// the given factory, timing only checker work.
func replayPlan(sc *config.Scenario, plan *core.Plan, factory mc.Factory) (float64, int, error) {
	var ks []*kripke.K
	var chks []mc.Checker
	build := func() error {
		ks, chks = ks[:0], chks[:0]
		for _, cs := range sc.Specs {
			k, err := kripke.Build(sc.Topo, sc.Init, cs.Class)
			if err != nil {
				return err
			}
			chk, err := factory(k, cs.Formula)
			if err != nil {
				return err
			}
			ks = append(ks, k)
			chks = append(chks, chk)
		}
		return nil
	}
	checks := 0
	secs, err := timed(build, func() error {
		checks = 0
		for _, chk := range chks {
			chk.Check()
			checks++
		}
		for _, st := range plan.Updates() {
			for ci := range ks {
				delta, err := ks[ci].UpdateSwitch(st.Switch, st.Table)
				if err != nil {
					return err
				}
				_, tok := chks[ci].Update(delta)
				chks[ci].Commit(tok)
				ks[ci].Commit(delta)
				checks++
			}
		}
		return nil
	})
	return secs, checks, err
}

// Ablation measures the synthesis optimizations of Section 4.2 on one
// workload: full configuration versus disabling counterexample learning,
// early termination, and the heuristic candidate order.
func Ablation(n int, timeout time.Duration) (*Table, error) {
	sc, err := DiamondWorkload(FamilySmallWorld, n, config.Reachability, int64(n))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: Section 4.2 optimizations (diamond workload)",
		Header: []string{"configuration", "result", "time(s)", "checks", "cex", "pruned"},
	}
	cases := []struct {
		name    string
		abl     core.Ablation
		backend Backend
	}{
		{"full", core.Ablation{}, Incremental},
		{"no-cex-learning", core.Ablation{NoCexLearning: true}, Incremental},
		{"no-early-termination", core.Ablation{NoEarlyTermination: true}, Incremental},
		{"no-heuristic-order", core.Ablation{NoHeuristicOrder: true}, Incremental},
		{"batch-checker", core.Ablation{}, Batch},
	}
	for _, c := range cases {
		res := core.SessionResources{Factory: c.backend.New, Ablation: c.abl}
		el, plan, err := timePlan(func() (*core.Plan, error) { return synthesize(sc, core.Options{}, res, timeout) })
		switch {
		case err == nil:
			t.Add(c.name, "ok", el, plan.Stats.Checks, plan.Stats.CexLearned,
				plan.Stats.WrongPruned+plan.Stats.VisitedPruned)
		case errors.Is(err, core.ErrTimeout):
			t.Add(c.name, "timeout", el, "-", "-", "-")
		default:
			return nil, err
		}
	}
	// Infeasible instance: early termination is the difference-maker.
	scInf, err := InfeasibleWorkload(40, config.Reachability, 1, 9)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		abl  core.Ablation
	}{
		{"infeasible/full", core.Ablation{}},
		{"infeasible/no-early-termination", core.Ablation{NoEarlyTermination: true}},
	} {
		el, err := timeImpossible(scInf, c.abl, timeout)
		switch {
		case err == nil:
			t.Add(c.name, "impossible", el, "-", "-", "-")
		case errors.Is(err, core.ErrTimeout):
			t.Add(c.name, "timeout", el, "-", "-", "-")
		default:
			return nil, err
		}
	}
	// The 2-simple extension solves the same instance at switch
	// granularity.
	el, plan, err := timePlan(func() (*core.Plan, error) {
		return synthesize(scInf, core.Options{TwoSimple: true}, core.SessionResources{}, timeout)
	})
	if err != nil {
		return nil, fmt.Errorf("bench: 2-simple failed on infeasible instance: %w", err)
	}
	t.Add("infeasible/2-simple", "ok", el,
		plan.Stats.Checks, plan.Stats.CexLearned,
		plan.Stats.WrongPruned+plan.Stats.VisitedPruned)
	return t, nil
}
