package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/obs"
	"netupdate/internal/topology"
)

// spanNames collects the set of span names in a trace export.
func spanNames(d *obs.TraceData) map[string]int {
	names := map[string]int{}
	for _, sp := range d.Spans {
		names[sp.Name]++
	}
	return names
}

// TestTraceDisabledRecordsNothing: without SetTrace the plan carries
// no trace and the session holds no recorder.
func TestTraceDisabledRecordsNothing(t *testing.T) {
	sc := config.Fig1RedBlue()
	s := repairSession(t, sc, Options{})
	plan, err := s.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Trace != nil {
		t.Fatalf("untraced plan carries %d spans", len(plan.Trace.Spans))
	}
	if s.trace != nil {
		t.Fatal("untraced session holds a recorder")
	}
	// Phase durations are populated even without tracing. A search that
	// failed no check ran no target check — its leaf proved the target —
	// so a clean miss carries no verification time; a refused target does.
	if plan.Stats.SearchElapsed <= 0 || plan.Stats.VerifyElapsed != 0 {
		t.Fatalf("phase durations of a clean miss without trace: %+v", plan.Stats)
	}
	bad := sc.Init.Clone()
	config.RemoveClassRules(bad, sc.Specs[0].Class)
	if _, err := s.Synthesize(bad); !errors.Is(err, ErrFinalViolation) {
		t.Fatalf("err = %v, want ErrFinalViolation", err)
	}
	if st := s.LastStats(); st.VerifyElapsed <= 0 {
		t.Fatalf("refused target carries no verification time without trace: %+v", st)
	}
}

// TestTraceDecomposedMultiRegion is the acceptance-criterion trace: a
// decomposed multi-region synthesis must export a span tree with distinct
// rebind / per-component search / wait-removal / DAG-build spans, all
// rooted under one synthesize span, and the Chrome export must be a
// loadable event array containing them.
func TestTraceDecomposedMultiRegion(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	s, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrace(obs.NewTrace(0))
	ctx := obs.WithRequestID(t.Context(), "req-trace-test")
	plan, err := s.SynthesizeContext(ctx, sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Trace == nil {
		t.Fatal("traced plan has no trace")
	}
	if plan.Trace.RequestID != "req-trace-test" {
		t.Fatalf("trace RequestID = %q", plan.Trace.RequestID)
	}
	if plan.Stats.RequestID != "req-trace-test" {
		t.Fatalf("stats RequestID = %q", plan.Stats.RequestID)
	}
	ri := plan.Trace.Root()
	if ri < 0 || plan.Trace.Spans[ri].Name != "synthesize" {
		t.Fatalf("root span = %v", plan.Trace.Spans[ri])
	}
	names := spanNames(plan.Trace)
	for _, want := range []string{
		"synthesize", "decompose", "search",
		"component-0", "component-1", "component-2",
		"wait-removal", "dag-build", "rebind",
	} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q span; got %v", want, names)
		}
	}
	// No component search failed a check, so none ran the target check.
	if names["final-verify"] != 0 {
		t.Fatalf("a clean miss recorded a target check: %v", names)
	}
	// Every span is parented inside the tree.
	ids := map[int]bool{0: true}
	for _, sp := range plan.Trace.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range plan.Trace.Spans {
		if !ids[sp.Parent] {
			t.Fatalf("span %+v has unknown parent", sp)
		}
	}
	// The phase durations come from the same clock: search must dominate
	// its component spans and every recorded phase is non-negative.
	st := plan.Stats
	if st.VerifyElapsed != 0 || st.SearchElapsed <= 0 || st.RebindElapsed < 0 || st.WaitRemovalElapsed < 0 {
		t.Fatalf("phase durations: %+v", st)
	}

	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, plan.Trace); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export not loadable: %v", err)
	}
	if len(evs) != len(plan.Trace.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(evs), len(plan.Trace.Spans))
	}

	// A target one region's class cannot reach refuses in that region's
	// component: its search fails a check, the target check runs under the
	// component's span, and the request carries its time.
	bad := sc.Final.Clone()
	config.RemoveClassRules(bad, sc.Specs[0].Class)
	if _, err := s.Synthesize(bad); !errors.Is(err, ErrFinalViolation) {
		t.Fatalf("err = %v, want ErrFinalViolation", err)
	}
	if st := s.LastStats(); st.VerifyElapsed <= 0 {
		t.Fatalf("phase durations of a refused target: %+v", st)
	}
	refused := s.trace.Snapshot()
	parents := map[int]string{}
	for _, sp := range refused.Spans {
		parents[sp.ID] = sp.Name
	}
	checks := 0
	for _, sp := range refused.Spans {
		if sp.Name == "final-verify" {
			checks++
			if !strings.HasPrefix(parents[sp.Parent], "component-") {
				t.Fatalf("final-verify span under %q, want a component's span", parents[sp.Parent])
			}
		}
	}
	if checks == 0 {
		t.Fatalf("refused target's trace has no final-verify span: %v", spanNames(refused))
	}

	// So does an infeasible one: its search fails checks, and the first
	// brings the target check.
	stuck, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err = NewSession(stuck.Topo, stuck.Init, stuck.Specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrace(obs.NewTrace(0))
	if _, err := s.Synthesize(stuck.Final); !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}
	if st := s.LastStats(); st.VerifyElapsed <= 0 || spanNames(s.trace.Snapshot())["final-verify"] == 0 {
		t.Fatalf("infeasible target: VerifyElapsed %v, spans %v", st.VerifyElapsed, spanNames(s.trace.Snapshot()))
	}
}

// TestTraceCacheHitSpans: a replayed cache hit records cache-lookup and
// cache-verify spans instead of a search, and stamps CacheVerifyElapsed.
func TestTraceCacheHitSpans(t *testing.T) {
	sc := config.Fig1RedBlue()
	s := repairSession(t, sc, Options{})
	s.SetTrace(obs.NewTrace(0))
	s.EnableCache()
	if _, err := s.Synthesize(sc.Final); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(sc.Init); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Stats.CacheHit {
		t.Fatal("third flap did not hit the plan cache")
	}
	names := spanNames(plan.Trace)
	if names["cache-lookup"] == 0 || names["cache-verify"] == 0 {
		t.Fatalf("cache-hit trace missing cache spans: %v", names)
	}
	if names["search"] != 0 {
		t.Fatalf("cache-hit trace recorded a search span: %v", names)
	}
	if plan.Stats.CacheVerifyElapsed <= 0 {
		t.Fatalf("CacheVerifyElapsed = %v", plan.Stats.CacheVerifyElapsed)
	}
}

// TestTraceRepairTree: a Repair run exports one tree rooted at a repair
// span with the crash rebind and the nested synthesis under it.
func TestTraceRepairTree(t *testing.T) {
	sc := config.Fig1RedBlue()
	s := repairSession(t, sc, Options{})
	s.SetTrace(obs.NewTrace(0))
	plan, err := s.Synthesize(sc.Final)
	if err != nil {
		t.Fatal(err)
	}
	committed := []int{}
	for j, preds := range plan.DAG.Preds {
		if len(preds) == 0 {
			committed = append(committed, j)
			break
		}
	}
	rep, err := s.Repair(committed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("repair plan has no trace")
	}
	ri := rep.Trace.Root()
	if ri < 0 || rep.Trace.Spans[ri].Name != "repair" {
		t.Fatalf("repair root span = %+v", rep.Trace.Spans[ri])
	}
	names := spanNames(rep.Trace)
	if names["rebind-to-crash"] == 0 || names["synthesize"] == 0 {
		t.Fatalf("repair trace spans: %v", names)
	}
	// The nested synthesize span must be parented under the repair root.
	root := rep.Trace.Spans[ri].ID
	for _, sp := range rep.Trace.Spans {
		if sp.Name == "synthesize" && sp.Parent != root {
			t.Fatalf("synthesize span parent = %d, want repair root %d", sp.Parent, root)
		}
	}
}
