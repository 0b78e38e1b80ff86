package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTableFormat(t *testing.T) {
	tb := &Table{Title: "t", Note: "n", Header: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Add("xx", "y")
	out := tb.Format()
	for _, want := range []string{"== t ==", "n\n", "a", "bb", "xx", "2.5000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBuildTopologyFamilies(t *testing.T) {
	for _, f := range []Family{FamilyZoo, FamilyFatTree, FamilySmallWorld} {
		topo, err := BuildTopology(f, 40)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if topo.NumSwitches() < 20 {
			t.Fatalf("%s: only %d switches", f, topo.NumSwitches())
		}
	}
	if _, err := BuildTopology(Family("nope"), 10); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestFig2a(t *testing.T) {
	tb, err := Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("too few rows: %v", tb.Rows)
	}
	// Shape assertions: the naive run loses probes, ordering and
	// two-phase do not (the last row carries totals).
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] == "0" {
		t.Fatalf("naive lost 0 probes: %v", last)
	}
	if last[2] != "0" || last[3] != "0" {
		t.Fatalf("ordering/two-phase lost probes: %v", last)
	}
}

func TestFig2b(t *testing.T) {
	tb, err := Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Format()
	// A1 (on both paths) must show 2x overhead for two-phase and 1x for
	// ordering.
	found := false
	for _, r := range tb.Rows {
		if r[0] == "A1" {
			found = true
			if r[1] != "2.0X" || r[2] != "1.0X" {
				t.Fatalf("A1 overhead = %v, want 2.0X vs 1.0X\n%s", r, out)
			}
		}
	}
	if !found {
		t.Fatal("A1 row missing")
	}
}

func TestFig7SmallScale(t *testing.T) {
	tb, points, err := Fig7(FamilySmallWorld, []int{30, 60},
		[]Backend{Incremental, Batch, NuSMVLike},
		30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || len(tb.Rows) != 2 {
		t.Fatalf("points = %v", points)
	}
	for _, pt := range points {
		if pt.Seconds["incremental"] < 0 {
			t.Fatalf("incremental timed out at size %d", pt.Size)
		}
	}
}

func TestFig7RuleSmallScale(t *testing.T) {
	_, points, err := Fig7Rule(FamilySmallWorld, []int{30}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %v", points)
	}
	if points[0].Seconds["incremental"] < 0 || points[0].Seconds["netplumber-like"] < 0 {
		t.Fatalf("rule-granularity run timed out: %v", points[0].Seconds)
	}
}

func TestFig8SmallScale(t *testing.T) {
	g, waits, err := Fig8g([]int{40}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 1 || len(waits.Rows) == 0 {
		t.Fatalf("8g rows = %v waits = %v", g.Rows, waits.Rows)
	}
	h, err := Fig8h([]int{40}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows) != 1 {
		t.Fatalf("8h rows = %v", h.Rows)
	}
	i, _, err := Fig8i([]int{40}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(i.Rows) != 1 {
		t.Fatalf("8i rows = %v", i.Rows)
	}
}

func TestCheckerOnly(t *testing.T) {
	tb, err := CheckerOnly(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %v", tb.Rows)
	}
}

// TestAblation gates the README scorecard's ablation row. It pins every
// cell of the table but the times: results and the checks,
// counterexamples and pruned configurations, which are functions of the
// input. A switch that stops reaching the search — no-heuristic-order
// reading full's checks — fails here.
func TestAblation(t *testing.T) {
	tb, err := Ablation(40, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"full", "ok", "9", "0", "0"},
		{"no-cex-learning", "ok", "9", "0", "0"},
		{"no-early-termination", "ok", "9", "0", "0"},
		{"no-heuristic-order", "ok", "13", "4", "8"},
		{"batch-checker", "ok", "9", "0", "0"},
		{"infeasible/full", "impossible", "-", "-", "-"},
		{"infeasible/no-early-termination", "impossible", "-", "-", "-"},
		{"infeasible/2-simple", "ok", "12", "0", "0"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d: %v", len(tb.Rows), len(want), tb.Rows)
	}
	for i, row := range tb.Rows {
		got := append(row[:2:2], row[3:]...) // all but time(s)
		if !slices.Equal(got, want[i]) {
			t.Errorf("row %d = %v, want %v", i, got, want[i])
		}
	}
}
