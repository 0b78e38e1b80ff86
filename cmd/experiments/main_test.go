package main

import (
	"strings"
	"testing"
)

// TestFigNames: every name the flag help lists selects exactly its own
// figure, "all" selects every figure in order, an unknown name is an
// error that lists the valid ones, and together the figures print exactly
// the paper's 15 tables (this runs the whole evaluation once, at the
// paper's sizes).
func TestFigNames(t *testing.T) {
	if _, err := pick("bogus"); err == nil || !strings.Contains(err.Error(), names()) {
		t.Fatalf("pick(bogus) = %v, want an error listing %s", err, names())
	}
	all, err := pick("all")
	if err != nil || len(all) != len(figures) {
		t.Fatalf("pick(all) = %d figures, %v; want %d", len(all), err, len(figures))
	}
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	var titles []string
	for _, f := range figures {
		name := f.name
		picked, err := pick(name)
		if err != nil || len(picked) != 1 || picked[0].name != name || !strings.Contains(names(), name+"|") {
			t.Fatalf("pick(%s) = %v, %v; the flag help lists %s", name, picked, err, names())
		}
		ts, err := picked[0].run()
		if err != nil {
			t.Fatalf("-fig %s: %v", name, err)
		}
		for _, tb := range ts {
			if len(tb.Rows) == 0 {
				t.Errorf("-fig %s: %q has no rows", name, tb.Title)
			}
			titles = append(titles, tb.Title)
		}
	}
	want := []string{
		"Figure 2(a):", "Figure 2(b):",
		"Figure 7 (topology-zoo):", "Figure 7 (fattree):", "Figure 7 (small-world):",
		"Figure 7 d-f (topology-zoo):", "Figure 7 d-f (fattree):", "Figure 7 d-f (small-world):",
		"Figure 8(g):", "Section 6 'Waits': wait removal on the 8(g) runs",
		"Figure 8(h):",
		"Figure 8(i):", "Section 6 'Waits': wait removal on the 8(i) runs",
		"Section 6: checker-only comparison", "Ablation:",
	}
	if len(titles) != len(want) {
		t.Fatalf("%d tables, want %d: %q", len(titles), len(want), titles)
	}
	for i := range want {
		if !strings.HasPrefix(titles[i], want[i]) {
			t.Errorf("table %d is %q, want %q...", i, titles[i], want[i])
		}
	}
}
