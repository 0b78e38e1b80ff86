package config

import (
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"netupdate/internal/topology"
)

const lineStream = `
{"name":"line","topology":{"switches":4,"links":[[0,1],[1,2],[2,3],[0,2],[1,3]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,2,3],"spec":"sw=0 -> F sw=3"}]}
{"reroute":[{"class":"c","path":[0,2,3]}]}
{"reroute":[{"class":"c","path":[0,1,3]}]}
`

// TestDeltaNamesEachClassOnce: a delta that reroutes one class twice is
// refused as a bad delta naming the class — so a delta costs the classes
// it names, once each — and leaves the target it was applied to for the
// next delta.
func TestDeltaNamesEachClassOnce(t *testing.T) {
	b := lineBase(t)
	twice := &StreamDelta{Reroute: []Reroute{{Class: "c", Path: []int{0, 2, 3}}, {Class: "c", Path: []int{0, 1, 3}}}}
	if _, err := b.Apply(b.Init, twice); !errors.Is(err, ErrBadDelta) || !strings.Contains(err.Error(), `class "c" rerouted twice`) {
		t.Fatalf("err = %v, want ErrBadDelta naming class c", err)
	}
	tgt, err := b.Apply(b.Init, &StreamDelta{Reroute: []Reroute{{Class: "c", Path: []int{0, 1, 3}}}})
	if err != nil {
		t.Fatalf("the delta after the refused one: %v", err)
	}
	if got, err := PathOf(tgt, b.Topo, b.Specs[0].Class); err != nil || !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("path %v (%v), want [0 1 3]", got, err)
	}
}

// lineBase is the stream base of lineStream's header: one class on a
// four-switch line with two chords.
func lineBase(t *testing.T) *StreamBase {
	t.Helper()
	var h StreamHeader
	if err := json.NewDecoder(strings.NewReader(lineStream)).Decode(&h); err != nil {
		t.Fatal(err)
	}
	b, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRemoveClassRules(t *testing.T) {
	topo := topology.New("t", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(100, 0)
	topo.AddHost(101, 2)
	topo.AddHost(200, 0)
	topo.AddHost(201, 2)
	clA := Class{Name: "a", SrcHost: 100, DstHost: 101}
	clB := Class{Name: "b", SrcHost: 200, DstHost: 201}
	cfg := New()
	if err := InstallPath(cfg, topo, clA, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	if err := InstallPath(cfg, topo, clB, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	RemoveClassRules(cfg, clA)
	if _, err := PathOf(cfg, topo, clB); err != nil {
		t.Fatalf("class b must survive: %v", err)
	}
	if _, err := PathOf(cfg, topo, clA); err == nil {
		t.Fatal("class a rules must be gone")
	}
	for _, sw := range cfg.Switches() {
		for _, r := range cfg.Table(sw) {
			if r.Match == clA.Pattern() {
				t.Fatalf("leftover rule for class a on sw%d", sw)
			}
		}
	}
}

func TestRollingUpdatesWalk(t *testing.T) {
	topo := topology.SmallWorld(60, 4, 0.3, 17)
	s, err := RollingUpdates(topo, RollingOptions{
		Pairs: 2, Property: Reachability, Seed: 17, Steps: 6, FlipsPerStep: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Specs()) != 2 {
		t.Fatalf("specs = %d, want 2 diamond classes", len(s.Specs()))
	}
	prev := s.Init()
	steps := 0
	for {
		tgt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		steps++
		// Every target must route every class loop-free to its host, and
		// must differ from its predecessor in at least one switch.
		for _, cs := range s.Specs() {
			if _, err := PathOf(tgt, s.Topo(), cs.Class); err != nil {
				t.Fatalf("step %d: %v", steps, err)
			}
		}
		if d := Diff(prev, tgt); len(d) == 0 {
			t.Fatalf("step %d: target identical to predecessor", steps)
		}
		prev = tgt
	}
	if steps != 6 {
		t.Fatalf("steps = %d, want 6", steps)
	}
}

func TestRollingUpdatesStepsAreFeasibleScenarios(t *testing.T) {
	topo := topology.SmallWorld(50, 4, 0.3, 5)
	s, err := RollingUpdates(topo, RollingOptions{
		Pairs: 2, Property: Reachability, Seed: 5, Steps: 3, FlipsPerStep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Init()
	for {
		tgt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := &Scenario{Name: "roll", Topo: s.Topo(), Init: prev, Final: tgt, Specs: s.Specs()}
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		prev = tgt
	}
}

// TestLineCountingReader: offsets map to 1-based lines.
func TestLineCountingReader(t *testing.T) {
	r := NewLineCountingReader(strings.NewReader("ab\ncd\nef"))
	buf := make([]byte, 3) // force multiple short reads
	for {
		if _, err := r.Read(buf); err != nil {
			break
		}
	}
	for _, tc := range []struct {
		off  int64
		want int
	}{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {5, 2}, {6, 3}, {7, 3}, {100, 3}} {
		if got := r.LineAt(tc.off); got != tc.want {
			t.Fatalf("LineAt(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
	// Pruning forgets early offsets but preserves line numbering for
	// everything at or past the prune point.
	r.Prune(3)
	for _, tc := range []struct {
		off  int64
		want int
	}{{3, 2}, {5, 2}, {6, 3}, {100, 3}} {
		if got := r.LineAt(tc.off); got != tc.want {
			t.Fatalf("after Prune(3): LineAt(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
	r.Prune(100)
	if got := r.LineAt(100); got != 3 {
		t.Fatalf("after Prune(100): LineAt(100) = %d, want 3", got)
	}
}

// TestStreamBaseApply: the shared delta applicator leaves the input
// configuration untouched, validates reroutes, and applies each delta on
// top of the target before it.
func TestStreamBaseApply(t *testing.T) {
	h := StreamHeader{
		Name: "b",
		Topology: TopologyFile{
			Switches: 4,
			Links:    [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}},
			Hosts:    []HostFile{{ID: 100, Switch: 0}, {ID: 101, Switch: 3}},
		},
		Classes: []StreamClass{{Name: "c", Src: 100, Dst: 101, Path: []int{0, 1, 2, 3}, Spec: "true"}},
	}
	b, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	next, err := b.Apply(b.Init, &StreamDelta{Reroute: []Reroute{{Class: "c", Path: []int{0, 2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	cl := b.Specs[0].Class
	p, err := PathOf(next, b.Topo, cl)
	if err != nil || len(p) != 3 {
		t.Fatalf("rerouted path %v (%v), want length 3", p, err)
	}
	if p0, err := PathOf(b.Init, b.Topo, cl); err != nil || len(p0) != 4 {
		t.Fatalf("Apply mutated its input: %v (%v)", p0, err)
	}
	if _, err := b.Apply(b.Init, &StreamDelta{Reroute: []Reroute{{Class: "x", Path: []int{0}}}}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("unknown class: err = %v, want ErrBadDelta", err)
	}
	// Targets accumulate: a delta applies on top of the target before it.
	line := lineBase(t)
	cl = line.Specs[0].Class
	cur := line.Init
	for i, want := range [][]int{{0, 2, 3}, {0, 1, 3}} {
		if cur, err = line.Apply(cur, &StreamDelta{Reroute: []Reroute{{Class: "c", Path: want}}}); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if got, err := PathOf(cur, line.Topo, cl); err != nil || !slices.Equal(got, want) {
			t.Fatalf("delta %d: path %v (%v), want %v", i, got, err, want)
		}
	}
}
