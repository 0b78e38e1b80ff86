package config

import (
	"errors"
	"io"
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

func TestScenarioStreamDecode(t *testing.T) {
	s, err := OpenStream(strings.NewReader(lineStream))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "line" {
		t.Fatalf("name = %q", s.Name())
	}
	if len(s.Specs()) != 1 {
		t.Fatalf("specs = %d, want 1", len(s.Specs()))
	}
	cl := s.Specs()[0].Class
	p0, err := PathOf(s.Init(), s.Topo(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p0), 4; got != want {
		t.Fatalf("init path %v, want length %d", p0, want)
	}
	wantPaths := [][]int{{0, 2, 3}, {0, 1, 3}}
	for i, want := range wantPaths {
		tgt, err := s.Next()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		got, err := PathOf(tgt, s.Topo(), cl)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("delta %d: path %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("delta %d: path %v, want %v", i, got, want)
			}
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestScenarioStreamRejectsBadDelta(t *testing.T) {
	bad := `
{"name":"line","topology":{"switches":3,"links":[[0,1],[1,2]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":2}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,2],"spec":"true"}]}
{"reroute":[{"class":"nope","path":[0,1,2]}]}
`
	s, err := OpenStream(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	// A bad delta is recoverable: the previous target stands and the
	// stream keeps decoding (here: straight to EOF).
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF after skipped delta", err)
	}
}

// TestDeltaNamesEachClassOnce: a delta that reroutes one class twice is
// refused as a bad delta naming the class — so a delta costs the classes
// it names, once each — and a stream skips it: the previous target stands,
// and the next delta applies to it.
func TestDeltaNamesEachClassOnce(t *testing.T) {
	twice := lineStream[:strings.Index(lineStream, "{\"reroute\"")] +
		`{"reroute":[{"class":"c","path":[0,2,3]},{"class":"c","path":[0,1,3]}]}` + "\n" +
		`{"reroute":[{"class":"c","path":[0,1,3]}]}` + "\n"
	s, err := OpenStream(strings.NewReader(twice))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); !errors.Is(err, ErrBadDelta) || !strings.Contains(err.Error(), `class "c" rerouted twice`) {
		t.Fatalf("err = %v, want ErrBadDelta naming class c", err)
	}
	tgt, err := s.Next()
	if err != nil {
		t.Fatalf("the delta after the refused one: %v", err)
	}
	if got, err := PathOf(tgt, s.Topo(), s.Specs()[0].Class); err != nil || len(got) != 3 || got[1] != 1 {
		t.Fatalf("path %v (%v), want [0 1 3]", got, err)
	}
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

// TestScenarioStreamRejectsUnknownFields: a misspelled delta key must
// fail loudly, not silently decode into a no-op target.
func TestScenarioStreamRejectsUnknownFields(t *testing.T) {
	bad := `
{"name":"line","topology":{"switches":3,"links":[[0,1],[1,2]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":2}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,2],"spec":"true"}]}
{"rerouted":[{"class":"c","path":[0,1,2]}]}
`
	s, err := OpenStream(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err == nil {
		t.Fatal("misspelled delta key must be rejected")
	}
}

// TestScenarioStreamErrorsCarryLineNumbers: both semantic (ErrBadDelta)
// and syntax decode errors must name the offending JSONL input line.
func TestScenarioStreamErrorsCarryLineNumbers(t *testing.T) {
	// Header spans lines 2-4; the first (good) delta is line 5, the bad
	// delta is line 6, and line 7 holds garbage for the syntax-error case.
	in := `
{"name":"line","topology":{"switches":4,"links":[[0,1],[1,2],[2,3],[0,2]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,2,3],"spec":"sw=0 -> F sw=3"}]}
{"reroute":[{"class":"c","path":[0,2,3]}]}
{"reroute":[{"class":"nope","path":[0,1,2,3]}]}
{"reroute":
`
	s, err := OpenStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if got := s.Line(); got != 5 {
		t.Fatalf("good delta line = %d, want 5", got)
	}
	_, err = s.Next()
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("bad-delta error lacks line number: %v", err)
	}
	_, err = s.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated delta must be a decode error, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 7") && !strings.Contains(err.Error(), "line 8") {
		t.Fatalf("decode error lacks line number: %v", err)
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
// configuration untouched and validates reroutes.
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
}
