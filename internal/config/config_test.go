package config

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

func fwdRule(pri int, pat network.Pattern, pt topology.Port) network.Rule {
	return network.Rule{Priority: pri, Match: pat, Actions: []network.Action{network.Forward(pt)}}
}

func TestConfigBasics(t *testing.T) {
	c := New()
	if got := c.Table(3); got != nil {
		t.Fatalf("empty config table = %v", got)
	}
	r := fwdRule(1, network.AnyPacket(), 1)
	c.AddRule(3, r)
	if len(c.Table(3)) != 1 {
		t.Fatal("AddRule failed")
	}
	if got := c.Switches(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Switches = %v", got)
	}
	if c.NumRules() != 1 {
		t.Fatalf("NumRules = %d", c.NumRules())
	}
	if !c.RemoveRule(3, r) {
		t.Fatal("RemoveRule failed")
	}
	if c.RemoveRule(3, r) {
		t.Fatal("RemoveRule should fail on missing rule")
	}
	if len(c.Switches()) != 0 {
		t.Fatal("empty table should be dropped from Switches")
	}
}

func TestConfigCloneIsDeep(t *testing.T) {
	c := New()
	c.AddRule(1, fwdRule(1, network.AnyPacket(), 1))
	d := c.Clone()
	d.AddRule(1, fwdRule(2, network.AnyPacket(), 2))
	if len(c.Table(1)) != 1 || len(d.Table(1)) != 2 {
		t.Fatal("clone not independent")
	}
}

func TestDiff(t *testing.T) {
	a, b := New(), New()
	a.AddRule(1, fwdRule(1, network.AnyPacket(), 1))
	a.AddRule(2, fwdRule(1, network.AnyPacket(), 1))
	b.AddRule(1, fwdRule(1, network.AnyPacket(), 1))
	b.AddRule(2, fwdRule(1, network.AnyPacket(), 2)) // differs
	b.AddRule(3, fwdRule(1, network.AnyPacket(), 1)) // only in b
	got := Diff(a, b)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Diff = %v, want [2 3]", got)
	}
	if d := Diff(a, a.Clone()); len(d) != 0 {
		t.Fatalf("self diff = %v", d)
	}
}

func TestInstallPathAndPathOf(t *testing.T) {
	topo := topology.New("line", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(10, 0)
	topo.AddHost(11, 2)
	cl := Class{SrcHost: 10, DstHost: 11}
	cfg := New()
	if err := InstallPath(cfg, topo, cl, []int{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	path, err := PathOf(cfg, topo, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("path = %v", path)
	}
}

func TestInstallPathErrors(t *testing.T) {
	topo := topology.New("line", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddHost(10, 0)
	topo.AddHost(11, 2)
	cl := Class{SrcHost: 10, DstHost: 11}
	cases := []struct {
		name string
		path []int
	}{
		{"empty", nil},
		{"wrong start", []int{1, 2}},
		{"wrong end", []int{0, 1}},
		{"not adjacent", []int{0, 2}},
	}
	for _, c := range cases {
		if err := InstallPath(New(), topo, cl, c.path, 10); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := InstallPath(New(), topo, Class{SrcHost: 99, DstHost: 11}, []int{0, 1, 2}, 10); err == nil {
		t.Error("missing src host: expected error")
	}
	if err := InstallPath(New(), topo, Class{SrcHost: 10, DstHost: 99}, []int{0, 1, 2}, 10); err == nil {
		t.Error("missing dst host: expected error")
	}
}

func TestPathOfDetectsLoop(t *testing.T) {
	topo := topology.New("tri", 3)
	topo.AddLink(0, 1)
	topo.AddLink(1, 2)
	topo.AddLink(2, 0)
	topo.AddHost(10, 0)
	topo.AddHost(11, 2)
	cl := Class{SrcHost: 10, DstHost: 11}
	cfg := New()
	p01, _ := topo.PortToward(0, 1)
	p12, _ := topo.PortToward(1, 2)
	p20, _ := topo.PortToward(2, 0)
	cfg.AddRule(0, fwdRule(1, cl.Pattern(), p01))
	cfg.AddRule(1, fwdRule(1, cl.Pattern(), p12))
	cfg.AddRule(2, fwdRule(1, cl.Pattern(), p20))
	if _, err := PathOf(cfg, topo, cl); err == nil {
		t.Fatal("expected loop error")
	}
}

func TestPathOfDetectsDropAndWrongHost(t *testing.T) {
	topo := topology.New("line", 2)
	topo.AddLink(0, 1)
	topo.AddHost(10, 0)
	topo.AddHost(11, 1)
	topo.AddHost(12, 1)
	cl := Class{SrcHost: 10, DstHost: 11}
	cfg := New()
	if _, err := PathOf(cfg, topo, cl); err == nil {
		t.Fatal("expected drop error on empty config")
	}
	p01, _ := topo.PortToward(0, 1)
	cfg.AddRule(0, fwdRule(1, cl.Pattern(), p01))
	wrong, _ := topo.HostByID(12)
	cfg.AddRule(1, fwdRule(1, cl.Pattern(), wrong.Port))
	if _, err := PathOf(cfg, topo, cl); err == nil {
		t.Fatal("expected wrong-host error")
	}
}

func TestFig1Scenarios(t *testing.T) {
	for _, s := range []*Scenario{Fig1RedGreen(), Fig1RedBlue(), Fig1RedBlueWaypoint()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	rg := Fig1RedGreen()
	_, n := Fig1Topology()
	diff := rg.UpdatingSwitches()
	want := []int{n.A1, n.C2}
	if len(diff) != 2 || diff[0] != want[0] || diff[1] != want[1] {
		t.Fatalf("red-green diff = %v, want %v (A1, C2)", diff, want)
	}
	rb := Fig1RedBlue()
	diff = rb.UpdatingSwitches()
	if len(diff) != 4 {
		t.Fatalf("red-blue diff = %v, want 4 switches (T1, A2, C1, A4)", diff)
	}
}

func TestDiamondsReachability(t *testing.T) {
	topo := topology.SmallWorld(60, 4, 0.3, 7)
	s, err := Diamonds(topo, DiamondOptions{Pairs: 3, Property: Reachability, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Specs) != 3 {
		t.Fatalf("specs = %d", len(s.Specs))
	}
	if len(s.UpdatingSwitches()) == 0 {
		t.Fatal("diamond scenario should update some switches")
	}
	// Each pair's init and final paths must differ somewhere.
	for _, cs := range s.Specs {
		pi, _ := PathOf(s.Init, s.Topo, cs.Class)
		pf, _ := PathOf(s.Final, s.Topo, cs.Class)
		if len(pi) == len(pf) {
			same := true
			for i := range pi {
				if pi[i] != pf[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("pair %v: init and final paths identical: %v", cs.Class, pi)
			}
		}
	}
}

func TestDiamondsWaypointAndChain(t *testing.T) {
	for _, prop := range []Property{Waypointing, ServiceChaining} {
		topo := topology.SmallWorld(100, 4, 0.3, 11)
		s, err := Diamonds(topo, DiamondOptions{Pairs: 2, Property: prop, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", prop, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", prop, err)
		}
		// The property must hold on both endpoint configurations' actual
		// paths (checked via trace evaluation).
		for _, cs := range s.Specs {
			for _, cfg := range []*Config{s.Init, s.Final} {
				path, err := PathOf(cfg, s.Topo, cs.Class)
				if err != nil {
					t.Fatal(err)
				}
				if !evalOnPath(cs.Formula, path) {
					t.Fatalf("%v: property %v fails on its own path %v", prop, cs.Formula, path)
				}
			}
		}
	}
}

func TestDiamondsDisjointAcrossPairs(t *testing.T) {
	topo := topology.SmallWorld(80, 4, 0.3, 5)
	s, err := Diamonds(topo, DiamondOptions{Pairs: 4, Property: Reachability, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]string{}
	for _, cs := range s.Specs {
		for _, cfg := range []*Config{s.Init, s.Final} {
			path, _ := PathOf(cfg, s.Topo, cs.Class)
			for _, sw := range path {
				if other, ok := seen[sw]; ok && other != cs.Class.Name {
					t.Fatalf("switch %d shared between %s and %s", sw, other, cs.Class.Name)
				}
				seen[sw] = cs.Class.Name
			}
		}
	}
}

func TestInfeasibleScenarioShape(t *testing.T) {
	topo := topology.SmallWorld(60, 4, 0.3, 13)
	s, err := Infeasible(topo, InfeasibleOptions{Gadgets: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Feasible {
		t.Fatal("infeasible scenario marked feasible")
	}
	if len(s.Specs) != 4 {
		t.Fatalf("specs = %d, want 4 (two classes per gadget)", len(s.Specs))
	}
	// Both branch interiors must be non-empty for the circular dependency.
	for i := 0; i < len(s.Specs); i += 2 {
		pi, _ := PathOf(s.Init, s.Topo, s.Specs[i].Class)
		pf, _ := PathOf(s.Final, s.Topo, s.Specs[i].Class)
		if len(pi) < 3 || len(pf) < 3 {
			t.Fatalf("gadget branch without interior: init %v final %v", pi, pf)
		}
	}
}

// evalOnPath checks an LTL formula on a switch path using the trace
// evaluator (the path's last state repeats).
func evalOnPath(f *ltl.Formula, path []int) bool {
	trace := make([]ltl.Env, len(path))
	for i, sw := range path {
		sw := sw
		trace[i] = ltl.EnvFunc(func(p ltl.Prop) bool {
			return p.Field == ltl.FieldSwitch && p.Value == sw
		})
	}
	return f.EvalTrace(trace)
}

// sweepDiff is the oracle for Diff: every switch either side can hold a
// table on, compared by Equal.
func sweepDiff(a, b *Config) []int {
	var out []int
	for sw := 0; sw < max(a.Span(), b.Span()); sw++ {
		if !a.Table(sw).Equal(b.Table(sw)) {
			out = append(out, sw)
		}
	}
	return out
}

// TestDiffMatchesSwitchSweep: Diff skips the switches where both sides
// hold one slice and compares the rest; on random pairs — tables only one
// side has, equal tables in another rule order, a table installed and
// emptied again, one side reaching past the other's last switch — it must
// list, ascending, exactly the switches a sweep over every switch finds
// different.
func TestDiffMatchesSwitchSweep(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const switches = 24
	table := func() network.Table {
		var tbl network.Table
		for n := r.Intn(4); n > 0; n-- {
			tbl = append(tbl, fwdRule(1+r.Intn(3), network.MatchFlow(r.Intn(3), r.Intn(3)), topology.Port(1+r.Intn(3))))
		}
		return tbl
	}
	differing := 0
	for iter := 0; iter < 200; iter++ {
		a, b := New(), New()
		for sw := 0; sw < switches; sw++ {
			switch r.Intn(6) {
			case 0: // neither
			case 1:
				a.SetTable(sw, table())
			case 2:
				b.SetTable(sw, table())
			case 3: // the same rules, reversed
				tbl := table()
				a.SetTable(sw, tbl)
				rev := tbl.Clone()
				slices.Reverse(rev)
				b.SetTable(sw, rev)
			case 4: // the same slice on both sides
				tbl := table()
				a.SetTable(sw, tbl)
				b.SetTable(sw, tbl)
			default:
				a.SetTable(sw, table())
				b.SetTable(sw, table())
			}
		}
		// Present and empty equals absent, whichever way it got empty, and b
		// reaches past a's last switch.
		rule := fwdRule(1, network.AnyPacket(), 1)
		b.AddRule(switches+3, rule)
		b.RemoveRule(switches+3, rule)
		b.SetTable(switches+2, network.Table{})
		if iter%2 == 0 {
			b.AddRule(switches+1, rule)
		}
		want := sweepDiff(a, b)
		if got := Diff(a, b); !slices.Equal(got, want) {
			t.Fatalf("iter %d: Diff = %v, a sweep finds %v", iter, got, want)
		}
		if got := Diff(b, a); !slices.Equal(got, want) {
			t.Fatalf("iter %d: Diff(b, a) = %v, a sweep finds %v", iter, got, want)
		}
		differing += len(want)
	}
	if differing == 0 {
		t.Fatal("no pair differed")
	}
}

// TestPathOfTable walks PathOf through a delivery, each way a trace can
// end early, and forwarding loops — one that closes as soon as a switch
// bounces the packet back, one longer than the hops PathOf remembers
// without allocating — plus a delivery longer than that.
func TestPathOfTable(t *testing.T) {
	const n = 40 // past PathOf's 32-hop buffer
	cl := Class{SrcHost: 10, DstHost: 11}
	ring := func() *topology.Topology {
		topo := topology.New("ring", n)
		for sw := 0; sw < n; sw++ {
			topo.AddLink(sw, (sw+1)%n)
		}
		topo.AddHost(10, 0)
		topo.AddHost(11, n-1)
		topo.AddHost(12, n-1)
		return topo
	}
	// clockwise forwards the class from switch 0 up to (not including) stop.
	clockwise := func(topo *topology.Topology, stop int) *Config {
		cfg := New()
		for sw := 0; sw < stop; sw++ {
			pt, _ := topo.PortToward(sw, (sw+1)%n)
			cfg.AddRule(sw, fwdRule(10, cl.Pattern(), pt))
		}
		return cfg
	}
	hostPort := func(topo *topology.Topology, id int) topology.Port {
		h, _ := topo.HostByID(id)
		return h.Port
	}
	for _, c := range []struct {
		name    string
		build   func(topo *topology.Topology) *Config
		class   Class
		hops    int    // of a delivery
		wantErr string // a fragment of the error otherwise
	}{
		{name: "delivered past the buffer", hops: n, build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, n-1)
			cfg.AddRule(n-1, fwdRule(10, cl.Pattern(), hostPort(topo, 11)))
			return cfg
		}},
		{name: "no source host", class: Class{SrcHost: 99, DstHost: 11}, wantErr: "no host 99",
			build: func(topo *topology.Topology) *Config { return New() }},
		{name: "dropped", wantErr: "dropped at sw3",
			build: func(topo *topology.Topology) *Config { return clockwise(topo, 3) }},
		{name: "multicast", wantErr: "multicast at sw2", build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, 2)
			a, _ := topo.PortToward(2, 3)
			b, _ := topo.PortToward(2, 1)
			cfg.AddRule(2, network.Rule{Priority: 10, Match: cl.Pattern(),
				Actions: []network.Action{network.Forward(a), network.Forward(b)}})
			return cfg
		}},
		{name: "modified", wantErr: "modified at sw1", build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, 1)
			pt, _ := topo.PortToward(1, 2)
			cfg.AddRule(1, network.Rule{Priority: 10, Match: cl.Pattern(),
				Actions: []network.Action{network.SetField(network.FieldDst, 12), network.Forward(pt)}})
			return cfg
		}},
		{name: "wrong host", wantErr: "wrong host 12", build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, n-1)
			cfg.AddRule(n-1, fwdRule(10, cl.Pattern(), hostPort(topo, 12)))
			return cfg
		}},
		{name: "dangling port", wantErr: "dangling port at sw1", build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, 1)
			cfg.AddRule(1, fwdRule(10, cl.Pattern(), 77))
			return cfg
		}},
		{name: "bounced straight back", wantErr: "forwarding loop", build: func(topo *topology.Topology) *Config {
			cfg := clockwise(topo, 1)
			back, _ := topo.PortToward(1, 0)
			cfg.AddRule(1, fwdRule(10, cl.Pattern(), back))
			return cfg
		}},
		{name: "loop past the buffer", wantErr: "forwarding loop",
			build: func(topo *topology.Topology) *Config { return clockwise(topo, n) }},
	} {
		topo := ring()
		class := c.class
		if class == (Class{}) {
			class = cl
		}
		path, err := PathOf(c.build(topo), topo, class)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		default:
			want := make([]int, c.hops)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(path, want) {
				t.Errorf("%s: path = %v", c.name, path)
			}
		}
	}
}

// snapshotOf copies every rule of cfg, so a later comparison sees a write
// into a shared table that a comparison of slices would not.
func snapshotOf(cfg *Config) map[int]network.Table {
	out := map[int]network.Table{}
	for sw, tbl := range cfg.Tables() {
		out[sw] = tbl.Clone()
	}
	return out
}

func holds(t *testing.T, what string, cfg *Config, want map[int]network.Table) {
	t.Helper()
	for sw := 0; sw < cfg.Span(); sw++ {
		if !equalInOrder(cfg.Table(sw), want[sw]) {
			t.Fatalf("%s: sw%d holds %v, want %v", what, sw, cfg.Table(sw), want[sw])
		}
		if cfg.TableDigest(sw) != cfg.Table(sw).Digest() {
			t.Fatalf("%s: sw%d: memoized digest is not the table's", what, sw)
		}
	}
	if len(want) != len(cfg.Switches()) {
		t.Fatalf("%s: tables on %v, want %d of them", what, cfg.Switches(), len(want))
	}
}

func equalInOrder(a, b network.Table) bool {
	return slices.EqualFunc(a, b, network.Rule.Equal)
}

// TestMutatorsNeverWriteSharedTables: configurations share tables —
// through Clone, and through SetTable of a table another one holds — and
// every mutator must replace the switch's table rather than write where a
// sharer reads. Two clones of one parent mutate the same switches; each
// sees its own change only, the parent none, and Diff and the digests say
// so. The parent is built by AddRule, so its arrays have spare capacity:
// the case in which an append would land in memory a sharer's own append
// also reaches.
func TestMutatorsNeverWriteSharedTables(t *testing.T) {
	ra, rb, rc := fwdRule(1, network.MatchFlow(1, 2), 1), fwdRule(2, network.MatchFlow(3, 4), 2), fwdRule(3, network.MatchFlow(5, 6), 3)
	cl := Class{SrcHost: 1, DstHost: 2} // ra's flow
	build := func() *Config {
		p := New()
		for sw := 0; sw < 4; sw++ {
			p.AddRule(sw, ra)
			p.AddRule(sw, rb)
			p.AddRule(sw, rc) // three rules in a four-rule array
		}
		return p
	}
	mutations := []struct {
		name string
		x, y func(c *Config)
		diff []int // between the two clones afterwards
	}{
		{"AddRule", func(c *Config) { c.AddRule(1, fwdRule(9, network.AnyPacket(), 1)) }, func(c *Config) { c.AddRule(1, fwdRule(8, network.AnyPacket(), 2)) }, []int{1}},
		{"RemoveRule", func(c *Config) { c.RemoveRule(1, ra) }, func(c *Config) { c.RemoveRule(1, rc) }, []int{1}},
		{"RemoveClassRules", func(c *Config) { RemoveClassRules(c, cl) }, func(c *Config) { c.AddRule(2, ra) }, []int{0, 1, 2, 3}},
		{"SetTable(nil)", func(c *Config) { c.SetTable(1, nil) }, func(c *Config) { c.AddRule(1, ra) }, []int{1}},
		{"SetTable of a sharer's table", func(c *Config) { c.SetTable(3, c.Table(1)); c.AddRule(3, ra) }, func(c *Config) { c.AddRule(1, rb) }, []int{1, 3}},
	}
	for _, m := range mutations {
		p := build()
		before := snapshotOf(p)
		for sw := 0; sw < p.Span(); sw++ {
			p.TableDigest(sw) // memoized before the clones are taken: they share the memos
		}
		x, y := p.Clone(), p.Clone()
		m.x(x)
		wantX := snapshotOf(x)
		m.y(y)
		wantY := snapshotOf(y)
		p.AddRule(1, rb) // the parent still owns its arrays and appends in place
		holds(t, m.name+": x after y and the parent moved", x, wantX)
		holds(t, m.name+": y", y, wantY)
		p.RemoveRule(1, rb) // removes the first: the original one
		for sw := range before {
			if !p.Table(sw).Equal(before[sw]) {
				t.Fatalf("%s: parent's sw%d changed to %v", m.name, sw, p.Table(sw))
			}
		}
		if got := Diff(x, y); !slices.Equal(got, m.diff) {
			t.Fatalf("%s: Diff(x, y) = %v, want %v", m.name, got, m.diff)
		}
		for _, c := range []*Config{x, y} {
			if got, want := Diff(p, c), sweepDiff(p, c); !slices.Equal(got, want) || len(got) == 0 {
				t.Fatalf("%s: Diff(parent, clone) = %v, a sweep finds %v", m.name, got, want)
			}
		}
	}
}

// TestAddRuleOnBusySwitchIsLinear: a builder adding rule after rule to one
// switch appends to the array it allocated instead of copying the table
// per rule — copy-on-write is for tables somebody else can reach, and a
// clone is somebody else.
func TestAddRuleOnBusySwitchIsLinear(t *testing.T) {
	const rules = 4096
	c := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rules; i++ {
		c.AddRule(0, network.Rule{Priority: i})
	}
	runtime.ReadMemStats(&after)
	// A doubling array and a digest memo per install: a few hundred bytes
	// per rule. A table copy per rule is rules/2 rules per rule.
	if perRule := (after.TotalAlloc - before.TotalAlloc) / rules; len(c.Table(0)) != rules || perRule > 1024 {
		t.Fatalf("%d rules, %d bytes allocated per AddRule", len(c.Table(0)), perRule)
	}
	d := c.Clone()
	d.AddRule(0, network.Rule{Priority: -1})
	c.AddRule(0, network.Rule{Priority: -2})
	if &d.Table(0)[0] == &c.Table(0)[0] || d.Table(0)[rules].Priority != -1 || c.Table(0)[rules].Priority != -2 {
		t.Fatal("a clone and its parent appended into one array")
	}
}
