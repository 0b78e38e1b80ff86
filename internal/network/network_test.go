package network

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"netupdate/internal/topology"
)

func TestPacketFields(t *testing.T) {
	p := Packet{Src: 1, Dst: 2, Typ: 3}
	if p.Field(FieldSrc) != 1 || p.Field(FieldDst) != 2 || p.Field(FieldTyp) != 3 {
		t.Fatal("Field projection broken")
	}
	q := p.WithField(FieldDst, 9)
	if q.Dst != 9 || p.Dst != 2 {
		t.Fatal("WithField must be functional")
	}
	if f, ok := FieldByName("dst"); !ok || f != FieldDst {
		t.Fatal("FieldByName(dst)")
	}
	if _, ok := FieldByName("nope"); ok {
		t.Fatal("FieldByName should reject unknown names")
	}
}

func TestPatternMatching(t *testing.T) {
	pkt := Packet{Src: 1, Dst: 2, Typ: 0}
	cases := []struct {
		pat  Pattern
		pt   topology.Port
		want bool
	}{
		{AnyPacket(), 1, true},
		{MatchFlow(1, 2), 1, true},
		{MatchFlow(1, 3), 1, false},
		{MatchFlow(2, 2), 1, false},
		{Pattern{InPort: 2, Src: Wildcard, Dst: Wildcard, Typ: Wildcard}, 1, false},
		{Pattern{InPort: 1, Src: Wildcard, Dst: Wildcard, Typ: Wildcard}, 1, true},
		{Pattern{Src: Wildcard, Dst: Wildcard, Typ: 5}, 1, false},
	}
	for i, c := range cases {
		if got := c.pat.Matches(pkt, c.pt); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestTableApplyPriority(t *testing.T) {
	tbl := Table{
		{Priority: 1, Match: AnyPacket(), Actions: []Action{Forward(1)}},
		{Priority: 10, Match: MatchFlow(1, 2), Actions: []Action{Forward(2)}},
	}
	out := tbl.Apply(Packet{Src: 1, Dst: 2}, 5)
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("high-priority rule should win: %v", out)
	}
	out = tbl.Apply(Packet{Src: 3, Dst: 4}, 5)
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("fallback rule should match: %v", out)
	}
	if out := (Table{}).Apply(Packet{}, 1); out != nil {
		t.Fatalf("empty table must drop, got %v", out)
	}
}

func TestTableApplyModification(t *testing.T) {
	tbl := Table{
		{Priority: 1, Match: AnyPacket(), Actions: []Action{
			SetField(FieldTyp, 7), Forward(1), SetField(FieldTyp, 8), Forward(2),
		}},
	}
	out := tbl.Apply(Packet{}, 1)
	if len(out) != 2 {
		t.Fatalf("want 2 outputs, got %v", out)
	}
	if out[0].Pkt.Typ != 7 || out[0].Port != 1 {
		t.Fatalf("first output wrong: %v", out[0])
	}
	if out[1].Pkt.Typ != 8 || out[1].Port != 2 {
		t.Fatalf("second output sees later modification: %v", out[1])
	}
}

func TestTableEqualCanonical(t *testing.T) {
	a := Table{
		{Priority: 1, Match: MatchFlow(1, 2), Actions: []Action{Forward(1)}},
		{Priority: 2, Match: MatchFlow(3, 4), Actions: []Action{Forward(2)}},
	}
	b := Table{a[1], a[0]} // same rules, different order
	if !a.Equal(b) {
		t.Fatal("order must not affect equality")
	}
	c := a.Clone()
	c[0].Actions[0] = Forward(9)
	if a.Equal(c) {
		t.Fatal("modified clone should differ")
	}
	if a[0].Actions[0] != Forward(1) {
		t.Fatal("Clone must deep-copy actions")
	}
}

// TestTableEqualMatchesCanonicalComparison: Equal answers from lengths and
// stored order where it can, and must always answer what comparing the two
// canonical forms rule by rule answers — on tables that are permutations
// of each other, that repeat rules, that tie on priority, and that differ
// in one rule, one action or one repetition.
func TestTableEqualMatchesCanonicalComparison(t *testing.T) {
	canonicalEqual := func(t, u Table) bool {
		a, b := t.Canonical(), u.Canonical()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	r := rand.New(rand.NewSource(18))
	randomRule := func() Rule {
		rule := Rule{
			Priority: r.Intn(3), // ties are the rule, not the exception
			Match:    MatchFlow(r.Intn(3), r.Intn(3)),
		}
		for n := r.Intn(3); n > 0; n-- {
			rule.Actions = append(rule.Actions, Forward(topology.Port(1+r.Intn(3))))
		}
		return rule
	}
	var equal, unequal, reordered int
	for iter := 0; iter < 4000; iter++ {
		n := r.Intn(6)
		if iter%40 == 0 {
			n = 60 + r.Intn(10) // either side of the 64 rules Equal pairs up without sorting
		}
		a := make(Table, n)
		for i := range a {
			if i > 0 && r.Intn(4) == 0 {
				a[i] = a[r.Intn(i)] // a repeated rule
			} else {
				a[i] = randomRule()
			}
		}
		b := a.Clone()
		switch r.Intn(5) {
		case 0: // the same rules, in the same order
		case 1:
			r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		case 2:
			if len(b) > 0 {
				b[r.Intn(len(b))] = randomRule()
			}
		case 3:
			if len(b) > 0 { // same length, one repetition more and one rule less
				b[r.Intn(len(b))] = b[r.Intn(len(b))]
			}
		default:
			b = append(b, randomRule())
			r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
		want := canonicalEqual(a, b)
		if got := a.Equal(b); got != want {
			t.Fatalf("Equal = %v, canonical comparison = %v:\n a %v\n b %v", got, want, a, b)
		}
		if got := b.Equal(a); got != want {
			t.Fatalf("Equal is not symmetric on\n a %v\n b %v", a, b)
		}
		switch {
		case !want:
			unequal++
		case equalInOrder(a, b):
			equal++
		default:
			reordered++
		}
	}
	if equal < 100 || unequal < 100 || reordered < 100 {
		t.Fatalf("cases exercised: %d equal in order, %d equal reordered, %d unequal", equal, reordered, unequal)
	}
}

// lineTopo builds h0 - sw0 - sw1 - sw2 - h1 with hosts 0 and 1.
func lineTopo() (*topology.Topology, Table, Table, Table) {
	topo := topology.New("line", 3)
	topo.AddLink(0, 1) // sw0 pt1 <-> sw1 pt1
	topo.AddLink(1, 2) // sw1 pt2 <-> sw2 pt1
	h0 := topo.AddHost(0, 0)
	h1 := topo.AddHost(1, 2)
	fwd := func(pt topology.Port) Table {
		return Table{{Priority: 1, Match: AnyPacket(), Actions: []Action{Forward(pt)}}}
	}
	p01, _ := topo.PortToward(0, 1)
	p12, _ := topo.PortToward(1, 2)
	_ = h0
	return topo, fwd(p01), fwd(p12), fwd(h1.Port)
}

func TestEndToEndDelivery(t *testing.T) {
	topo, t0, t1, t2 := lineTopo()
	n := NewNet(topo, map[int]Table{0: t0, 1: t1, 2: t2}, nil)
	id := n.Inject(0, Packet{Src: 0, Dst: 1})
	n.Drain()
	if !n.DeliveredTo(id, 1) {
		t.Fatalf("packet not delivered: delivered=%v dropped=%v", n.Delivered(), n.Dropped())
	}
	trace := n.TraceOf(id)
	if len(trace) != 3 {
		t.Fatalf("trace length = %d, want 3 (one obs per switch): %v", len(trace), trace)
	}
	for i, sw := range []int{0, 1, 2} {
		if trace[i].Sw != sw {
			t.Fatalf("trace[%d].Sw = %d, want %d", i, trace[i].Sw, sw)
		}
	}
}

func TestDropWithoutRule(t *testing.T) {
	topo, t0, _, t2 := lineTopo()
	n := NewNet(topo, map[int]Table{0: t0, 2: t2}, nil) // sw1 has no table
	id := n.Inject(0, Packet{Src: 0, Dst: 1})
	n.Drain()
	if n.DeliveredTo(id, 1) {
		t.Fatal("packet should have been dropped at sw1")
	}
	if len(n.Dropped()) != 1 {
		t.Fatalf("dropped = %v", n.Dropped())
	}
}

func TestUpdateCommandChangesForwarding(t *testing.T) {
	topo, t0, t1, t2 := lineTopo()
	n := NewNet(topo, map[int]Table{0: t0, 2: t2}, []Command{Update(1, t1)})
	id1 := n.Inject(0, Packet{Src: 0, Dst: 1})
	n.Drain() // dropped at sw1
	n.Run()   // executes the update
	id2 := n.Inject(0, Packet{Src: 0, Dst: 1})
	n.Drain()
	if n.DeliveredTo(id1, 1) {
		t.Fatal("pre-update packet should have been dropped")
	}
	if !n.DeliveredTo(id2, 1) {
		t.Fatal("post-update packet should be delivered")
	}
}

func TestFlushBlocksUntilDrained(t *testing.T) {
	topo, t0, t1, t2 := lineTopo()
	n := NewNet(topo, map[int]Table{0: t0, 1: t1, 2: t2},
		append(Wait(), Update(1, Table{})))
	n.Inject(0, Packet{Src: 0, Dst: 1})
	// incr executes; flush must block while the packet is in flight.
	if !n.StepCommand() {
		t.Fatal("incr should fire")
	}
	if n.StepCommand() {
		t.Fatal("flush should block while a stale-epoch packet is in flight")
	}
	n.Drain()
	if !n.StepCommand() {
		t.Fatal("flush should fire once drained")
	}
	if !n.StepCommand() {
		t.Fatal("update should fire")
	}
	if n.PendingCommands() != 0 {
		t.Fatalf("pending = %d", n.PendingCommands())
	}
}

func TestEpochStamping(t *testing.T) {
	topo, t0, t1, t2 := lineTopo()
	n := NewNet(topo, map[int]Table{0: t0, 1: t1, 2: t2}, Wait())
	n.Inject(0, Packet{Src: 0, Dst: 1})
	if got := n.minEpoch(); got != 0 {
		t.Fatalf("minEpoch = %d, want 0", got)
	}
	n.StepCommand() // incr
	if n.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", n.Epoch())
	}
	n.Inject(0, Packet{Src: 0, Dst: 1})
	if got := n.minEpoch(); got != 0 {
		t.Fatalf("minEpoch = %d, want 0 (stale packet in flight)", got)
	}
	n.Drain()
	if got := n.minEpoch(); got != 1 {
		t.Fatalf("minEpoch after drain = %d, want 1 (epoch floor)", got)
	}
}

// TestCarefulSequenceSingleConfig checks the essence of Lemma 7: under a
// careful command sequence (updates separated by waits), every packet's
// trace is a trace of one of the static configurations, never a mixture.
func TestCarefulSequenceSingleConfig(t *testing.T) {
	// Diamond: h0 - sw0 - {sw1 | sw2} - sw3 - h1. Initial via sw1, final
	// via sw2. Careful sequence: update sw2's next hop first is not needed
	// (sw2 static); update sw0 to point at sw2, with waits around it.
	topo := topology.New("diamond", 4)
	p01, _ := topo.AddLink(0, 1)
	p02, _ := topo.AddLink(0, 2)
	_, p13 := topo.AddLink(1, 3)
	_, p23 := topo.AddLink(2, 3)
	topo.AddHost(0, 0)
	h1 := topo.AddHost(1, 3)
	_ = p13
	_ = p23
	fwd := func(pt topology.Port) Table {
		return Table{{Priority: 1, Match: AnyPacket(), Actions: []Action{Forward(pt)}}}
	}
	pt13, _ := topo.PortToward(1, 3)
	pt23, _ := topo.PortToward(2, 3)
	init := map[int]Table{0: fwd(p01), 1: fwd(pt13), 2: fwd(pt23), 3: fwd(h1.Port)}
	var cmds []Command
	cmds = append(cmds, Wait()...)
	cmds = append(cmds, Update(0, fwd(p02)))
	cmds = append(cmds, Wait()...)

	for seed := int64(0); seed < 30; seed++ {
		n := NewNet(topo, init, cmds)
		r := rand.New(rand.NewSource(seed))
		injected := 0
		n.RunRandom(r, func(step int) bool {
			if step%3 == 0 && injected < 10 {
				n.Inject(0, Packet{Src: 0, Dst: 1})
				injected++
			}
			return injected < 10
		})
		n.Drain()
		for id := 0; id < injected; id++ {
			trace := n.TraceOf(id)
			if len(trace) == 0 {
				continue
			}
			var mids []int
			for _, o := range trace {
				if o.Sw == 1 || o.Sw == 2 {
					mids = append(mids, o.Sw)
				}
			}
			if len(mids) != 1 {
				t.Fatalf("seed %d: packet %d saw a mixed configuration: trace %v", seed, id, trace)
			}
			if !n.DeliveredTo(id, 1) {
				t.Fatalf("seed %d: packet %d lost under careful update", seed, id)
			}
		}
	}
}

func TestRunRandomCompletesCommands(t *testing.T) {
	topo, t0, t1, t2 := lineTopo()
	var cmds []Command
	cmds = append(cmds, Update(1, Table{}))
	cmds = append(cmds, Wait()...)
	cmds = append(cmds, Update(1, t1))
	n := NewNet(topo, map[int]Table{0: t0, 1: t1, 2: t2}, cmds)
	n.RunRandom(rand.New(rand.NewSource(1)), nil)
	if n.PendingCommands() != 0 {
		t.Fatalf("commands left: %d", n.PendingCommands())
	}
	if !n.TableOf(1).Equal(t1) {
		t.Fatal("final table not installed")
	}
}

func TestCommandString(t *testing.T) {
	if Update(3, nil).String() != "update(sw3)" {
		t.Fatal("Update string")
	}
	w := Wait()
	if w[0].String() != "incr" || w[1].String() != "flush" {
		t.Fatal("Wait strings")
	}
}

func TestLocString(t *testing.T) {
	if HostLoc(2).String() != "h2" {
		t.Fatal("host loc")
	}
	if SwLoc(1, 3).String() != "(sw1,pt3)" {
		t.Fatal("switch loc")
	}
}

// TestCanonicalFormIsCanonical: a table's canonical form is its Canonical
// copy's, whatever order the rules are in — on both sides of the 16 rules
// it orders on the stack — and two tables encode, and digest, alike
// exactly when they are Equal.
func TestCanonicalFormIsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rule := func() Rule {
		return Rule{Priority: r.Intn(3), Match: MatchFlow(r.Intn(4)-1, r.Intn(3)),
			Actions: []Action{Forward(topology.Port(1 + r.Intn(3)))}}
	}
	for iter := 0; iter < 3000; iter++ {
		a := make(Table, r.Intn(22))
		for i := range a {
			a[i] = rule()
		}
		b := a.Clone()
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if iter%2 == 1 && len(b) > 0 {
			b[r.Intn(len(b))] = rule()
		}
		form := string(a.AppendCanonical(nil))
		if form != string(a.Canonical().AppendCanonical(nil)) {
			t.Fatalf("%v: the form differs from its Canonical copy's", a)
		}
		if same := form == string(b.AppendCanonical(nil)); same != a.Equal(b) || (a.Digest() == b.Digest()) != same {
			t.Fatalf("%v and %v: forms alike %v, Equal %v", a, b, same, a.Equal(b))
		}
	}
}

// TestAppendVarintIsTheLibrarys: the canonical form's varints are
// encoding/binary's, one-byte fast path included.
func TestAppendVarintIsTheLibrarys(t *testing.T) {
	for _, v := range []int{0, 1, -1, 63, -64, 64, -65, 127, 1 << 40, -1 << 62, 1<<63 - 1, -1 << 63} {
		if got, want := appendVarint(nil, v), binary.AppendVarint(nil, int64(v)); string(got) != string(want) {
			t.Fatalf("%d: %x, want %x", v, got, want)
		}
	}
}
