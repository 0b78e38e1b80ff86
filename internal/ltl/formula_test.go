package ltl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randFormula generates a random formula over atoms sw=0..swMax using the
// given depth budget. It exercises every operator, including the derived
// ones that the constructors eliminate.
func randFormula(r *rand.Rand, depth, swMax int) *Formula {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return At(r.Intn(swMax))
		}
	}
	switch r.Intn(9) {
	case 0:
		return At(r.Intn(swMax))
	case 1:
		return Not(randFormula(r, depth-1, swMax))
	case 2:
		return And(randFormula(r, depth-1, swMax), randFormula(r, depth-1, swMax))
	case 3:
		return Or(randFormula(r, depth-1, swMax), randFormula(r, depth-1, swMax))
	case 4:
		return Next(randFormula(r, depth-1, swMax))
	case 5:
		return Until(randFormula(r, depth-1, swMax), randFormula(r, depth-1, swMax))
	case 6:
		return Release(randFormula(r, depth-1, swMax), randFormula(r, depth-1, swMax))
	case 7:
		return Eventually(randFormula(r, depth-1, swMax))
	default:
		return Always(randFormula(r, depth-1, swMax))
	}
}

// randTrace builds a random trace of states, each holding exactly one of
// the atoms sw=0..swMax-1.
func randTrace(r *rand.Rand, maxLen, swMax int) []Env {
	n := 1 + r.Intn(maxLen)
	trace := make([]Env, n)
	for i := range trace {
		sw := r.Intn(swMax)
		trace[i] = EnvFunc(func(p Prop) bool {
			return p.Field == FieldSwitch && p.Value == sw
		})
	}
	return trace
}

func TestConstructorsFoldConstants(t *testing.T) {
	a := At(1)
	cases := []struct {
		got, want *Formula
	}{
		{And(True(), a), a},
		{And(a, True()), a},
		{And(False(), a), False()},
		{Or(False(), a), a},
		{Or(a, True()), True()},
		{Not(Not(a)), a},
		{Not(True()), False()},
		{Not(False()), True()},
	}
	for i, c := range cases {
		if !c.got.Equal(c.want) {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := randFormula(r, 4, 4)
		g := ToNNF(f)
		if !IsNNF(g) {
			t.Fatalf("ToNNF(%v) = %v is not in NNF", f, g)
		}
		for j := 0; j < 20; j++ {
			trace := randTrace(r, 6, 4)
			if f.EvalTrace(trace) != g.EvalTrace(trace) {
				t.Fatalf("NNF changed semantics: %v vs %v", f, g)
			}
		}
	}
}

func TestNNFNegationSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		f := randFormula(r, 4, 4)
		g := ToNNF(Not(f))
		for j := 0; j < 20; j++ {
			trace := randTrace(r, 6, 4)
			if f.EvalTrace(trace) == g.EvalTrace(trace) {
				t.Fatalf("NNF(!phi) should disagree with phi: %v vs %v", f, g)
			}
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		f := randFormula(r, 5, 6)
		s := f.String()
		g, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !f.Equal(g) {
			t.Fatalf("round trip failed: %q parsed to %q", s, g)
		}
	}
}

func TestParseExamples(t *testing.T) {
	cases := []struct {
		in   string
		want *Formula
	}{
		{"true", True()},
		{"false", False()},
		{"sw=3", At(3)},
		{"sw!=3", Not(At(3))},
		{"!sw=3", Not(At(3))},
		{"sw=1 & sw=2", And(At(1), At(2))},
		{"sw=1 | sw=2 & sw=3", Or(At(1), And(At(2), At(3)))},
		{"sw=1 -> F sw=2", Implies(At(1), Eventually(At(2)))},
		{"sw=1 => F sw=2", Implies(At(1), Eventually(At(2)))},
		{"G sw=1", Always(At(1))},
		{"X X sw=1", Next(Next(At(1)))},
		{"sw=1 U sw=2 U sw=3", Until(At(1), Until(At(2), At(3)))},
		{"(sw=1 R sw=2)", Release(At(1), At(2))},
		{"pt=2", Atom(FieldPort, 2)},
		{"dst=7", Atom("dst", 7)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "(", "sw=", "sw", "sw=1 &", "sw=1 sw=2", "1=2", "sw=1)", "U sw=1", "sw = x",
	} {
		if f, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded with %v, want error", in, f)
		}
	}
}

func TestEvalTraceBasics(t *testing.T) {
	at := func(sw int) Env {
		return EnvFunc(func(p Prop) bool { return p.Field == FieldSwitch && p.Value == sw })
	}
	trace := []Env{at(1), at(2), at(3)}
	cases := []struct {
		f    *Formula
		want bool
	}{
		{At(1), true},
		{At(2), false},
		{Next(At(2)), true},
		{Next(Next(At(3))), true},
		{Next(Next(Next(At(3)))), true}, // final state repeats
		{Eventually(At(3)), true},
		{Eventually(At(4)), false},
		{Always(At(1)), false},
		{Always(Or(Or(At(1), At(2)), At(3))), true},
		{Until(Not(At(3)), At(2)), true},
		{Until(Not(At(2)), At(3)), false},
		{Release(False(), Not(At(4))), true},
		{Release(At(2), Not(At(4))), true},
	}
	for i, c := range cases {
		if got := c.f.EvalTrace(trace); got != c.want {
			t.Errorf("case %d (%v): got %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestUntilReleaseDuality(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randFormula(rr, 3, 3)
		b := randFormula(rr, 3, 3)
		lhs := Not(Until(a, b))
		rhs := Release(Not(a), Not(b))
		for i := 0; i < 10; i++ {
			trace := randTrace(r, 5, 3)
			if lhs.EvalTrace(trace) != rhs.EvalTrace(trace) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	if got := At(1).Size(); got != 1 {
		t.Errorf("Size(atom) = %d, want 1", got)
	}
	if got := Until(At(1), At(2)).Size(); got != 3 {
		t.Errorf("Size(U) = %d, want 3", got)
	}
}
