package ltl

import (
	"math/rand"
	"testing"
)

func swEnv(sw int) Env {
	return EnvFunc(func(p Prop) bool { return p.Field == FieldSwitch && p.Value == sw })
}

func TestClosureChildFirstOrder(t *testing.T) {
	c := MustClosure(Until(At(1), And(At(2), At(3))))
	for i := 0; i < c.Size(); i++ {
		f := c.Sub(i)
		if f.L != nil {
			l := c.index[f.L.String()]
			if l >= i {
				t.Fatalf("child %v (id %d) not before parent %v (id %d)", f.L, l, f, i)
			}
		}
		if f.R != nil {
			r := c.index[f.R.String()]
			if r >= i {
				t.Fatalf("child %v (id %d) not before parent %v (id %d)", f.R, r, f, i)
			}
		}
	}
}

func TestClosureDeduplicates(t *testing.T) {
	// sw=1 appears three times but should be interned once.
	c := MustClosure(And(At(1), Or(At(1), Until(At(1), At(2)))))
	count := 0
	for i := 0; i < c.Size(); i++ {
		if c.Sub(i).Op == OpAtom && c.Sub(i).Prop == (Prop{FieldSwitch, 1}) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("atom sw=1 interned %d times, want 1", count)
	}
}

func TestClosureTooLarge(t *testing.T) {
	f := True()
	// Build a chain of nested distinct untils exceeding MaxClosure subformulas.
	for i := 0; i < MaxClosure; i++ {
		f = Until(At(i), f)
	}
	if _, err := NewClosure(f); err == nil {
		t.Fatal("expected error for oversized closure")
	}
}

// labelTrace computes the valuation of every suffix of a trace by chaining
// Sink and Extend, then checks each recorded truth bit against the direct
// trace evaluator. This validates both Extend and Sink against the
// reference LTL semantics.
func labelTrace(c *Closure, trace []Env) []Valuation {
	n := len(trace)
	vals := make([]Valuation, n)
	vals[n-1] = c.Sink(c.AtomValuation(trace[n-1]))
	for i := n - 2; i >= 0; i-- {
		vals[i] = c.Extend(c.AtomValuation(trace[i]), vals[i+1])
	}
	return vals
}

func TestExtendSinkMatchEvalTrace(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 400; iter++ {
		f := ToNNF(randFormula(r, 4, 4))
		c, err := NewClosure(f)
		if err != nil {
			continue // oversized random formula; skip
		}
		trace := randTrace(r, 6, 4)
		vals := labelTrace(c, trace)
		for i := 0; i < len(trace); i++ {
			for id := 0; id < c.Size(); id++ {
				want := c.Sub(id).EvalTrace(trace[i:])
				if got := vals[i].Get(id); got != want {
					t.Fatalf("formula %v, subformula %v at position %d: labeled %v, trace eval %v",
						f, c.Sub(id), i, got, want)
				}
			}
		}
	}
}

func TestFollowsConsistentWithExtend(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		f := ToNNF(randFormula(r, 4, 4))
		c, err := NewClosure(f)
		if err != nil {
			continue
		}
		trace := randTrace(r, 6, 4)
		vals := labelTrace(c, trace)
		for i := 0; i+1 < len(trace); i++ {
			if !c.Follows(vals[i], vals[i+1]) {
				t.Fatalf("Follows rejects consecutive valuations of a real trace (formula %v)", f)
			}
		}
	}
}

func TestValuationBits(t *testing.T) {
	var v Valuation
	for _, i := range []int{0, 1, 63, 64, 127} {
		if v.Get(i) {
			t.Fatalf("zero valuation has bit %d set", i)
		}
		v = v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if v.Count() != 5 {
		t.Fatalf("Count = %d, want 5", v.Count())
	}
	v = v.Set(63, false)
	if v.Get(63) || v.Count() != 4 {
		t.Fatalf("clear failed: %v", v)
	}
}

func TestValuationLessTotalOrder(t *testing.T) {
	a := Valuation{}.Set(0, true)
	b := Valuation{}.Set(64, true)
	if !a.Less(b) || b.Less(a) {
		t.Fatal("high word must dominate ordering")
	}
	if a.Less(a) {
		t.Fatal("Less must be irreflexive")
	}
}

func TestHoldsReadsRoot(t *testing.T) {
	c := MustClosure(Eventually(At(2)))
	sat := c.Sink(c.AtomValuation(swEnv(2)))
	unsat := c.Sink(c.AtomValuation(swEnv(1)))
	if !c.Holds(sat) {
		t.Error("F sw=2 should hold at sink sw=2")
	}
	if c.Holds(unsat) {
		t.Error("F sw=2 should not hold at sink sw=1")
	}
}

func TestPropertyConstructors(t *testing.T) {
	at := func(sw int) Env { return swEnv(sw) }
	reach := Reachability(1, 3)
	if !reach.EvalTrace([]Env{at(1), at(2), at(3)}) {
		t.Error("reachability should hold on 1-2-3")
	}
	if reach.EvalTrace([]Env{at(1), at(2)}) {
		t.Error("reachability should fail on 1-2")
	}
	if !reach.EvalTrace([]Env{at(5), at(2)}) {
		t.Error("reachability is vacuous off-source")
	}

	wp := Waypoint(1, 2, 3)
	if !wp.EvalTrace([]Env{at(1), at(2), at(3)}) {
		t.Error("waypoint should hold on 1-2-3")
	}
	if wp.EvalTrace([]Env{at(1), at(4), at(3)}) {
		t.Error("waypoint should fail when w skipped")
	}
	if wp.EvalTrace([]Env{at(1), at(3)}) {
		t.Error("waypoint should fail when dst reached before w")
	}

	sc := ServiceChain(1, []int{2, 4}, 3)
	if !sc.EvalTrace([]Env{at(1), at(2), at(4), at(3)}) {
		t.Error("chain should hold on 1-2-4-3")
	}
	if sc.EvalTrace([]Env{at(1), at(4), at(2), at(3)}) {
		t.Error("chain should fail out of order")
	}
	if sc.EvalTrace([]Env{at(1), at(2), at(3)}) {
		t.Error("chain should fail when a waypoint is skipped")
	}

	we := WaypointEither(1, []int{2, 4}, 3)
	if !we.EvalTrace([]Env{at(1), at(4), at(3)}) {
		t.Error("either-waypoint should accept w2")
	}
	if we.EvalTrace([]Env{at(1), at(5), at(3)}) {
		t.Error("either-waypoint should fail when no waypoint hit")
	}
}
