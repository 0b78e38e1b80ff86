// Package ltl implements the Linear Temporal Logic fragment used by the
// network-update synthesizer: negation normal form (NNF) formulas over
// atomic propositions that test components of a network state (switch id,
// port id, or packet header fields), together with the extended-closure and
// maximally-consistent-set machinery from Section 5 of "Efficient Synthesis
// of Network Updates" (PLDI 2015).
package ltl

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Op identifies the operator at the root of a Formula node.
type Op uint8

// Formula operators. After ToNNF, OpNot appears only directly above OpAtom.
const (
	OpTrue Op = iota
	OpFalse
	OpAtom
	OpNot
	OpAnd
	OpOr
	OpNext
	OpUntil
	OpRelease
)

func (o Op) String() string {
	switch o {
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	case OpAtom:
		return "atom"
	case OpNot:
		return "!"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpNext:
		return "X"
	case OpUntil:
		return "U"
	case OpRelease:
		return "R"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Prop is an atomic proposition f = v testing one component of a network
// state. Field is "sw" (switch id), "pt" (port id), or a packet header
// field name such as "src" or "dst".
type Prop struct {
	Field string
	Value int
}

func (p Prop) String() string { return fmt.Sprintf("%s=%d", p.Field, p.Value) }

// Env supplies truth values for atomic propositions at one state.
type Env interface {
	Holds(p Prop) bool
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(p Prop) bool

// Holds reports whether p is true in the environment.
func (f EnvFunc) Holds(p Prop) bool { return f(p) }

// Formula is an LTL formula node. Formulas are immutable once built;
// construct them with the package-level constructors.
type Formula struct {
	Op   Op
	Prop Prop     // valid when Op == OpAtom
	L, R *Formula // operands; unary operators use L only

	// text memoizes String. A formula never changes, and its text is the key
	// its closure, its label table and a session's context fingerprint go
	// by, so it is printed once, not per use.
	text atomic.Pointer[string]
}

var (
	trueFormula  = &Formula{Op: OpTrue}
	falseFormula = &Formula{Op: OpFalse}
)

// True returns the formula "true".
func True() *Formula { return trueFormula }

// False returns the formula "false".
func False() *Formula { return falseFormula }

// Atom returns the atomic proposition field = value.
func Atom(field string, value int) *Formula {
	return &Formula{Op: OpAtom, Prop: Prop{Field: field, Value: value}}
}

// Not returns the negation of f, simplifying double negation and constants.
func Not(f *Formula) *Formula {
	switch f.Op {
	case OpTrue:
		return falseFormula
	case OpFalse:
		return trueFormula
	case OpNot:
		return f.L
	}
	return &Formula{Op: OpNot, L: f}
}

// And returns the conjunction of l and r with constant folding.
func And(l, r *Formula) *Formula {
	switch {
	case l.Op == OpFalse || r.Op == OpFalse:
		return falseFormula
	case l.Op == OpTrue:
		return r
	case r.Op == OpTrue:
		return l
	}
	return &Formula{Op: OpAnd, L: l, R: r}
}

// Or returns the disjunction of l and r with constant folding.
func Or(l, r *Formula) *Formula {
	switch {
	case l.Op == OpTrue || r.Op == OpTrue:
		return trueFormula
	case l.Op == OpFalse:
		return r
	case r.Op == OpFalse:
		return l
	}
	return &Formula{Op: OpOr, L: l, R: r}
}

// Next returns X f.
func Next(f *Formula) *Formula { return &Formula{Op: OpNext, L: f} }

// Until returns l U r.
func Until(l, r *Formula) *Formula { return &Formula{Op: OpUntil, L: l, R: r} }

// Release returns l R r.
func Release(l, r *Formula) *Formula { return &Formula{Op: OpRelease, L: l, R: r} }

// Implies returns l -> r, encoded as !l | r.
func Implies(l, r *Formula) *Formula { return Or(Not(l), r) }

// Eventually returns F f, encoded as true U f.
func Eventually(f *Formula) *Formula { return Until(trueFormula, f) }

// Always returns G f, encoded as false R f.
func Always(f *Formula) *Formula { return Release(falseFormula, f) }

// String renders the formula in the concrete syntax accepted by Parse.
func (f *Formula) String() string {
	if s := f.text.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	f.write(&b)
	s := b.String()
	f.text.Store(&s)
	return s
}

func (f *Formula) write(b *strings.Builder) {
	switch f.Op {
	case OpTrue:
		b.WriteString("true")
	case OpFalse:
		b.WriteString("false")
	case OpAtom:
		fmt.Fprintf(b, "%s=%d", f.Prop.Field, f.Prop.Value)
	case OpNot:
		b.WriteByte('!')
		f.L.writeAtomic(b)
	case OpNext:
		b.WriteString("X ")
		f.L.writeAtomic(b)
	case OpAnd, OpOr, OpUntil, OpRelease:
		b.WriteByte('(')
		f.L.write(b)
		fmt.Fprintf(b, " %s ", f.Op)
		f.R.write(b)
		b.WriteByte(')')
	}
}

func (f *Formula) writeAtomic(b *strings.Builder) {
	switch f.Op {
	case OpTrue, OpFalse, OpAtom, OpNot, OpNext:
		f.write(b)
	default:
		f.write(b) // binary forms already parenthesize themselves
	}
}

// Equal reports structural equality of formulas.
func (f *Formula) Equal(g *Formula) bool {
	if f == g {
		return true
	}
	if f == nil || g == nil || f.Op != g.Op {
		return false
	}
	switch f.Op {
	case OpTrue, OpFalse:
		return true
	case OpAtom:
		return f.Prop == g.Prop
	case OpNot, OpNext:
		return f.L.Equal(g.L)
	default:
		return f.L.Equal(g.L) && f.R.Equal(g.R)
	}
}

// ToNNF returns an equivalent formula in negation normal form: negation
// appears only directly above atomic propositions. Derived operators have
// already been eliminated by the constructors.
func ToNNF(f *Formula) *Formula {
	return nnf(f, false)
}

func nnf(f *Formula, neg bool) *Formula {
	switch f.Op {
	case OpTrue:
		if neg {
			return falseFormula
		}
		return trueFormula
	case OpFalse:
		if neg {
			return trueFormula
		}
		return falseFormula
	case OpAtom:
		if neg {
			return &Formula{Op: OpNot, L: f}
		}
		return f
	case OpNot:
		return nnf(f.L, !neg)
	case OpAnd:
		if neg {
			return Or(nnf(f.L, true), nnf(f.R, true))
		}
		return And(nnf(f.L, false), nnf(f.R, false))
	case OpOr:
		if neg {
			return And(nnf(f.L, true), nnf(f.R, true))
		}
		return Or(nnf(f.L, false), nnf(f.R, false))
	case OpNext:
		return Next(nnf(f.L, neg))
	case OpUntil:
		if neg {
			return Release(nnf(f.L, true), nnf(f.R, true))
		}
		return Until(nnf(f.L, false), nnf(f.R, false))
	case OpRelease:
		if neg {
			return Until(nnf(f.L, true), nnf(f.R, true))
		}
		return Release(nnf(f.L, false), nnf(f.R, false))
	}
	panic(fmt.Sprintf("ltl: unknown operator %v", f.Op))
}

// IsNNF reports whether negation appears only directly above atoms.
func IsNNF(f *Formula) bool {
	switch f.Op {
	case OpTrue, OpFalse, OpAtom:
		return true
	case OpNot:
		return f.L.Op == OpAtom
	case OpNext:
		return IsNNF(f.L)
	default:
		return IsNNF(f.L) && IsNNF(f.R)
	}
}

// EvalTrace evaluates f over a finite trace of states (each an Env),
// interpreting the trace as the infinite sequence in which the final state
// repeats forever, per Definition 1 of the paper. The trace must be
// non-empty.
func (f *Formula) EvalTrace(trace []Env) bool {
	if len(trace) == 0 {
		panic("ltl: EvalTrace on empty trace")
	}
	return evalAt(f, trace, 0)
}

func evalAt(f *Formula, trace []Env, i int) bool {
	if i >= len(trace) {
		i = len(trace) - 1
	}
	switch f.Op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpAtom:
		return trace[i].Holds(f.Prop)
	case OpNot:
		return !evalAt(f.L, trace, i)
	case OpAnd:
		return evalAt(f.L, trace, i) && evalAt(f.R, trace, i)
	case OpOr:
		return evalAt(f.L, trace, i) || evalAt(f.R, trace, i)
	case OpNext:
		return evalAt(f.L, trace, i+1)
	case OpUntil:
		// The suffix from the last position is constant, so the until is
		// decided by position len(trace)-1 at the latest.
		for j := i; j < len(trace); j++ {
			if evalAt(f.R, trace, j) {
				return true
			}
			if !evalAt(f.L, trace, j) {
				return false
			}
		}
		return false
	case OpRelease:
		for j := i; j < len(trace); j++ {
			if !evalAt(f.R, trace, j) {
				return false
			}
			if evalAt(f.L, trace, j) {
				return true
			}
		}
		return true // R held through the constant suffix
	}
	panic(fmt.Sprintf("ltl: unknown operator %v", f.Op))
}

// Size returns the number of nodes in the formula tree.
func (f *Formula) Size() int {
	if f == nil {
		return 0
	}
	return 1 + f.L.Size() + f.R.Size()
}
