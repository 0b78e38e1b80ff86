package ltl

import (
	"fmt"
	"math/bits"
)

// MaxClosure is the maximum number of distinct subformulas supported by a
// Closure. A Valuation packs one truth bit per subformula into two words.
const MaxClosure = 128

// Valuation is a truth assignment to the subformulas of a Closure: bit i is
// the truth value of subformula i. A Valuation determines a maximally-
// consistent subset of the extended closure ecl(phi) (Section 5.1): the set
// contains subformula i if bit i is set and its negation otherwise.
// Valuations are comparable and usable as map keys.
type Valuation [2]uint64

// Get reports the truth bit for subformula i.
func (v Valuation) Get(i int) bool {
	return v[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set returns a copy of v with the truth bit for subformula i set to b.
func (v Valuation) Set(i int, b bool) Valuation {
	if b {
		v[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v[i>>6] &^= 1 << (uint(i) & 63)
	}
	return v
}

// Count returns the number of true bits.
func (v Valuation) Count() int {
	return bits.OnesCount64(v[0]) + bits.OnesCount64(v[1])
}

// Less imposes a total order on valuations (for canonical sorted labels).
func (v Valuation) Less(w Valuation) bool {
	if v[1] != w[1] {
		return v[1] < w[1]
	}
	return v[0] < w[0]
}

// Compare orders valuations consistently with Less, returning -1, 0, or +1.
// It is the comparison function for allocation-free sorts of label sets.
func (v Valuation) Compare(w Valuation) int {
	if v[1] != w[1] {
		if v[1] < w[1] {
			return -1
		}
		return 1
	}
	if v[0] != w[0] {
		if v[0] < w[0] {
			return -1
		}
		return 1
	}
	return 0
}

// Closure is the extended closure ecl(phi) of an NNF formula phi, indexed so
// that every subformula has an integer id and children precede parents.
// Negations of subformulas are represented implicitly: a maximally-
// consistent set is exactly a Valuation over the positive subformulas.
type Closure struct {
	root  int
	subs  []*Formula
	index map[string]int
	ops   []Op
	left  []int // child id, -1 if none
	right []int
	atoms []int // ids of OpAtom subformulas, ascending
}

// NewClosure builds the closure of f. f is converted to NNF first. It
// returns an error if the closure would exceed MaxClosure subformulas.
func NewClosure(f *Formula) (*Closure, error) {
	c := &Closure{index: map[string]int{}}
	root, err := c.intern(ToNNF(f))
	if err != nil {
		return nil, err
	}
	c.root = root
	return c, nil
}

// MustClosure is NewClosure but panics on error; for statically known specs.
func MustClosure(f *Formula) *Closure {
	c, err := NewClosure(f)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Closure) intern(f *Formula) (int, error) {
	key := f.String()
	if id, ok := c.index[key]; ok {
		return id, nil
	}
	l, r := -1, -1
	var err error
	if f.L != nil {
		if l, err = c.intern(f.L); err != nil {
			return 0, err
		}
	}
	if f.R != nil {
		if r, err = c.intern(f.R); err != nil {
			return 0, err
		}
	}
	// Interning children first may have added this formula via sharing.
	if id, ok := c.index[key]; ok {
		return id, nil
	}
	id := len(c.subs)
	if id >= MaxClosure {
		return 0, fmt.Errorf("ltl: closure exceeds %d subformulas", MaxClosure)
	}
	c.subs = append(c.subs, f)
	c.ops = append(c.ops, f.Op)
	c.left = append(c.left, l)
	c.right = append(c.right, r)
	c.index[key] = id
	if f.Op == OpAtom {
		c.atoms = append(c.atoms, id)
	}
	return id, nil
}

// Size returns the number of distinct subformulas.
func (c *Closure) Size() int { return len(c.subs) }

// Root returns the id of the root formula.
func (c *Closure) Root() int { return c.root }

// Sub returns subformula i.
func (c *Closure) Sub(i int) *Formula { return c.subs[i] }

// Atoms returns the ids of the atomic-proposition subformulas.
func (c *Closure) Atoms() []int { return c.atoms }

// AtomValuation computes the truth bits for the atomic subformulas under
// env. Bits for non-atom subformulas are left zero.
func (c *Closure) AtomValuation(env Env) Valuation {
	var v Valuation
	for _, id := range c.atoms {
		if env.Holds(c.subs[id].Prop) {
			v = v.Set(id, true)
		}
	}
	return v
}

// Extend computes the unique valuation at a non-sink state whose atomic
// propositions are given by atoms and that is followed by a successor state
// with valuation next. This realizes the follows relation of Section 5.1:
// given the successor's maximally-consistent set, the current state's set is
// determined bottom-up.
func (c *Closure) Extend(atoms, next Valuation) Valuation {
	var v Valuation
	for i, op := range c.ops {
		var b bool
		switch op {
		case OpTrue:
			b = true
		case OpFalse:
			b = false
		case OpAtom:
			b = atoms.Get(i)
		case OpNot:
			b = !v.Get(c.left[i])
		case OpAnd:
			b = v.Get(c.left[i]) && v.Get(c.right[i])
		case OpOr:
			b = v.Get(c.left[i]) || v.Get(c.right[i])
		case OpNext:
			b = next.Get(c.left[i])
		case OpUntil:
			b = v.Get(c.right[i]) || (v.Get(c.left[i]) && next.Get(i))
		case OpRelease:
			b = v.Get(c.right[i]) && (v.Get(c.left[i]) || next.Get(i))
		}
		v = v.Set(i, b)
	}
	return v
}

// Sink computes the valuation at a sink state (a state whose only
// transition is a self-loop), i.e. on the constant trace q q q ... This is
// the HoldsSink/Holds0 function of Section 5.1, with release evaluated
// under standard LTL semantics (see DESIGN.md "Deviations").
func (c *Closure) Sink(atoms Valuation) Valuation {
	var v Valuation
	for i, op := range c.ops {
		var b bool
		switch op {
		case OpTrue:
			b = true
		case OpFalse:
			b = false
		case OpAtom:
			b = atoms.Get(i)
		case OpNot:
			b = !v.Get(c.left[i])
		case OpAnd:
			b = v.Get(c.left[i]) && v.Get(c.right[i])
		case OpOr:
			b = v.Get(c.left[i]) || v.Get(c.right[i])
		case OpNext:
			b = v.Get(c.left[i])
		case OpUntil:
			b = v.Get(c.right[i])
		case OpRelease:
			b = v.Get(c.right[i])
		}
		v = v.Set(i, b)
	}
	return v
}

// Follows reports whether valuation m2 may directly succeed m1, i.e. the
// temporal obligations recorded in m1 are consistent with m2 (the follows
// relation lifted to valuations). Extend(atoms(m1), m2) == m1 implies
// Follows(m1, m2); tests hold Extend to this standalone check.
func (c *Closure) Follows(m1, m2 Valuation) bool {
	for i, op := range c.ops {
		switch op {
		case OpNext:
			if m1.Get(i) != m2.Get(c.left[i]) {
				return false
			}
		case OpUntil:
			want := m1.Get(c.right[i]) || (m1.Get(c.left[i]) && m2.Get(i))
			if m1.Get(i) != want {
				return false
			}
		case OpRelease:
			want := m1.Get(c.right[i]) && (m1.Get(c.left[i]) || m2.Get(i))
			if m1.Get(i) != want {
				return false
			}
		}
	}
	return true
}

// Holds reports whether the root formula is true in valuation v.
func (c *Closure) Holds(v Valuation) bool { return v.Get(c.root) }
