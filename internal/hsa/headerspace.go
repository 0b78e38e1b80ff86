// Package hsa implements header-space analysis in the style of NetPlumber
// [Kazemian et al., NSDI 2013]: packet headers as ternary wildcard
// vectors, a plumbing graph of rule nodes connected by pipes, and
// incremental flow propagation on rule insertion and removal. It is the
// repository's stand-in for NetPlumber as a synthesis backend: an
// incremental checker that keeps per-flow reachability bookkeeping but
// reports no counterexamples (see DESIGN.md, Substitutions).
package hsa

import (
	"fmt"
	"strings"

	"netupdate/internal/network"
)

// Width is the number of header bits modeled: three 16-bit fields
// (src, dst, typ).
const Width = 48

const fieldBits = 16

// fieldMask covers one 16-bit field at the given offset.
func fieldShift(f network.FieldID) uint {
	return uint(f) * fieldBits
}

// Vec is a ternary header vector: for bit i, ones and zeros record
// whether the bit may be 1 and may be 0 respectively. Both set means
// wildcard; exactly one set means a fixed bit; neither set makes the
// vector empty.
type Vec struct {
	Ones, Zeros uint64
}

// fullMask has the low Width bits set.
const fullMask = (uint64(1) << Width) - 1

// Any is the all-wildcard vector.
func Any() Vec { return Vec{Ones: fullMask, Zeros: fullMask} }

// FromPacket returns the singleton vector matching exactly pkt.
func FromPacket(p network.Packet) Vec {
	v := Vec{}
	for _, f := range []network.FieldID{network.FieldSrc, network.FieldDst, network.FieldTyp} {
		val := uint64(uint16(p.Field(f)))
		sh := fieldShift(f)
		v.Ones |= val << sh
		v.Zeros |= (^val & (uint64(1)<<fieldBits - 1)) << sh
	}
	return v
}

// FromPattern returns the vector matching a rule pattern's header fields
// (the in-port constraint is handled at the plumbing-graph level).
func FromPattern(pat network.Pattern) Vec {
	v := Any()
	set := func(f network.FieldID, val int) {
		if val == network.Wildcard {
			return
		}
		sh := fieldShift(f)
		mask := (uint64(1)<<fieldBits - 1) << sh
		bits := uint64(uint16(val)) << sh
		v.Ones = v.Ones&^mask | bits
		v.Zeros = v.Zeros&^mask | (^bits & mask)
	}
	set(network.FieldSrc, pat.Src)
	set(network.FieldDst, pat.Dst)
	set(network.FieldTyp, pat.Typ)
	return v
}

// IsEmpty reports whether the vector matches no header.
func (v Vec) IsEmpty() bool {
	return (v.Ones|v.Zeros)&fullMask != fullMask
}

// Intersect returns the headers matched by both vectors.
func (v Vec) Intersect(w Vec) Vec {
	return Vec{Ones: v.Ones & w.Ones, Zeros: v.Zeros & w.Zeros}
}

// Contains reports whether every header in w is also in v.
func (v Vec) Contains(w Vec) bool {
	if w.IsEmpty() {
		return true
	}
	return v.Ones|w.Ones == v.Ones && v.Zeros|w.Zeros == v.Zeros
}

// Equal reports header-set equality of two non-empty vectors.
func (v Vec) Equal(w Vec) bool {
	if v.IsEmpty() || w.IsEmpty() {
		return v.IsEmpty() == w.IsEmpty()
	}
	return v.Ones == w.Ones && v.Zeros == w.Zeros
}

// Subtract returns v minus w as a union of disjoint vectors: for each
// fixed bit of w, the headers of v that differ there.
func (v Vec) Subtract(w Vec) Space {
	if v.IsEmpty() {
		return nil
	}
	if v.Intersect(w).IsEmpty() {
		return Space{v}
	}
	var out Space
	remaining := v
	for i := 0; i < Width; i++ {
		bit := uint64(1) << uint(i)
		wOne, wZero := w.Ones&bit != 0, w.Zeros&bit != 0
		if wOne && wZero {
			continue // wildcard in w: no split on this bit
		}
		// w fixes this bit; the part of remaining with the opposite value
		// escapes the subtraction.
		var escape Vec
		if wOne {
			escape = Vec{Ones: remaining.Ones &^ bit, Zeros: remaining.Zeros}
		} else {
			escape = Vec{Ones: remaining.Ones, Zeros: remaining.Zeros &^ bit}
		}
		if !escape.IsEmpty() {
			out = append(out, escape)
		}
		// Continue with the part that agrees with w on this bit.
		if wOne {
			remaining.Zeros &^= bit
		} else {
			remaining.Ones &^= bit
		}
		if remaining.IsEmpty() {
			break
		}
	}
	return out
}

func (v Vec) String() string {
	if v.IsEmpty() {
		return "<empty>"
	}
	var b strings.Builder
	for i := Width - 1; i >= 0; i-- {
		bit := uint64(1) << uint(i)
		one, zero := v.Ones&bit != 0, v.Zeros&bit != 0
		switch {
		case one && zero:
			b.WriteByte('x')
		case one:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Space is a union of ternary vectors (a header space).
type Space []Vec

// IsEmpty reports whether the space matches no header.
func (s Space) IsEmpty() bool {
	for _, v := range s {
		if !v.IsEmpty() {
			return false
		}
	}
	return true
}

// Intersect returns the space matched by both s and vector w.
func (s Space) Intersect(w Vec) Space {
	var out Space
	for _, v := range s {
		if iv := v.Intersect(w); !iv.IsEmpty() {
			out = append(out, iv)
		}
	}
	return out
}

// Subtract returns s minus vector w.
func (s Space) Subtract(w Vec) Space {
	var out Space
	for _, v := range s {
		out = append(out, v.Subtract(w)...)
	}
	return out
}

func (s Space) String() string {
	if len(s) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = v.String()
	}
	return strings.Join(parts, " + ")
}

var _ = fmt.Sprintf
