// Package network implements the paper's operational network model
// (Section 3, Figure 3): packets, prioritized forwarding tables, switches,
// links, hosts, a controller executing update/incr/flush commands, and the
// small-step Chemical-Abstract-Machine semantics that drives both the
// formal tests and the discrete-event simulator.
package network

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"netupdate/internal/topology"
)

// FieldID identifies a packet header field.
type FieldID uint8

// Packet header fields. The model fixes a small set of representative
// header fields; the paper's model is generic over fields f1..fk.
const (
	FieldSrc FieldID = iota
	FieldDst
	FieldTyp
	NumFields
)

func (f FieldID) String() string {
	switch f {
	case FieldSrc:
		return "src"
	case FieldDst:
		return "dst"
	case FieldTyp:
		return "typ"
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// FieldByName maps a field name to its id.
func FieldByName(name string) (FieldID, bool) {
	switch name {
	case "src":
		return FieldSrc, true
	case "dst":
		return FieldDst, true
	case "typ":
		return FieldTyp, true
	}
	return 0, false
}

// Packet is a record of header field values.
type Packet struct {
	Src, Dst, Typ int
}

// Field projects a header field.
func (p Packet) Field(f FieldID) int {
	switch f {
	case FieldSrc:
		return p.Src
	case FieldDst:
		return p.Dst
	case FieldTyp:
		return p.Typ
	}
	panic(fmt.Sprintf("network: bad field %d", f))
}

// WithField returns a copy of p with field f set to v (the paper's
// {r with f = v} functional update).
func (p Packet) WithField(f FieldID, v int) Packet {
	switch f {
	case FieldSrc:
		p.Src = v
	case FieldDst:
		p.Dst = v
	case FieldTyp:
		p.Typ = v
	default:
		panic(fmt.Sprintf("network: bad field %d", f))
	}
	return p
}

func (p Packet) String() string {
	return fmt.Sprintf("{src=%d dst=%d typ=%d}", p.Src, p.Dst, p.Typ)
}

// Wildcard marks a pattern field as unconstrained.
const Wildcard = -1

// Pattern is a record of optional header fields plus an optional ingress
// port. A zero port means "any port"; Wildcard (-1) in a header field
// means "any value".
type Pattern struct {
	InPort topology.Port // 0 = any
	Src    int
	Dst    int
	Typ    int
}

// AnyPacket is the fully wildcarded pattern.
func AnyPacket() Pattern {
	return Pattern{Src: Wildcard, Dst: Wildcard, Typ: Wildcard}
}

// MatchFlow returns a pattern matching packets with the given src and dst.
func MatchFlow(src, dst int) Pattern {
	return Pattern{Src: src, Dst: dst, Typ: Wildcard}
}

// Matches reports whether the pattern matches a packet arriving on port pt.
func (pat Pattern) Matches(pkt Packet, pt topology.Port) bool {
	if pat.InPort != 0 && pat.InPort != pt {
		return false
	}
	if pat.Src != Wildcard && pat.Src != pkt.Src {
		return false
	}
	if pat.Dst != Wildcard && pat.Dst != pkt.Dst {
		return false
	}
	if pat.Typ != Wildcard && pat.Typ != pkt.Typ {
		return false
	}
	return true
}

func (pat Pattern) String() string {
	var parts []string
	if pat.InPort != 0 {
		parts = append(parts, fmt.Sprintf("pt=%d", pat.InPort))
	}
	for f, v := range map[string]int{"src": pat.Src, "dst": pat.Dst, "typ": pat.Typ} {
		if v != Wildcard {
			parts = append(parts, fmt.Sprintf("%s=%d", f, v))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}

// ActionKind discriminates forwarding from field modification.
type ActionKind uint8

// Action kinds.
const (
	ActForward ActionKind = iota
	ActSetField
)

// Action is either "fwd pt" or "f := n".
type Action struct {
	Kind  ActionKind
	Port  topology.Port // for ActForward
	Field FieldID       // for ActSetField
	Value int           // for ActSetField
}

// Forward returns the action "fwd pt".
func Forward(pt topology.Port) Action { return Action{Kind: ActForward, Port: pt} }

// SetField returns the action "f := v".
func SetField(f FieldID, v int) Action {
	return Action{Kind: ActSetField, Field: f, Value: v}
}

func (a Action) String() string {
	if a.Kind == ActForward {
		return fmt.Sprintf("fwd %d", a.Port)
	}
	return fmt.Sprintf("%s:=%d", a.Field, a.Value)
}

// Rule is a prioritized forwarding rule. Higher priority wins.
type Rule struct {
	Priority int
	Match    Pattern
	Actions  []Action
}

func (r Rule) String() string {
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("[%d] %s -> %s", r.Priority, r.Match, strings.Join(acts, "; "))
}

// Equal compares rules structurally.
func (r Rule) Equal(q Rule) bool {
	return r.Priority == q.Priority && r.Match == q.Match && slices.Equal(r.Actions, q.Actions)
}

// Table is a forwarding table: a set of prioritized rules.
type Table []Rule

// PortPacket is an output pair (packet, port) produced by table
// application.
type PortPacket struct {
	Pkt  Packet
	Port topology.Port
}

// Apply implements the semantic function [[tbl]]: it finds the
// highest-priority rule matching (pkt, pt) and applies its actions,
// producing the multiset of output (packet, port) pairs. If no rule
// matches, the packet is dropped (empty result). Ties between rules of
// equal priority are broken by table order, a deterministic refinement of
// the paper's "free to pick any".
func (t Table) Apply(pkt Packet, pt topology.Port) []PortPacket {
	return t.AppendApply(nil, pkt, pt)
}

// AppendApply is Apply appending into dst, so hot paths (the Kripke
// transition recomputation runs once per arrival state per candidate
// update) can reuse a scratch buffer instead of allocating per call.
func (t Table) AppendApply(dst []PortPacket, pkt Packet, pt topology.Port) []PortPacket {
	best := -1
	for i, r := range t {
		if !r.Match.Matches(pkt, pt) {
			continue
		}
		if best == -1 || r.Priority > t[best].Priority {
			best = i
		}
	}
	if best == -1 {
		return dst
	}
	cur := pkt
	for _, a := range t[best].Actions {
		switch a.Kind {
		case ActSetField:
			cur = cur.WithField(a.Field, a.Value)
		case ActForward:
			dst = append(dst, PortPacket{Pkt: cur, Port: a.Port})
		}
	}
	return dst
}

// Canonical returns a copy of the table sorted by descending priority,
// then pattern and action order; two tables with the same canonical form
// are semantically identical under deterministic tie-breaking.
func (t Table) Canonical() Table {
	c := make(Table, len(t))
	copy(c, t)
	slices.SortStableFunc(c, compareRules)
	return c
}

// compareRules is a total order on rules: descending priority, then
// pattern fields, then actions. Field-by-field comparison keeps Canonical
// (and hence Equal, which runs on every configuration diff) free of the
// per-comparison string formatting it previously paid.
func compareRules(a, b Rule) int {
	if a.Priority != b.Priority {
		if a.Priority > b.Priority {
			return -1 // higher priority sorts first
		}
		return 1
	}
	if c := cmp.Compare(a.Match.InPort, b.Match.InPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Match.Src, b.Match.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Match.Dst, b.Match.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Match.Typ, b.Match.Typ); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Actions), len(b.Actions)); c != 0 {
		return c
	}
	for i := range a.Actions {
		x, y := a.Actions[i], b.Actions[i]
		if c := cmp.Compare(x.Kind, y.Kind); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Port, y.Port); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Field, y.Field); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Value, y.Value); c != 0 {
			return c
		}
	}
	return 0
}

// Equal reports whether two tables have identical canonical forms, which
// is whether they hold the same rules, each as often, in any order. A
// configuration diff asks this of the switches a delta touched, and
// nearly always of two tables that hold the same rules in the same order,
// a different number of them, or a handful of which one was replaced: all
// are answered without sorting or copying either table.
func (t Table) Equal(u Table) bool {
	if len(t) != len(u) {
		return false
	}
	if equalInOrder(t, u) {
		return true
	}
	if len(t) > 64 {
		return equalInOrder(t.Canonical(), u.Canonical())
	}
	var used uint64 // rules of u already paired with one of t
pairing:
	for _, r := range t {
		for j, q := range u {
			if used&(1<<j) == 0 && r.Equal(q) {
				used |= 1 << j
				continue pairing
			}
		}
		return false
	}
	return true
}

// equalInOrder compares two tables of one length rule by rule.
func equalInOrder(a, b Table) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Same reports whether t and u are the same slice. An installed table is
// never edited in place (see config.Config), so the same slice means equal
// contents: the ordering analysis' memo keys on it.
func (t Table) Same(u Table) bool {
	return len(t) == len(u) && (len(t) == 0 || &t[0] == &u[0])
}

// Digest returns the SHA-256 of the table's canonical form
// (AppendCanonical): tables that are Equal have one digest, whatever order
// their rules were inserted in.
func (t Table) Digest() [sha256.Size]byte {
	var stack [512]byte // dozens of rules; longer tables spill to the heap
	return sha256.Sum256(t.AppendCanonical(stack[:0]))
}

// AppendCanonical appends the table's canonical form to dst: the rule
// count, then every field of every rule in Canonical order, each as a
// varint. It is a prefix code — no table's form is a prefix of another's
// — so tables that are not Equal encode distinctly, alone or in sequence,
// and a rule of small numbers takes about a dozen bytes. A table of up to
// 16 rules out of order is ordered through indexes on the stack, without
// a sorted copy.
func (t Table) AppendCanonical(dst []byte) []byte {
	sorted := true
	for i := 1; i < len(t) && sorted; i++ {
		sorted = compareRules(t[i-1], t[i]) <= 0
	}
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	switch {
	case sorted:
		for i := range t {
			dst = appendRule(dst, &t[i])
		}
	case len(t) <= 16:
		var idx [16]uint8
		for i := range t { // insertion sort: stable, as Canonical is
			j := i
			for ; j > 0 && compareRules(t[idx[j-1]], t[i]) > 0; j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = uint8(i)
		}
		for _, i := range idx[:len(t)] {
			dst = appendRule(dst, &t[i])
		}
	default:
		c := t.Canonical()
		for i := range c {
			dst = appendRule(dst, &c[i])
		}
	}
	return dst
}

func appendRule(dst []byte, r *Rule) []byte {
	dst = appendVarint(dst, r.Priority)
	dst = appendVarint(dst, int(r.Match.InPort))
	dst = appendVarint(dst, r.Match.Src)
	dst = appendVarint(dst, r.Match.Dst)
	dst = appendVarint(dst, r.Match.Typ)
	dst = appendVarint(dst, len(r.Actions))
	for _, a := range r.Actions {
		dst = appendVarint(dst, int(a.Kind))
		dst = appendVarint(dst, int(a.Port))
		dst = appendVarint(dst, int(a.Field))
		dst = appendVarint(dst, a.Value)
	}
	return dst
}

// appendVarint is binary.AppendVarint with the one-byte case inline.
func appendVarint(dst []byte, v int) []byte {
	if u := uint64(v)<<1 ^ uint64(v>>63); u < 0x80 {
		return append(dst, byte(u))
	}
	return binary.AppendVarint(dst, int64(v))
}

// Clone returns a deep copy of the table.
func (t Table) Clone() Table {
	c := make(Table, len(t))
	for i, r := range t {
		c[i] = r
		c[i].Actions = append([]Action(nil), r.Actions...)
	}
	return c
}

func (t Table) String() string {
	var b strings.Builder
	for i, r := range t {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(r.String())
	}
	return b.String()
}
