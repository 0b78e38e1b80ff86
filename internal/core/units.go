package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"netupdate/internal/config"
	"netupdate/internal/network"
)

// unit is one atomic update: at switch granularity, the replacement of a
// switch's whole table with its final table; at rule granularity, the
// insertion or removal of a single rule; in 2-simple mode, the
// installation of a merged (init+final) table followed by a finalize
// step.
type unit struct {
	id int
	sw int
	// switch granularity:
	newTable network.Table
	// rule granularity:
	isRule bool
	add    bool
	rule   network.Rule
	// requires is the id of a prerequisite unit (-1 if none): a finalize
	// step may only run after its merge step.
	requires int
	// rank orders candidates: lower ranks are tried first.
	rank int
}

func (u unit) String() string {
	if !u.isRule {
		return fmt.Sprintf("u%d:update(sw%d)", u.id, u.sw)
	}
	op := "del"
	if u.add {
		op = "add"
	}
	return fmt.Sprintf("u%d:%s(sw%d)", u.id, op, u.sw)
}

// lateRank offsets units that should be tried after every final-path
// switch: switches/rules present only in the initial configuration (their
// update removes forwarding state, which is safe only once upstream has
// been redirected).
const lateRank = 1_000_000

// computeUnits derives the update units from the configuration diff —
// diff lists the switches whose tables differ between the scenario's
// endpoints, ascending (config.Diff) — and assigns the destination-first
// search ranks (see engine.go). With twoSimple set (Options.TwoSimple),
// every switch-granularity update is split into a merge step (install the
// union of both generations) and a finalize step (install the final
// table), realizing the paper's "k-simple" generalization for k = 2: each
// switch may be touched twice, which recovers the power of
// rule-granularity add-before-delete orders while keeping whole-table
// commands. A whole-table unit installs the target's own table: a
// configuration's tables are immutable (config.Config), and nothing
// writes to a unit's. The units are appended to dst, which the session
// hands over from its pooled scratch. flows indexes sc.Specs (nil builds
// the index).
func computeUnits(dst []unit, sc *config.Scenario, diff []int, flows flowIndex, ruleGranularity, twoSimple bool) ([]unit, error) {
	rank := destinationRank(sc, diff, flows) // indexed like diff
	units := slices.Grow(dst[:0], len(diff))
	if !ruleGranularity && twoSimple {
		units = slices.Grow(units, 2*len(diff))
		for di, sw := range diff {
			merged := mergeTables(sc.Init.Table(sw), sc.Final.Table(sw))
			mergeID := len(units)
			units = append(units, unit{
				id: mergeID, sw: sw, newTable: merged,
				requires: -1, rank: rank[di],
			})
			units = append(units, unit{
				id: mergeID + 1, sw: sw, newTable: sc.Final.Table(sw),
				requires: mergeID, rank: lateRank + rank[di],
			})
		}
		return units, nil
	}
	if !ruleGranularity {
		for di, sw := range diff {
			units = append(units, unit{
				id:       len(units),
				sw:       sw,
				newTable: sc.Final.Table(sw),
				requires: -1,
				rank:     rank[di],
			})
		}
		return units, nil
	}
	for di, sw := range diff {
		removed, added := diffTables(sc.Init.Table(sw), sc.Final.Table(sw))
		for _, r := range added {
			units = append(units, unit{
				id: len(units), sw: sw, isRule: true, add: true, rule: r,
				requires: -1, rank: rank[di],
			})
		}
		for _, r := range removed {
			// Removals come after all additions: deleting a rule can only
			// break paths. Within removals, "flip" deletes (the switch
			// also gains a replacement rule for the same match, so the
			// delete redirects live traffic) come before pure dismantling
			// deletes of abandoned branches — grouping all flips before
			// all dismantles lets wait removal keep a single barrier
			// between the two phases.
			band := 2 * lateRank
			for _, a := range added {
				if a.Match == r.Match {
					band = lateRank
					break
				}
			}
			units = append(units, unit{
				id: len(units), sw: sw, isRule: true, add: false, rule: r,
				requires: -1, rank: band + rank[di],
			})
		}
	}
	return units, nil
}

// mergeTables unions two rule generations, keeping one copy of rules
// present in both.
func mergeTables(a, b network.Table) network.Table {
	out := a.Clone()
outer:
	for _, rb := range b {
		for _, ra := range a {
			if ra.Equal(rb) {
				continue outer
			}
		}
		out = append(out, rb)
	}
	return out
}

// diffTables returns rules only in a (removed) and only in b (added),
// multiset semantics.
func diffTables(a, b network.Table) (removed, added []network.Rule) {
	return appendDiff(nil, nil, a, b)
}

// appendDiff is diffTables appending to the given lists.
func appendDiff(removed, added []network.Rule, a, b network.Table) ([]network.Rule, []network.Rule) {
	var small [32]bool
	used := small[:]
	if len(b) > len(small) {
		used = make([]bool, len(b))
	}
outer:
	for _, ra := range a {
		for i, rb := range b {
			if !used[i] && ra.Equal(rb) {
				used[i] = true
				continue outer
			}
		}
		removed = append(removed, ra)
	}
	for i, rb := range b {
		if !used[i] {
			added = append(added, rb)
		}
	}
	return removed, added
}

// destinationRank ranks the diff's switches (the result is indexed like
// diff, which is ascending) by their distance from the end of the final
// forwarding paths: switches nearer the destinations get smaller ranks,
// encoding the classic enable-downstream-before-upstream order as a search
// heuristic (completeness is preserved by backtracking). A switch on no
// final path only loses state and ranks lateRank, after everything else.
//
// A class's final path can cross a switch only through a rule of the
// switch's final table that matches the class, so only the classes such
// rules of the diff switches match are traced, found through flows (nil
// builds it): a request pays for the rules on the switches its delta
// touched, not for every class of the tenant.
func destinationRank(sc *config.Scenario, diff []int, flows flowIndex) []int {
	rank := make([]int, len(diff))
	for i := range rank {
		rank[i] = lateRank
	}
	if flows == nil {
		flows = newFlowIndex(sc.Specs)
	}
	var buf [64]int
	classes := buf[:0]
	for _, sw := range diff {
		for _, r := range sc.Final.Table(sw) {
			classes = flows.appendMatching(classes, r.Match)
		}
	}
	slices.Sort(classes)
	for _, ci := range slices.Compact(classes) {
		path, err := config.PathOf(sc.Final, sc.Topo, sc.Specs[ci].Class)
		if err != nil {
			continue // validated earlier; be permissive here
		}
		for i, sw := range path {
			if di, ok := slices.BinarySearch(diff, sw); ok {
				rank[di] = min(rank[di], len(path)-1-i)
			}
		}
	}
	return rank
}

// flowIndex is a session's classes sorted by flow (source, then
// destination host, then spec index), so the classes a rule matches are
// found without a pass over every class: the affected classes of a
// request's changed rules, and the classes destinationRank traces.
type flowIndex []flowClass

type flowClass struct{ src, dst, ci int }

func newFlowIndex(specs []config.ClassSpec) flowIndex {
	ix := make(flowIndex, len(specs))
	for ci, cs := range specs {
		ix[ci] = flowClass{cs.Class.SrcHost, cs.Class.DstHost, ci}
	}
	slices.SortFunc(ix, func(a, b flowClass) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.ci, b.ci))
	})
	return ix
}

// appendMatching appends the spec indexes of the classes whose packet pat
// matches on some in-port (headerMatches). A pattern that fixes both hosts
// is looked up; one that leaves either open is tried on every class.
func (ix flowIndex) appendMatching(dst []int, pat network.Pattern) []int {
	from, to := 0, len(ix)
	if pat.Src != network.Wildcard && pat.Dst != network.Wildcard {
		from = sort.Search(len(ix), func(i int) bool {
			return ix[i].src > pat.Src || ix[i].src == pat.Src && ix[i].dst >= pat.Dst
		})
		to = from
		for to < len(ix) && ix[to].src == pat.Src && ix[to].dst == pat.Dst {
			to++
		}
	}
	for _, f := range ix[from:to] {
		if headerMatches(pat, network.Packet{Src: f.src, Dst: f.dst}) {
			dst = append(dst, f.ci)
		}
	}
	return dst
}

// orderUnits appends to dst the unit indexes sorted by rank, stable on
// id (a unit's id is its index).
func orderUnits(dst []int, units []unit) []int {
	for i := range units {
		dst = append(dst, i)
	}
	slices.SortStableFunc(dst, func(a, b int) int { return cmp.Compare(units[a].rank, units[b].rank) })
	return dst
}

// bitset is a fixed-capacity bitmask over unit ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) bitset {
	c := make(bitset, len(b))
	copy(c, b)
	c[i>>6] |= 1 << (uint(i) & 63)
	return c
}

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// key renders the bitmask as a comparable string in one allocation (the
// Builder hands its buffer to the string without a second copy). The hot
// paths use hash/equal (see visited.go) and never call this; it remains
// for debugging and tests.
func (b bitset) key() string {
	var sb strings.Builder
	sb.Grow(8 * len(b))
	for _, w := range b {
		for j := 0; j < 8; j++ {
			sb.WriteByte(byte(w >> (8 * uint(j))))
		}
	}
	return sb.String()
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// matchesPattern reports whether the configuration bitmask agrees with
// the wrong-configuration pattern: every relevant unit has the recorded
// applied/unapplied flag.
func (b bitset) matchesPattern(relevant, value bitset) bool {
	for i := range b {
		if b[i]&relevant[i] != value[i] {
			return false
		}
	}
	return true
}
