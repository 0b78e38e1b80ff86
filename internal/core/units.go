package core

import (
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
// writes to a unit's.
func computeUnits(sc *config.Scenario, diff []int, ruleGranularity, twoSimple bool) ([]unit, error) {
	rank := destinationRank(sc, diff) // indexed like diff
	if !ruleGranularity && twoSimple {
		units := make([]unit, 0, 2*len(diff))
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
		units := make([]unit, 0, len(diff))
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
	var units []unit
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
	used := make([]bool, len(b))
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
	return
}

// destinationRank ranks the diff's switches (the result is indexed like
// diff, which is ascending) by their distance from the end of the final
// forwarding paths: switches nearer the destinations get smaller ranks,
// encoding the classic enable-downstream-before-upstream order as a search
// heuristic (completeness is preserved by backtracking). A switch on no
// final path only loses state and ranks lateRank, after everything else.
//
// A class's final path can cross a switch only through a rule of the
// switch's final table that matches the class, so only the classes some
// such rule of a diff switch matches are traced: a request pays for the
// paths its delta moved, not for every class of the tenant.
func destinationRank(sc *config.Scenario, diff []int) []int {
	rank := make([]int, len(diff))
	for i := range rank {
		rank[i] = lateRank
	}
	for _, cs := range sc.Specs {
		if !crossesAny(sc.Final, diff, cs.Class.Packet()) {
			continue
		}
		path, err := config.PathOf(sc.Final, sc.Topo, cs.Class)
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

// crossesAny reports whether some rule cfg holds on one of the switches
// matches pkt (on any in-port).
func crossesAny(cfg *config.Config, switches []int, pkt network.Packet) bool {
	for _, sw := range switches {
		for _, r := range cfg.Table(sw) {
			if headerMatches(r.Match, pkt) {
				return true
			}
		}
	}
	return false
}

// orderUnits returns unit indexes sorted by rank (stable on id).
func orderUnits(units []unit) []int {
	idx := make([]int, len(units))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if units[idx[a]].rank != units[idx[b]].rank {
			return units[idx[a]].rank < units[idx[b]].rank
		}
		return units[idx[a]].id < units[idx[b]].id
	})
	return idx
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
