package hsa

import (
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
)

// Checker adapts the plumbing-graph engine to the synthesis backend
// interface. Like NetPlumber, it maintains reachability bookkeeping
// incrementally across rule insertions/removals but reports only pass or
// fail — no counterexamples — so the synthesizer cannot learn wrong-
// configuration patterns from it (Section 6 notes the same limitation).
type Checker struct {
	k     *kripke.K
	p     *Plumber
	spec  *ltl.Formula
	stats mc.Stats
}

// New builds the checker over the class structure's current tables.
func New(k *kripke.K, spec *ltl.Formula) (mc.Checker, error) {
	return &Checker{k: k, p: plumberFor(k), spec: spec}, nil
}

// plumberFor builds a plumbing graph over the tables currently installed
// in the class structure.
func plumberFor(k *kripke.K) *Plumber {
	tables := map[int]network.Table{}
	for sw := 0; sw < k.Topo.NumSwitches(); sw++ {
		if tbl := k.Table(sw); len(tbl) > 0 {
			tables[sw] = tbl
		}
	}
	return NewPlumber(k.Topo, tables, FromPacket(k.Class.Packet()))
}

// Rebind implements mc.Checker by rebuilding the plumbing graph from
// the structure's current tables: the header-space engine's bookkeeping
// is incremental over individual rule operations and cannot absorb an
// arbitrary in-place rebind any cheaper than a rebuild.
func (c *Checker) Rebind(rewired []int) { c.p = plumberFor(c.k) }

// MemoMark implements mc.Checker: the plumbing graph is state, not a
// memo, so there is nothing to mark.
func (c *Checker) MemoMark() int { return 0 }

// ForgetMemo implements mc.Checker: nothing to forget.
func (c *Checker) ForgetMemo(mark int) {}

// Name implements mc.Checker.
func (c *Checker) Name() string { return "netplumber-like" }

// Check implements mc.Checker: every maximal flow path must satisfy the
// specification, and no flow may loop.
func (c *Checker) Check() mc.Verdict {
	c.stats.Checks++
	if c.p.HasLoop() {
		return mc.Verdict{OK: false}
	}
	for _, t := range c.p.Terminals() {
		c.stats.StatesLabeled += len(t.Switches)
		if !c.pathSatisfies(t) {
			return mc.Verdict{OK: false}
		}
	}
	return mc.Verdict{OK: true}
}

// pathSatisfies evaluates the spec over one flow path using the standard
// finite-trace semantics (final state repeats).
func (c *Checker) pathSatisfies(t PathTerminal) bool {
	env := make([]ltl.Env, len(t.Switches))
	pkt := c.k.Class.Packet()
	for i := range t.Switches {
		sw, pt := t.Switches[i], t.InPorts[i]
		env[i] = ltl.EnvFunc(func(p ltl.Prop) bool {
			switch p.Field {
			case ltl.FieldSwitch:
				return sw == p.Value
			case ltl.FieldPort:
				return int(pt) == p.Value
			default:
				if f, ok := network.FieldByName(p.Field); ok {
					return pkt.Field(f) == p.Value
				}
				return false
			}
		})
	}
	return c.spec.EvalTrace(env)
}

// ruleOps records the rule operations one Update applied on one switch;
// an Update's token lists them per switch of its delta, for Revert.
type ruleOps struct {
	sw      int
	added   []network.Rule
	removed []network.Rule
}

// Update implements mc.Checker: translate the update of each of the
// delta's switches into rule insertions/removals (NetPlumber's native
// operations) and re-check. The diff base is the plumbing graph's own
// rules for the switch, not the table the delta replaced: the engine does
// not report an update that changed no transition of the class (see
// mc.Checker), so the graph may be one or more tables behind the
// structure on this switch. Behind by such updates it forwards the class
// identically — the class header space is a single packet — and diffing
// against its own rules brings it level whenever the switch is next
// reported; Revert then returns it to the rules it had.
func (c *Checker) Update(delta *kripke.Delta) (mc.Verdict, mc.Token) {
	tok := make([]ruleOps, delta.NumSwitches())
	for i := range tok {
		sw := delta.SwitchAt(i)
		removed, added := diffRules(c.p.Rules(sw), c.k.Table(sw))
		for _, r := range removed {
			c.p.RemoveRule(sw, r)
		}
		for _, r := range added {
			c.p.AddRule(sw, r)
		}
		tok[i] = ruleOps{sw: sw, added: added, removed: removed}
	}
	return c.Check(), tok
}

// Revert implements mc.Checker by applying the inverse rule operations.
func (c *Checker) Revert(t mc.Token) {
	for _, ops := range t.([]ruleOps) {
		for _, r := range ops.added {
			c.p.RemoveRule(ops.sw, r)
		}
		for _, r := range ops.removed {
			c.p.AddRule(ops.sw, r)
		}
	}
}

// Commit implements mc.Checker: the rule operations stay applied.
func (c *Checker) Commit(t mc.Token) {}

// Stats implements mc.Checker.
func (c *Checker) Stats() mc.Stats { return c.stats }

// diffRules returns the rules present in a but not b, and in b but not a
// (multiset semantics).
func diffRules(a, b network.Table) (onlyA, onlyB []network.Rule) {
	used := make([]bool, len(b))
outer:
	for _, ra := range a {
		for i, rb := range b {
			if !used[i] && rulesEqual(ra, rb) {
				used[i] = true
				continue outer
			}
		}
		onlyA = append(onlyA, ra)
	}
	for i, rb := range b {
		if !used[i] {
			onlyB = append(onlyB, rb)
		}
	}
	return
}
