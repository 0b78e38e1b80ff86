// Package twophase implements the consistent-update baselines of the
// paper's Overview (Section 2): the two-phase update of Reitblatt et al.
// [SIGCOMM 2012], which tags packets with a version at ingress and keeps
// both rule generations installed during the transition, and the naive
// update, which pushes final tables immediately in an arbitrary (bad)
// order. Both are used by the Figure 2 experiments: probe loss over time
// (2a) and per-switch rule overhead (2b).
package twophase

import (
	"sort"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// VersionNew is the version tag carried in the packet Typ field. The
// initial configuration forwards untagged (Typ 0) traffic; the two-phase
// update installs VersionNew rules alongside, then flips ingress switches
// to tag traffic.
const VersionNew = 2

// tagPriorityBoost lifts tagged rules above the untagged generation.
const tagPriorityBoost = 100

// Plan is a two-phase update schedule plus bookkeeping for the rule-
// overhead experiment.
type Plan struct {
	Commands []network.Command
	// PeakRules is the maximum number of rules simultaneously installed
	// on each switch during the update.
	PeakRules map[int]int
	// FinalRules is the steady-state rule count per switch afterwards.
	FinalRules map[int]int
}

// Build constructs the two-phase schedule for a scenario:
//
//	phase 1: on every switch, install the final rules tagged VersionNew
//	         alongside the initial rules;
//	phase 2: flip each class's ingress switch to tag packets and send
//	         them into the new configuration;
//	wait:    flush in-flight untagged packets;
//	phase 3: delete the old generation everywhere.
func Build(sc *config.Scenario) *Plan {
	topo := sc.Topo
	// Ingress switch per class.
	ingress := map[int][]config.ClassSpec{}
	for _, cs := range sc.Specs {
		h, ok := topo.HostByID(cs.Class.SrcHost)
		if !ok {
			continue
		}
		ingress[h.Switch] = append(ingress[h.Switch], cs)
	}
	// The switches that carry any rules in either configuration.
	swSet := map[int]bool{}
	for _, sw := range sc.Init.Switches() {
		swSet[sw] = true
	}
	for _, sw := range sc.Final.Switches() {
		swSet[sw] = true
	}
	var switches []int
	for sw := range swSet {
		switches = append(switches, sw)
	}
	sort.Ints(switches)

	p := &Plan{PeakRules: map[int]int{}, FinalRules: map[int]int{}}
	phase1 := map[int]network.Table{}
	for _, sw := range switches {
		tagged := tagTable(sc.Final.Table(sw))
		tbl := append(sc.Init.Table(sw).Clone(), tagged...)
		phase1[sw] = tbl
	}
	// Phase 1 ordering is irrelevant (tagged rules are inert until some
	// ingress tags packets); emit ascending for determinism. Ingress
	// switches flip in phase 2 instead.
	for _, sw := range switches {
		if _, isIngress := ingress[sw]; isIngress {
			continue
		}
		p.Commands = append(p.Commands, network.Update(sw, phase1[sw]))
	}
	// Phase 2: ingress switches get the phase-1 rules plus tagging rules
	// that replace their untagged class rules. Sort for determinism.
	var ingressSw []int
	for sw := range ingress {
		ingressSw = append(ingressSw, sw)
	}
	sort.Ints(ingressSw)
	for _, sw := range ingressSw {
		tbl := phase1[sw].Clone()
		for _, cs := range ingress[sw] {
			tbl = retagIngress(tbl, cs.Class, sc.Final, sw)
		}
		phase1[sw] = tbl
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	p.Commands = append(p.Commands, network.Wait()...)
	// Phase 3: drop the old generation.
	finalTables := map[int]network.Table{}
	for _, sw := range switches {
		tbl := tagTable(sc.Final.Table(sw))
		if specs, isIngress := ingress[sw]; isIngress {
			for _, cs := range specs {
				tbl = retagIngress(tbl, cs.Class, sc.Final, sw)
			}
		}
		finalTables[sw] = tbl
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	for _, sw := range switches {
		p.PeakRules[sw] = max(len(phase1[sw]), max(len(sc.Init.Table(sw)), len(finalTables[sw])))
		p.FinalRules[sw] = len(finalTables[sw])
	}
	return p
}

// BuildScoped constructs a two-phase schedule confined to the switches
// where base and target differ plus the ingress switches of the given
// classes (the "stuck component" of a repair). Unlike Build, whose final
// phase keeps only the tagged generation, BuildScoped ends with exactly
// the target tables — tags are garbage-collected — so the schedule can
// be spliced into a larger careful plan:
//
//	phase 1: on every touched switch, install the target rules tagged
//	         VersionNew alongside the base rules;
//	phase 2: flip each class's ingress switch to tag packets into the
//	         new configuration;
//	wait:    flush in-flight untagged packets;
//	phase 3: swap the untagged generation to the target rules (inert:
//	         component traffic is tagged, other classes' rules are
//	         identical in base and target);
//	phase 4: un-tag ingress — new packets travel the target rules
//	         untagged;
//	wait:    flush in-flight tagged packets;
//	phase 5: drop the tagged generation, leaving exactly target.
//
// Classes outside the component are untouched throughout: their rules on
// scoped switches are identical in base and target, and tagged rules
// never match untagged traffic. Tagged component packets crossing
// unscoped switches forward correctly because class patterns leave the
// version field wildcarded.
func BuildScoped(topo *topology.Topology, base, target *config.Config, specs []config.ClassSpec) *Plan {
	diff := config.Diff(base, target)
	p := &Plan{PeakRules: map[int]int{}, FinalRules: map[int]int{}}
	if len(diff) == 0 {
		return p
	}
	ingress := map[int][]config.ClassSpec{}
	for _, cs := range specs {
		h, ok := topo.HostByID(cs.Class.SrcHost)
		if !ok {
			continue
		}
		ingress[h.Switch] = append(ingress[h.Switch], cs)
	}
	swSet := map[int]bool{}
	for _, sw := range diff {
		swSet[sw] = true
	}
	for sw := range ingress {
		swSet[sw] = true
	}
	var switches []int
	for sw := range swSet {
		switches = append(switches, sw)
	}
	sort.Ints(switches)
	var ingressSw []int
	for sw := range ingress {
		ingressSw = append(ingressSw, sw)
	}
	sort.Ints(ingressSw)

	tagged := map[int]network.Table{}
	for _, sw := range switches {
		tagged[sw] = tagTable(target.Table(sw))
	}
	peak := func(sw int, tbl network.Table) {
		if len(tbl) > p.PeakRules[sw] {
			p.PeakRules[sw] = len(tbl)
		}
	}
	for _, sw := range switches {
		peak(sw, base.Table(sw))
	}
	// Phase 1: base + tagged target, everywhere touched.
	for _, sw := range switches {
		tbl := append(base.Table(sw).Clone(), tagged[sw]...)
		peak(sw, tbl)
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	// Phase 2: flip ingress to tag.
	for _, sw := range ingressSw {
		tbl := append(base.Table(sw).Clone(), tagged[sw]...)
		for _, cs := range ingress[sw] {
			tbl = retagIngress(tbl, cs.Class, target, sw)
		}
		peak(sw, tbl)
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	p.Commands = append(p.Commands, network.Wait()...)
	// Phase 3: swap the untagged generation to target (retag preserved at
	// ingress so component traffic stays on the tagged path meanwhile).
	for _, sw := range switches {
		tbl := append(target.Table(sw).Clone(), tagged[sw]...)
		if specsAt, ok := ingress[sw]; ok {
			for _, cs := range specsAt {
				tbl = retagIngress(tbl, cs.Class, target, sw)
			}
		}
		peak(sw, tbl)
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	// Phase 4: un-tag ingress; new packets take the target rules directly.
	for _, sw := range ingressSw {
		tbl := append(target.Table(sw).Clone(), tagged[sw]...)
		peak(sw, tbl)
		p.Commands = append(p.Commands, network.Update(sw, tbl))
	}
	p.Commands = append(p.Commands, network.Wait()...)
	// Phase 5: garbage-collect the tagged generation.
	for _, sw := range switches {
		tbl := target.Table(sw).Clone()
		peak(sw, tbl)
		p.Commands = append(p.Commands, network.Update(sw, tbl))
		p.FinalRules[sw] = len(tbl)
	}
	return p
}

// tagTable rewrites rules to match only VersionNew-tagged packets, at
// boosted priority.
func tagTable(t network.Table) network.Table {
	out := make(network.Table, 0, len(t))
	for _, r := range t {
		nr := r
		nr.Priority += tagPriorityBoost
		nr.Match.Typ = VersionNew
		nr.Actions = append([]network.Action(nil), r.Actions...)
		out = append(out, nr)
	}
	return out
}

// retagIngress replaces the class's untagged rule on the ingress switch
// with a rule that stamps VersionNew on the packet and forwards it along
// the final path.
func retagIngress(tbl network.Table, cl config.Class, final *config.Config, sw int) network.Table {
	pat := cl.Pattern()
	var finalRule *network.Rule
	for _, r := range final.Table(sw) {
		if r.Match == pat {
			r := r
			finalRule = &r
			break
		}
	}
	out := make(network.Table, 0, len(tbl))
	for _, r := range tbl {
		if r.Match == pat {
			continue // drop the untagged generation's ingress rule
		}
		out = append(out, r)
	}
	if finalRule == nil {
		return out
	}
	acts := []network.Action{network.SetField(network.FieldTyp, VersionNew)}
	acts = append(acts, finalRule.Actions...)
	return append(out, network.Rule{
		Priority: finalRule.Priority,
		Match:    pat,
		Actions:  acts,
	})
}

// Naive returns the "naive update" of the Overview: the final tables are
// pushed immediately, one switch at a time, with no synchronization and
// in an order chosen upstream-first — the order that maximizes transient
// disruption (Figure 2a's blue line uses A1 before C2).
func Naive(sc *config.Scenario) []network.Command {
	diff := config.Diff(sc.Init, sc.Final)
	// Upstream-first: reverse of the destination-first safe order — rank
	// switches by position in the final paths and update sources first.
	pos := map[int]int{}
	for _, cs := range sc.Specs {
		if path, err := config.PathOf(sc.Final, sc.Topo, cs.Class); err == nil {
			for i, sw := range path {
				if old, ok := pos[sw]; !ok || i < old {
					pos[sw] = i
				}
			}
		}
	}
	sort.SliceStable(diff, func(a, b int) bool { return pos[diff[a]] < pos[diff[b]] })
	var cmds []network.Command
	for _, sw := range diff {
		cmds = append(cmds, network.Update(sw, sc.Final.Table(sw)))
	}
	return cmds
}

// OrderingPeaks computes the per-switch peak and final rule counts for an
// ordering-update plan's command sequence, for the Figure 2(b)
// comparison.
func OrderingPeaks(init *config.Config, cmds []network.Command) (peak, final map[int]int) {
	peak = map[int]int{}
	final = map[int]int{}
	cur := map[int]int{}
	for _, sw := range init.Switches() {
		cur[sw] = len(init.Table(sw))
		peak[sw] = cur[sw]
	}
	for _, c := range cmds {
		if c.Kind != network.CmdUpdate {
			continue
		}
		cur[c.Switch] = len(c.Table)
		if cur[c.Switch] > peak[c.Switch] {
			peak[c.Switch] = cur[c.Switch]
		}
	}
	for sw, n := range cur {
		final[sw] = n
	}
	return
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
