package sim

import (
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
)

// specsHold checks a static configuration against every class spec.
func specsHold(sc *config.Scenario, cfg *config.Config) bool {
	for _, cs := range sc.Specs {
		k, err := kripke.Build(sc.Topo, cfg, cs.Class)
		if err != nil {
			return false
		}
		chk, err := mc.NewIncremental(k, cs.Formula)
		if err != nil {
			return false
		}
		if !chk.Check().OK {
			return false
		}
	}
	return true
}

// TestFaultCrashThenRepairRecovers is the end-to-end failure story: the
// DAG executor runs a synthesized plan, a switch crashes mid-update, the
// executor stalls and reports the exact committed set (generally NOT a
// sequential prefix — independent DAG branches race ahead), and
// Session.Repair resynthesizes from precisely that state. The repair
// plan must be spec-consistent at every intermediate configuration, land
// on the original target, and execute to completion on the recovered
// network with zero probe loss.
func TestFaultCrashThenRepairRecovers(t *testing.T) {
	sc := config.Fig1RedBlueWaypoint()
	stalls := 0
	base, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := base.Updates()
	for k := 1; k < len(ups); k++ {
		sess, err := core.NewSession(sc.Topo, sc.Init, sc.Specs, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sess.Synthesize(sc.Final)
		if err != nil {
			t.Fatal(err)
		}
		p := faultParams()
		p.Faults = &Faults{Seed: int64(k), Crash: &Crash{Switch: ups[k].Switch, AtCommit: k}}
		res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
		if !res.Stalled {
			// The racing executor had already committed this node when the
			// crash fired; nothing to repair on this schedule.
			continue
		}
		stalls++
		for _, j := range res.Committed {
			if plan.Updates()[j].Switch == ups[k].Switch {
				t.Fatalf("k=%d: node %d on the crashed switch reported committed", k, j)
			}
		}
		rep, err := sess.Repair(res.Committed, nil)
		if err != nil {
			t.Fatalf("k=%d: repair from committed %v: %v", k, res.Committed, err)
		}
		crash := sc.Init.Clone()
		for _, j := range res.Committed {
			u := plan.Updates()[j]
			crash.SetTable(u.Switch, u.Table.Clone())
		}
		cfgs := rep.Configs(crash)
		for i, cfg := range cfgs {
			if !specsHold(sc, cfg) {
				t.Fatalf("k=%d: repair state %d violates the spec", k, i)
			}
		}
		if d := config.Diff(cfgs[len(cfgs)-1], sc.Final); len(d) != 0 {
			t.Fatalf("k=%d: repair plan misses final on %v", k, d)
		}
		// The switch is back: the repair plan must execute cleanly from the
		// crash state, decentralized, with zero probe loss.
		clean := faultParams()
		res2 := RunPlanDAG(sc.Topo, crash, rep, classes(sc), clean)
		if res2.Stalled {
			t.Fatalf("k=%d: repair plan stalled on a healthy network; committed %v", k, res2.Committed)
		}
		if res2.Lost != 0 {
			t.Fatalf("k=%d: repair execution lost %d probes", k, res2.Lost)
		}
		if len(res2.Committed) != len(rep.Updates()) {
			t.Fatalf("k=%d: repair execution committed %v of %d", k, res2.Committed, len(rep.Updates()))
		}
	}
	if stalls == 0 {
		t.Fatal("no crash schedule ever stalled the executor; the scenario exercises nothing")
	}
}
