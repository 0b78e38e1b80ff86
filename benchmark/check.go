package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"netupdate"
	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/network"
	"netupdate/internal/server"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
)

// Answer checking. Every returned plan is checked structurally (it
// updates exactly the switches that differ, once each, and ends at the
// target); a deterministic sample is additionally replayed configuration
// by configuration through netupdate.Verify, which rebuilds the Kripke
// structure and checker from scratch for each one and so shares no warm
// state with the session that produced the plan.

// maxPrefixes bounds the intermediate configurations verified per plan
// (evenly spaced; all of them when the plan is shorter).
const maxPrefixes = 32

// simParams are the executor settings of the paper-figure harness
// (internal/bench DAGCompare, -fig dag), so makespans are comparable
// with BENCH_6.json.
var simParams = sim.Params{Duration: 3 * time.Second, ProbeInterval: 2 * time.Millisecond}

// planFromSteps rebuilds an executable plan from switch-granularity step
// labels: an update installs the target's table on its switch.
func planFromSteps(steps []server.ResultStep, dag *server.ResultDAG, target *config.Config) (*core.Plan, error) {
	p := &core.Plan{}
	for i, st := range steps {
		switch st.Op {
		case "wait":
			p.Steps = append(p.Steps, core.Step{Wait: true})
		case "update":
			if st.Switch == nil {
				return nil, fmt.Errorf("step %d: update without a switch", i)
			}
			p.Steps = append(p.Steps, core.Step{Switch: *st.Switch, Table: target.Table(*st.Switch)})
		default:
			return nil, fmt.Errorf("step %d: op %q in a switch-granularity plan", i, st.Op)
		}
	}
	if dag != nil {
		p.DAG = &core.PlanDAG{Preds: dag.Preds, Drain: dag.Drain, Depth: dag.Depth, Width: dag.Width}
		if n := len(p.Updates()); len(dag.Preds) != n {
			return nil, fmt.Errorf("dag has %d nodes for %d updates", len(dag.Preds), n)
		}
	}
	return p, nil
}

// checkPlan asserts the plan moves base to target by updating exactly
// the differing switches, once each (every update installs the target's
// table, so that alone puts the replay on target). With deep set it also
// replays the plan and runs netupdate.Verify on the final configuration
// (every class) and on up to maxPrefixes evenly spaced intermediate ones.
// An intermediate configuration is verified for the classes whose rules
// moved since the last verified one: a class whose rules did not move
// has the verdict it had there.
func checkPlan(topo *topology.Topology, specs []config.ClassSpec, base, target *config.Config, plan *core.Plan, deep bool) error {
	ups := plan.Updates()
	updated := make([]int, len(ups))
	for i, st := range ups {
		updated[i] = st.Switch
	}
	sort.Ints(updated)
	if want := config.Diff(base, target); fmt.Sprint(updated) != fmt.Sprint(want) {
		return fmt.Errorf("plan updates switches %v, configurations differ on %v", updated, want)
	}
	if !deep {
		return nil
	}
	cur := base.Clone()
	pending := map[int]bool{} // class indexes whose rules moved since the last verified prefix
	n := len(ups)
	for k, st := range ups {
		for ci, cs := range specs {
			pat := cs.Class.Pattern()
			if classRules(base.Table(st.Switch), pat) != classRules(st.Table, pat) {
				pending[ci] = true
			}
		}
		cur.SetTable(st.Switch, st.Table.Clone())
		k++ // prefix length
		check := specs
		if k < n {
			if n > maxPrefixes && (k*maxPrefixes)/n == ((k-1)*maxPrefixes)/n {
				continue
			}
			check = nil
			for ci := range specs {
				if pending[ci] {
					check = append(check, specs[ci])
				}
			}
		}
		ok, cex, err := netupdate.Verify(topo, cur, check)
		if err != nil {
			return fmt.Errorf("verifying prefix %d/%d: %w", k, n, err)
		}
		if !ok {
			return fmt.Errorf("prefix %d/%d violates its specification: %v", k, n, cex)
		}
		clear(pending)
	}
	return nil
}

// classRules renders the rules of one class in a table, order-free.
func classRules(tbl network.Table, pat network.Pattern) string {
	var rules []string
	for _, r := range tbl {
		if r.Match == pat {
			rules = append(rules, r.String())
		}
	}
	sort.Strings(rules)
	return strings.Join(rules, "\n")
}

// makespanMS executes the plan on the decentralized DAG simulator and
// returns completion time from command start, in simulated ms.
func makespanMS(topo *topology.Topology, specs []config.ClassSpec, base *config.Config, plan *core.Plan) (float64, error) {
	classes := make([]config.Class, len(specs))
	for i, cs := range specs {
		classes[i] = cs.Class
	}
	res := sim.RunPlanDAG(topo, base, plan, classes, simParams)
	if res.Stalled || res.Lost != 0 {
		return 0, fmt.Errorf("simulated execution stalled=%v lost=%d probes", res.Stalled, res.Lost)
	}
	return float64(res.CompleteAt-sim.DefaultCommandStart) / float64(time.Millisecond), nil
}

// quality is the plan-quality tally of one pass: waits kept and simulated
// makespan over a fixed, seed-determined set of plans, so two runs of the
// same code agree to the digit however many ops their timed regions fit.
type quality struct {
	waits      int
	makespanMS float64
	plans      int // plans behind waits
	deep       int // plans verified prefix by prefix and simulated
}

func (q *quality) add(x quality) {
	q.waits += x.waits
	q.makespanMS += x.makespanMS
	q.plans += x.plans
	q.deep += x.deep
}

// requestLine is a synthesize-stream input line (server.streamRequest).
type requestLine struct {
	config.StreamDelta
	Ack *server.StepAck `json:"ack,omitempty"`
}

// checkTenant replays one tenant's request log against a client-side
// model of its configuration and checks every answer. skip is the number
// of leading warm-up records; the quality tally covers the qualityOps
// timed ops after them, of which the first deepChecks plans are deep
// checked and simulated. It marks failing records and returns the tally.
func checkTenant(t *tenant, recs []record, skip, qualityOps, deepChecks int) (quality, error) {
	var q quality
	var spec server.TenantSpec
	if err := json.Unmarshal(t.spec, &spec); err != nil {
		return q, err
	}
	base, err := spec.StreamHeader.Build()
	if err != nil {
		return q, err
	}
	cur := base.Init
	var lastBase, lastTarget *config.Config
	var lastPlan *core.Plan
	for i := range recs {
		r := &recs[i]
		if r.fail != "" {
			// The tenant's state after a failed request is unknown; the
			// rest of its log cannot be judged.
			return q, nil
		}
		var line requestLine
		if err := json.Unmarshal(r.op.line, &line); err != nil {
			return q, fmt.Errorf("%s op %d: own request line: %w", t.name, i, err)
		}
		inQuality := i >= skip && i < skip+qualityOps
		from, to := cur, cur
		if line.Ack != nil {
			if lastPlan == nil {
				r.fail = "failure ack with no preceding plan"
				continue
			}
			from, to = lastPlan.ConfigAfter(lastBase, line.Ack.Committed), lastTarget
		} else if to, err = base.Apply(cur, &line.StreamDelta); err != nil {
			return q, fmt.Errorf("%s op %d: own delta does not apply: %w", t.name, i, err)
		}
		if r.res.Result == wantImpossible {
			continue // kind already matched the generator's label; the tenant stays put
		}
		plan, err := planFromSteps(r.res.Steps, r.res.DAG, to)
		if err == nil {
			err = checkPlan(base.Topo, base.Specs, from, to, plan, inQuality && q.deep < deepChecks)
		}
		if err != nil {
			r.fail = err.Error()
			continue
		}
		if inQuality {
			q.plans++
			q.waits += plan.Waits()
			if q.deep < deepChecks {
				ms, err := makespanMS(base.Topo, base.Specs, from, plan)
				if err != nil {
					r.fail = err.Error()
					continue
				}
				q.makespanMS += ms
				q.deep++
			}
		}
		lastBase, lastTarget, lastPlan, cur = from, to, plan, to
	}
	return q, nil
}
