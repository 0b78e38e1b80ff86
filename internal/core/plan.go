package core

import (
	"strings"

	"netupdate/internal/config"
	"netupdate/internal/engine"
	"netupdate/internal/network"
	"netupdate/internal/obs"
)

// Step is one element of a synthesized update plan: either a wait barrier
// or the application of one update unit (engine.Step).
type Step = engine.Step

// PlanDAG is the dependency-DAG form of a plan (engine.PlanDAG).
type PlanDAG = engine.PlanDAG

// Plan is a synthesized update sequence together with run statistics.
type Plan struct {
	Steps []Step
	Stats Stats
	// DAG is the dependency-DAG form of the plan (one node per update
	// step of Updates(), see engine.PlanDAG): any linearization — or any
	// decentralized execution that commits each step once its
	// predecessors have committed, waiting out drain edges — is
	// trace-equivalent to the sequential Steps.
	DAG *PlanDAG
	// Trace is the span tree recorded for this run when its context asked
	// for one (obs.WithTracing); nil otherwise.
	Trace *obs.TraceData
}

// Commands lowers the plan to the operational model's command list
// (Section 3.1): table replacements with incr/flush pairs for waits.
func (p *Plan) Commands() []network.Command {
	var out []network.Command
	for _, s := range p.Steps {
		if s.Wait {
			out = append(out, network.Wait()...)
		} else {
			out = append(out, network.Update(s.Switch, s.Table))
		}
	}
	return out
}

// Updates returns the non-wait steps in order.
func (p *Plan) Updates() []Step {
	var out []Step
	for _, s := range p.Steps {
		if !s.Wait {
			out = append(out, s)
		}
	}
	return out
}

// Waits returns the number of wait barriers in the plan.
func (p *Plan) Waits() int {
	n := 0
	for _, s := range p.Steps {
		if s.Wait {
			n++
		}
	}
	return n
}

// Configs reconstructs the sequence of static configurations the plan
// steps through, starting from init (inclusive of both endpoints).
func (p *Plan) Configs(init *config.Config) []*config.Config {
	out := []*config.Config{init.Clone()}
	cur := init.Clone()
	for _, s := range p.Steps {
		if s.Wait {
			continue
		}
		cur = cur.Clone()
		cur.SetTable(s.Switch, s.Table.Clone())
		out = append(out, cur)
	}
	return out
}

// ConfigAfter reconstructs the configuration reached from init once
// exactly the update steps named by committed (indices into Updates())
// have taken effect, regardless of order — the crash state a stalled
// decentralized execution leaves the network in (sim.Result.Committed
// feeds in directly). Indices must be valid; same-switch steps apply in
// plan order, matching any dependency-closed execution.
func (p *Plan) ConfigAfter(init *config.Config, committed []int) *config.Config {
	want := make(map[int]bool, len(committed))
	for _, i := range committed {
		want[i] = true
	}
	cur := init.Clone()
	for i, st := range p.Updates() {
		if want[i] {
			cur.SetTable(st.Switch, st.Table.Clone())
		}
	}
	return cur
}

func (p *Plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
