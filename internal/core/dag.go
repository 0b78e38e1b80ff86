package core

// Dependency-DAG plans. A synthesized plan is a totally ordered careful
// sequence, but most of that order is incidental: the ordering analysis
// of deps.go proves which updates genuinely depend on which. This file
// lifts those facts into an explicit PlanDAG — one node per update step,
// edges to the predecessors that must commit first — which a decentralized
// runtime (internal/sim's asynchronous executor, or a real controller
// shipping per-switch dependency lists à la ez-Segway) can execute
// without a central wait-blocked schedule.
//
// Edge construction and why it is sound. Specifications are per-class
// LTL properties over single-packet traces, so a class's verdict after
// any prefix of updates depends only on the subsequence of steps that
// affect that class (exactly what depAnalysis.affected computes) — and on
// their relative order. The DAG therefore chains, for every class, each
// step affecting it to the previous step affecting it, and additionally
// chains steps on the same switch (whose table snapshots — and the
// merge→finalize prerequisite of 2-simple units — are only coherent in
// plan order). Every linearization of this DAG applies each class's
// affecting steps, and each switch's steps, in exactly the sequential
// plan's order; per class, the structure state sequence is then identical
// to the sequential replay, so every intermediate verdict the search
// verified carries over unchanged. That is the trace-equivalence
// guarantee the metamorphic ack-schedule test (dag_test.go) exercises:
// random linearizations must reproduce the sequential per-state labels.
//
// The edge set also subsumes the wait barriers: a retained wait fences
// pairs of updates that share an affected class (barrierNeeded tests only
// such pairs), and any such pair is already chained. Waits thus become
// edges, not steps — but a wait carries drain semantics (in-flight
// packets under the old rules must leave the network), so edges whose
// predecessor's old traffic could still reach the successor's switch are
// marked as drain edges and executors must additionally wait for the
// predecessor's pre-update packets to drain, not just for its ack.

// PlanDAG is the dependency-DAG form of a plan: one node per update step
// of Plan.Updates(), in order.
type PlanDAG struct {
	// Preds[i] lists the update-step indexes that must commit before step
	// i may be installed, ascending. Edges always point from a lower to a
	// higher index, so the DAG is acyclic by construction and index order
	// is one valid linearization (the sequential plan itself).
	Preds [][]int `json:"preds"`
	// Drain[i] is the subset of Preds[i] whose in-flight pre-update
	// packets could still reach step i's switch: before committing step i
	// the executor must wait not only for these predecessors' acks but
	// for their old traffic to drain — the DAG form of a wait barrier.
	Drain [][]int `json:"drain,omitempty"`
	// Depth is the longest dependency chain (in nodes); Width the largest
	// antichain level — the number of updates an ideal decentralized
	// executor can have in flight at once. Both are 0 for an empty plan.
	Depth int `json:"depth"`
	Width int `json:"width"`
}

// NumNodes returns the number of update steps the DAG covers.
func (d *PlanDAG) NumNodes() int { return len(d.Preds) }

// covers reports whether d is a dependency DAG over the update steps of
// steps: one node per step, every edge from a lower-numbered node. A DAG
// that arrived in a learn file is asked before anything indexes by it.
func (d *PlanDAG) covers(steps []Step) bool {
	if d == nil || len(d.Preds) != len(steps)-countWaits(steps) || len(d.Drain) > len(d.Preds) {
		return false
	}
	for _, lists := range [2][][]int{d.Preds, d.Drain} {
		for j, list := range lists {
			for _, p := range list {
				if p < 0 || p >= j {
					return false
				}
			}
		}
	}
	return true
}

// DrainEdges returns the total number of drain-marked edges.
func (d *PlanDAG) DrainEdges() int {
	n := 0
	for _, ds := range d.Drain {
		n += len(ds)
	}
	return n
}

// Levels partitions the nodes into dependency levels: level k holds the
// nodes whose longest predecessor chain has k nodes. len(Levels()) ==
// Depth, and the largest level has Width nodes.
func (d *PlanDAG) Levels() [][]int {
	level := make([]int, len(d.Preds))
	var size []int // nodes per level
	for j, ps := range d.Preds {
		l := 0
		for _, i := range ps {
			if level[i]+1 > l {
				l = level[i] + 1
			}
		}
		level[j] = l
		if l == len(size) {
			size = append(size, 0)
		}
		size[l]++
	}
	// The levels partition the nodes, so they share one backing array.
	flat := make([]int, 0, len(d.Preds))
	out := make([][]int, len(size))
	for l, n := range size {
		out[l] = flat[len(flat) : len(flat) : len(flat)+n]
		flat = flat[:len(flat)+n]
	}
	for j, l := range level {
		out[l] = append(out[l], j)
	}
	return out
}

// The unitless latency model of the completion-time tie-breaker
// (Options.MinimizeCompletionTime): committing an update costs
// dagInstallCost, observing a predecessor's ack dagAckCost, and a drain
// edge additionally waits dagDrainCost for the predecessor's old traffic
// to leave the network. The ratios mirror the simulator's defaults (10ms
// installs, sub-ms acks, multi-hop drains); only the relative order of
// candidate plans matters, not the absolute numbers.
const (
	dagInstallCost = 10
	dagAckCost     = 1
	dagDrainCost   = 50
)

// completionEstimate is the critical-path completion time of the DAG
// under the unitless latency model: the earliest time a decentralized
// executor could have every update committed.
func (d *PlanDAG) completionEstimate() int64 {
	finish := make([]int64, len(d.Preds))
	var worst int64
	for j := range d.Preds {
		var start int64
		for _, i := range d.Preds[j] {
			if f := finish[i] + dagAckCost; f > start {
				start = f
			}
		}
		for _, i := range d.Drain[j] {
			if f := finish[i] + dagDrainCost; f > start {
				start = f
			}
		}
		finish[j] = start + dagInstallCost
		if finish[j] > worst {
			worst = finish[j]
		}
	}
	return worst
}

// buildDAG derives the dependency DAG for a (possibly composed) step
// sequence. Wait steps are skipped — their ordering content is already
// carried by the class/switch chains, and their drain content by the
// drain marks. For decomposed plans the construction yields the disjoint
// union of the component sub-DAGs automatically: components partition
// both the affected classes and the touched switches, so no chain can
// cross a component boundary.
func (e *engine) buildDAG(steps []Step) *PlanDAG {
	d := e.newDepAnalysis()
	defer d.release()
	lastClass := make([]int, len(e.sc.Specs))
	for i := range lastClass {
		lastClass[i] = -1
	}
	n := len(steps) - countWaits(steps)
	lastSwitch := make(map[int]int, n)
	dag := &PlanDAG{Preds: make([][]int, 0, n), Drain: make([][]int, 0, n)}
	entries := make([]int, 0, n) // advance() window index per node, -1 when unrecorded
	j := 0
	for _, st := range steps {
		if st.Wait {
			continue
		}
		affected := d.affected(st.Switch, st.Table)
		var preds []int
		addPred := func(i int) {
			for _, p := range preds {
				if p == i {
					return
				}
			}
			preds = append(preds, i)
		}
		if li, ok := lastSwitch[st.Switch]; ok {
			addPred(li)
		}
		for ci, a := range affected {
			if a && lastClass[ci] >= 0 {
				addPred(lastClass[ci])
			}
		}
		sortInts(preds)
		var drain []int
		for _, i := range preds {
			if entries[i] < 0 {
				continue // predecessor needed no fencing (dead or class-empty)
			}
			if d.drainNeeded(&d.pending[entries[i]], st.Switch, affected) {
				drain = append(drain, i)
			}
		}
		entries = append(entries, d.advance(st.Switch, st.Table, affected))
		lastSwitch[st.Switch] = j
		for ci, a := range affected {
			if a {
				lastClass[ci] = j
			}
		}
		dag.Preds = append(dag.Preds, preds)
		dag.Drain = append(dag.Drain, drain)
		j++
	}
	levels := dag.Levels()
	dag.Depth = len(levels)
	for _, l := range levels {
		if len(l) > dag.Width {
			dag.Width = len(l)
		}
	}
	return dag
}

// sortInts is insertion sort for the short predecessor lists (typically
// one or two entries; allocation-free, unlike sort.Ints' interface path).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
