package core

import "slices"

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

// buildDAG derives the dependency DAG for a (possibly composed) step
// sequence. Wait steps are skipped — their ordering content is already
// carried by the class/switch chains, and their drain content by the
// drain marks. For decomposed plans the construction yields the disjoint
// union of the component sub-DAGs automatically: components partition
// both the affected classes and the touched switches, so no chain can
// cross a component boundary. Its working state is the analysis scratch's;
// the DAG's edge lists share one array, the only one it allocates besides
// the two lists of lists. Depth and Width are computed as the nodes are
// (Levels is the reference).
func (e *engine) buildDAG(steps []Step) *PlanDAG {
	d := e.newDepAnalysis()
	defer d.release()
	s := d.s
	lastClass := s.lastClass[:0]
	for range e.sc.Specs {
		lastClass = append(lastClass, -1)
	}
	swStamp := s.next() // lastSw[sw] is a node of this DAG while lastSwE[sw] == swStamp
	n := len(steps) - countWaits(steps)
	entries, level, size := slices.Grow(s.entries[:0], n), slices.Grow(s.level[:0], n), s.levelSize[:0]
	edges, ends := s.edges[:0], s.ends[:0]
	j := 0
	for _, st := range steps {
		if st.Wait {
			continue
		}
		affected := d.affected(st.Switch, st.Table)
		from := len(edges)
		if s.lastSwE[st.Switch] == swStamp {
			edges = append(edges, int(s.lastSw[st.Switch]))
		}
		for ci, a := range affected {
			if a && lastClass[ci] >= 0 && !slices.Contains(edges[from:], lastClass[ci]) {
				edges = append(edges, lastClass[ci])
			}
		}
		preds := edges[from:]
		sortInts(preds)
		ends = append(ends, len(edges))
		l := 0
		for _, i := range preds {
			l = max(l, level[i]+1)
			if entries[i] < 0 {
				continue // predecessor needed no fencing (dead or class-empty)
			}
			if d.drainNeeded(&d.pending[entries[i]], st.Switch, affected) {
				edges = append(edges, i)
			}
		}
		ends = append(ends, len(edges))
		entries = append(entries, d.advance(st.Switch, st.Table, affected))
		s.lastSw[st.Switch], s.lastSwE[st.Switch] = int32(j), swStamp
		for ci, a := range affected {
			if a {
				lastClass[ci] = j
			}
		}
		level = append(level, l)
		if l == len(size) {
			size = append(size, 0)
		}
		size[l]++
		j++
	}
	dag := &PlanDAG{Preds: make([][]int, j), Drain: make([][]int, j), Depth: len(size)}
	for _, n := range size {
		dag.Width = max(dag.Width, n)
	}
	flat := make([]int, len(edges))
	copy(flat, edges)
	from := 0
	for k, to := range ends {
		if to > from { // an empty list stays nil
			if k%2 == 0 {
				dag.Preds[k/2] = flat[from:to:to]
			} else {
				dag.Drain[k/2] = flat[from:to:to]
			}
		}
		from = to
	}
	s.lastClass, s.entries, s.level, s.levelSize, s.edges, s.ends = lastClass, entries, level, size, edges, ends
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
