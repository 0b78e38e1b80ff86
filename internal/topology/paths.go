package topology

// ShortestPath returns a shortest switch path from a to b (inclusive) via
// breadth-first search, or nil if b is unreachable. avoid lists interior
// switches the path must not use (endpoints are always allowed). Callers
// issuing many queries (workload generators) should hold a PathFinder
// instead: this convenience wrapper allocates fresh scratch per call.
func (t *Topology) ShortestPath(a, b int, avoid ...int) []int {
	p := t.NewPathFinder().Shortest(nil, a, b, avoid)
	if len(p) == 0 {
		return nil
	}
	return p
}

// PathFinder runs repeated shortest-path queries over one topology with
// reusable scratch (epoch-stamped ban marks, the BFS predecessor array,
// and the queue), so a generator probing hundreds of candidate routes
// allocates almost nothing. Not safe for concurrent use; create one per
// goroutine.
type PathFinder struct {
	t      *Topology
	banned []int32
	gen    int32
	prev   []int
	queue  []int
}

// NewPathFinder returns a finder with scratch sized to the topology.
func (t *Topology) NewPathFinder() *PathFinder {
	return &PathFinder{
		t:      t,
		banned: make([]int32, t.n),
		prev:   make([]int, t.n),
	}
}

// Shortest appends a shortest switch path from a to b (inclusive) to dst
// and returns the extended slice; dst is returned unchanged if b is
// unreachable. avoid lists interior switches the path must not use
// (endpoints are always allowed). The search order matches ShortestPath
// exactly, so both produce identical paths.
func (f *PathFinder) Shortest(dst []int, a, b int, avoid []int) []int {
	f.gen++
	if f.gen == 1<<31-1 {
		clear(f.banned)
		f.gen = 1
	}
	for _, v := range avoid {
		f.banned[v] = f.gen
	}
	if a == b {
		return append(dst, a)
	}
	prev := f.prev
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := append(f.queue[:0], a)
	defer func() { f.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, l := range f.t.adj[v] {
			u := l.Peer
			if prev[u] != -1 {
				continue
			}
			if f.banned[u] == f.gen && u != b {
				continue
			}
			prev[u] = v
			if u == b {
				return appendPath(dst, prev, a, b)
			}
			queue = append(queue, u)
		}
	}
	return dst
}

// appendPath reconstructs the a..b path from the predecessor array,
// appending it to dst in forward order.
func appendPath(dst []int, prev []int, a, b int) []int {
	start := len(dst)
	for v := b; v != a; v = prev[v] {
		dst = append(dst, v)
	}
	dst = append(dst, a)
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
