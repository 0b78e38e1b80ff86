package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// The Internet Topology Zoo [Knight et al. 2011] is a dataset of 261 real
// wide-area network graphs used in the paper's evaluation (Figure 7a/7d).
// The dataset itself is not redistributable here, so ZooLike generates
// WAN-style stand-ins: sparse, irregular graphs built from a random
// spanning tree plus a small number of shortcut links, with sizes drawn
// from a distribution matching the published zoo statistics (4 to ~700
// nodes, median around 20-40, mean degree a bit over 2). See DESIGN.md.

// ZooCount is the number of topologies in the simulated zoo dataset,
// matching the size of the real Topology Zoo.
const ZooCount = 261

// ZooSizes returns the switch counts of the simulated zoo dataset in
// ascending order. The distribution is deterministic.
func ZooSizes() []int {
	r := rand.New(rand.NewSource(0x200))
	sizes := make([]int, ZooCount)
	for i := range sizes {
		// Log-normal-ish: most networks small, a long tail of large ones.
		v := 4 + int(expRand(r, 28))
		if i%26 == 0 { // sprinkle the large WANs
			v = 150 + r.Intn(550)
		}
		if v > 754 {
			v = 754
		}
		sizes[i] = v
	}
	sort.Ints(sizes)
	return sizes
}

func expRand(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// ZooLike generates the i-th topology of the simulated zoo dataset
// (0 <= i < ZooCount). One host is attached to every switch.
func ZooLike(i int) *Topology {
	sizes := ZooSizes()
	if i < 0 || i >= len(sizes) {
		panic(fmt.Sprintf("topology: ZooLike(%d) out of range [0,%d)", i, len(sizes)))
	}
	return WAN(fmt.Sprintf("zoo-%03d", i), sizes[i], int64(0x9e3779b9+i))
}

// WAN generates a wide-area-network-style graph: a random spanning tree
// with preferential attachment plus ~25% extra shortcut links, giving mean
// degree ≈ 2.5 and tree-like structure with occasional meshes — the shape
// of real Topology Zoo graphs. One host is attached to every switch.
func WAN(name string, n int, seed int64) *Topology {
	if n < 2 {
		panic(fmt.Sprintf("topology: WAN(%d): need at least 2 switches", n))
	}
	r := rand.New(rand.NewSource(seed))
	t := New(name, n)
	// Random spanning tree with mild preferential attachment: new node
	// joins an existing node chosen with probability proportional to
	// degree+1, which yields the hub-and-spoke patterns of real WANs.
	weights := make([]int, n)
	total := 0
	attach := func(v int) int {
		x := r.Intn(total)
		for u := 0; u < v; u++ {
			x -= weights[u]
			if x < 0 {
				return u
			}
		}
		return v - 1
	}
	weights[0] = 1
	total = 1
	for v := 1; v < n; v++ {
		u := attach(v)
		t.AddLink(u, v)
		weights[u]++
		weights[v] = 1
		total += 2
	}
	// Extra shortcut links (~ n/4), avoiding duplicates.
	extra := n / 4
	for i := 0; i < extra; i++ {
		for attempt := 0; attempt < 8; attempt++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b || t.HasLink(a, b) {
				continue
			}
			t.AddLink(a, b)
			break
		}
	}
	for v := 0; v < n; v++ {
		t.AddHost(v, v)
	}
	return t
}
