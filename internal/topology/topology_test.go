package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAddLinkAllocatesPorts(t *testing.T) {
	topo := New("t", 3)
	pa, pb := topo.AddLink(0, 1)
	if pa != 1 || pb != 1 {
		t.Fatalf("first link ports = (%d,%d), want (1,1)", pa, pb)
	}
	pa2, pc := topo.AddLink(0, 2)
	if pa2 != 2 || pc != 1 {
		t.Fatalf("second link ports = (%d,%d), want (2,1)", pa2, pc)
	}
	if topo.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", topo.NumLinks())
	}
	if !topo.HasLink(0, 1) || !topo.HasLink(1, 0) || topo.HasLink(1, 2) {
		t.Fatal("HasLink inconsistent")
	}
	l, ok := topo.LinkAt(0, pa2)
	if !ok || l.Peer != 2 || l.PeerPort != pc {
		t.Fatalf("LinkAt(0,%d) = %+v, %v", pa2, l, ok)
	}
	if _, ok := topo.LinkAt(0, 99); ok {
		t.Fatal("LinkAt on missing port should fail")
	}
}

func TestHosts(t *testing.T) {
	topo := New("t", 2)
	topo.AddLink(0, 1)
	h := topo.AddHost(7, 0)
	if h.Port != 2 {
		t.Fatalf("host port = %d, want 2 (after link port)", h.Port)
	}
	got, ok := topo.HostByID(7)
	if !ok || got != h {
		t.Fatalf("HostByID = %+v, %v", got, ok)
	}
	if _, ok := topo.HostByID(8); ok {
		t.Fatal("HostByID(8) should fail")
	}
	hp, ok := topo.HostAtPort(0, h.Port)
	if !ok || hp.ID != 7 {
		t.Fatalf("HostAtPort = %+v, %v", hp, ok)
	}
	if hs := topo.HostsOn(0); len(hs) != 1 || hs[0].ID != 7 {
		t.Fatalf("HostsOn(0) = %v", hs)
	}
	if hs := topo.HostsOn(1); len(hs) != 0 {
		t.Fatalf("HostsOn(1) = %v, want empty", hs)
	}
}

// TestPortTableMatchesScan: over random interleavings of AddLink and
// AddHost — parallel links included — LinkAt and HostAtPort answer what a
// scan of the switch's links and hosts finds, for every port, for port 0
// and the ports past the last, and for switches out of range; Ports lists
// 1 to the number of ports, and HostsOn the switch's hosts in the order
// they were added.
func TestPortTableMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		topo := New("random", n)
		var hosts []Host
		for i := 0; i < 4*n; i++ {
			a, b := r.Intn(n), r.Intn(n)
			switch {
			case r.Intn(3) == 0:
				hosts = append(hosts, topo.AddHost(500+i, a))
			case a != b:
				topo.AddLink(a, b)
			}
		}
		for sw := -2; sw < n+2; sw++ {
			var links []Link
			var on []Host
			if sw >= 0 && sw < n {
				links = topo.Neighbors(sw)
				for _, h := range hosts {
					if h.Switch == sw {
						on = append(on, h)
					}
				}
				ports := topo.Ports(sw)
				if len(ports) != len(links)+len(on) {
					t.Fatalf("seed %d: sw%d has %d ports for %d links and %d hosts", seed, sw, len(ports), len(links), len(on))
				}
				for i, p := range ports {
					if p != Port(i+1) {
						t.Fatalf("seed %d: Ports(%d) = %v, want 1..%d", seed, sw, ports, len(ports))
					}
				}
				if got := topo.HostsOn(sw); len(got) != len(on) || len(on) > 0 && !reflect.DeepEqual(got, on) {
					t.Fatalf("seed %d: HostsOn(%d) = %v, want %v", seed, sw, got, on)
				}
			}
			for p := Port(-1); p <= Port(len(links)+len(on)+2); p++ {
				var wantL Link
				var okL bool
				for _, l := range links {
					if l.LocalPort == p {
						wantL, okL = l, true
					}
				}
				var wantH Host
				var okH bool
				for _, h := range on {
					if h.Port == p {
						wantH, okH = h, true
					}
				}
				if l, ok := topo.LinkAt(sw, p); ok != okL || l != wantL {
					t.Fatalf("seed %d: LinkAt(%d, %d) = %+v, %v; the scan finds %+v, %v", seed, sw, p, l, ok, wantL, okL)
				}
				if h, ok := topo.HostAtPort(sw, p); ok != okH || h != wantH {
					t.Fatalf("seed %d: HostAtPort(%d, %d) = %+v, %v; the scan finds %+v, %v", seed, sw, p, h, ok, wantH, okH)
				}
			}
		}
	}
}

// TestHostByIDLargeTopology: the id lookup is indexed, agrees with the
// host list on a 1 500-host topology, keeps the first host of a
// duplicated id, and reports a missing id.
func TestHostByIDLargeTopology(t *testing.T) {
	const n = 1500
	topo := New("big", n)
	for sw := 0; sw < n; sw++ {
		topo.AddHost(10_000+7*sw, sw)
	}
	dup := topo.AddHost(10_000, n-1) // second host with switch 0's id
	for _, h := range topo.Hosts()[:n] {
		got, ok := topo.HostByID(h.ID)
		if !ok || got != h {
			t.Fatalf("HostByID(%d) = %+v, %v; want %+v", h.ID, got, ok, h)
		}
	}
	if got, _ := topo.HostByID(10_000); got == dup || got.Switch != 0 {
		t.Fatalf("HostByID on a duplicated id = %+v, want the first host (sw0)", got)
	}
	for _, id := range []int{-1, 0, 9_999, 10_001, 10_000 + 7*n} {
		if h, ok := topo.HostByID(id); ok {
			t.Fatalf("HostByID(%d) = %+v, want missing", id, h)
		}
	}
}

func TestShortestPath(t *testing.T) {
	topo := New("line", 5)
	for i := 0; i < 4; i++ {
		topo.AddLink(i, i+1)
	}
	p := topo.ShortestPath(0, 4)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Fatalf("path = %v", p)
	}
	if p := topo.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v", p)
	}
	if p := topo.ShortestPath(0, 4, 2); p != nil {
		t.Fatalf("avoiding the cut vertex should fail, got %v", p)
	}
	topo2 := New("disconnected", 3)
	topo2.AddLink(0, 1)
	if p := topo2.ShortestPath(0, 2); p != nil {
		t.Fatalf("unreachable path = %v", p)
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		topo, roles := FatTree(k)
		half := k / 2
		wantSwitches := half*half + k*k
		if topo.NumSwitches() != wantSwitches {
			t.Fatalf("k=%d: switches = %d, want %d", k, topo.NumSwitches(), wantSwitches)
		}
		// Link count: per pod (k/2)^2 edge-agg + (k/2)^2 agg-core.
		wantLinks := k*half*half + k*half*half
		if topo.NumLinks() != wantLinks {
			t.Fatalf("k=%d: links = %d, want %d", k, topo.NumLinks(), wantLinks)
		}
		if !topo.Connected() {
			t.Fatalf("k=%d: fat tree disconnected", k)
		}
		if len(roles.Core) != half*half || len(roles.Agg) != k || len(roles.Edge) != k {
			t.Fatalf("k=%d: bad roles %+v", k, roles)
		}
		// Every edge switch connects to every agg in its pod.
		for p := 0; p < k; p++ {
			for _, e := range roles.Edge[p] {
				for _, a := range roles.Agg[p] {
					if !topo.HasLink(e, a) {
						t.Fatalf("k=%d: missing pod link %d-%d", k, e, a)
					}
				}
			}
		}
		if len(topo.Hosts()) != k*half {
			t.Fatalf("k=%d: hosts = %d, want %d", k, len(topo.Hosts()), k*half)
		}
	}
}

func TestFatTreeForSize(t *testing.T) {
	topo, roles := FatTreeForSize(50)
	if topo.NumSwitches() < 50 {
		t.Fatalf("FatTreeForSize(50) gave %d switches", topo.NumSwitches())
	}
	if roles.K != 8 { // 6: 45 switches; 8: 80 switches
		t.Fatalf("FatTreeForSize(50) used k=%d, want 8", roles.K)
	}
}

func TestFatTreePanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FatTree(3) should panic")
		}
	}()
	FatTree(3)
}

func TestSmallWorldProperties(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		topo := SmallWorld(n, 4, 0.3, 42)
		if topo.NumSwitches() != n {
			t.Fatalf("n=%d: switches = %d", n, topo.NumSwitches())
		}
		if !topo.Connected() {
			t.Fatalf("n=%d: small world disconnected", n)
		}
		if len(topo.Hosts()) != n {
			t.Fatalf("n=%d: hosts = %d", n, len(topo.Hosts()))
		}
		// No duplicate links or self loops.
		for v := 0; v < n; v++ {
			seen := map[int]bool{}
			for _, l := range topo.Neighbors(v) {
				if l.Peer == v {
					t.Fatalf("self loop at %d", v)
				}
				if seen[l.Peer] {
					t.Fatalf("duplicate link %d-%d", v, l.Peer)
				}
				seen[l.Peer] = true
			}
		}
	}
}

func TestSmallWorldDeterministic(t *testing.T) {
	a := SmallWorld(30, 4, 0.5, 7)
	b := SmallWorld(30, 4, 0.5, 7)
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed must give same graph")
	}
	for v := 0; v < 30; v++ {
		la, lb := a.Neighbors(v), b.Neighbors(v)
		if len(la) != len(lb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("link mismatch at %d[%d]", v, i)
			}
		}
	}
}

func TestZooSizesDistribution(t *testing.T) {
	sizes := ZooSizes()
	if len(sizes) != ZooCount {
		t.Fatalf("len = %d, want %d", len(sizes), ZooCount)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatal("sizes not sorted")
		}
	}
	if sizes[0] < 4 {
		t.Fatalf("min size %d < 4", sizes[0])
	}
	if sizes[len(sizes)-1] < 300 {
		t.Fatalf("max size %d; want a large-WAN tail", sizes[len(sizes)-1])
	}
	// Median should be modest like the real zoo.
	med := sizes[len(sizes)/2]
	if med < 8 || med > 80 {
		t.Fatalf("median %d outside zoo-like range", med)
	}
}

func TestZooLikeConnectedAndSparse(t *testing.T) {
	for _, i := range []int{0, 50, 130, 260} {
		topo := ZooLike(i)
		if !topo.Connected() {
			t.Fatalf("zoo %d disconnected", i)
		}
		n := topo.NumSwitches()
		meanDeg := float64(2*topo.NumLinks()) / float64(n)
		if meanDeg > 4.0 {
			t.Fatalf("zoo %d too dense: mean degree %.2f", i, meanDeg)
		}
	}
}

func TestWANConnected(t *testing.T) {
	for _, n := range []int{2, 5, 40, 300} {
		topo := WAN("w", n, int64(n))
		if !topo.Connected() {
			t.Fatalf("WAN(%d) disconnected", n)
		}
	}
}
