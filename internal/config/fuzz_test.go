package config

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// twoDiamonds is the fixed base FuzzStreamDelta applies deltas to: two
// diamonds in a row, one class across each, registered on the upper
// branches.
const twoDiamonds = `{"name":"two-diamonds","topology":{"switches":7,
 "links":[[0,1],[1,3],[0,2],[2,3],[3,4],[4,6],[3,5],[5,6]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3},{"id":102,"switch":3},{"id":103,"switch":6}]},
 "classes":[{"name":"a","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"},
            {"name":"b","src":102,"dst":103,"path":[3,4,6],"spec":"sw=3 -> F sw=6"}]}`

// FuzzStreamDelta: the bytes of a synthesize request, decoded as the
// serving loop decodes them — one JSON value, unknown keys refused — and
// applied to the two-diamond base, are an error or a target on which
// every class is delivered to its destination host. Never a panic; the
// decode allocates no more than the input's length bounds at a small
// factor, and Apply no more than a bound of its own plus what quoting a
// class name in a refusal takes, however many reroutes the delta holds:
// a path longer than the network is refused before a rule is installed
// (InstallPath), where installing it first cost 150-250 bytes per input
// byte, and a delta that names a class twice is refused at the second
// naming, where reinstalling the class per naming cost about 36 times the
// input. The committed seeds (testdata/fuzz/FuzzStreamDelta) are valid
// reroutes of one class and of both, and one of each refusal: an unknown
// class, a hop between switches that are not adjacent, a path that
// bounces between two switches a thousand times, a path that ends at the
// wrong host, and a class rerouted and rerouted back; the seed added here
// reroutes one class 10 000 times.
func FuzzStreamDelta(f *testing.F) {
	var h StreamHeader
	if err := json.Unmarshal([]byte(twoDiamonds), &h); err != nil {
		f.Fatal(err)
	}
	base, err := h.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"reroute":[` + strings.Repeat(`{"class":"a","path":[0,2,3]},`, 9999) + `{"class":"a","path":[0,1,3]}]}`))
	const applyBound = 64 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, decoded, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := decodeDelta(data)
		runtime.ReadMemStats(&decoded)
		if grew, bound := decoded.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); grew > bound {
			t.Fatalf("%d input bytes decoded into %d bytes, over %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		// A refusal quotes one class name; nothing else Apply allocates
		// grows with the input.
		name := 0
		for _, rr := range d.Reroute {
			name = max(name, len(rr.Class))
		}
		target, err := base.Apply(base.Init, d)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-decoded.TotalAlloc, uint64(applyBound+64*name); grew > bound {
			t.Fatalf("a delta of %d reroutes (%d bytes) applied in %d bytes, over %d", len(d.Reroute), len(data), grew, bound)
		}
		if err != nil {
			return
		}
		for _, cs := range base.Specs {
			path, err := PathOf(target, base.Topo, cs.Class)
			if err != nil {
				t.Fatalf("%q: the target does not deliver class %s: %v", data, cs.Class.Name, err)
			}
			if dst, _ := base.Topo.HostByID(cs.Class.DstHost); path[len(path)-1] != dst.Switch {
				t.Fatalf("%q: class %s ends at sw%d, its destination host is on sw%d", data, cs.Class.Name, path[len(path)-1], dst.Switch)
			}
		}
	})
}

// decodeDelta decodes one delta strictly, as the serving loop does.
func decodeDelta(data []byte) (*StreamDelta, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d StreamDelta
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
