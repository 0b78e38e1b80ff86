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

// FuzzStreamDelta: the bytes of a synthesize request, decoded by
// encoding/json — one JSON value, unknown keys refused, the reference
// FuzzRequestLines (internal/server) holds the serving loop's decoder to
// — and applied to the two-diamond base, are an error or a target on
// which every class is delivered to its destination host. Never a panic; the
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

// decodeDelta decodes one delta strictly, as the serving loop's decoder
// must.
func decodeDelta(data []byte) (*StreamDelta, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d StreamDelta
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// FuzzLoadScenario: the bytes of a scenario file, loaded as netupdate -f
// loads them, are an error or a scenario whose initial and final
// configurations each deliver every class to the switch of its
// destination host; never a panic. Loading allocates at most 64 KB plus
// 64 bytes per input byte plus 256 bytes per switch the topology
// declares, a count MaxSwitches caps: a network holds memory for every
// declared switch whether a link names it or not, so that count is the
// one cost the file's length does not bound. The seeds are a valid
// two-corridor file, one at MaxSwitches and one past it, and one of each
// refusal: a hop between switches that are not adjacent, a final path
// that ends at the wrong host, an unknown key, a bad specification, a
// file with no classes, and an empty link, which decodes as a self-link
// (the input this fuzzer found when Build let one reach
// topology.AddLink, which panics on it).
func FuzzLoadScenario(f *testing.F) {
	const corridor = `{"name":"two-corridor","topology":{"switches":8,
 "links":[[0,1],[1,2],[2,3],[3,7],[0,4],[4,5],[5,6],[6,7]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":7}]},
 "classes":[{"name":"h100->h101","src":100,"dst":101,
  "initPath":[0,1,2,3,7],"finalPath":[0,4,5,6,7],"spec":"sw=0 -> F sw=7"}]}`
	for _, seed := range []string{
		corridor,
		strings.Replace(corridor, `"switches":8`, `"switches":16384`, 1),
		strings.Replace(corridor, `"switches":8`, `"switches":16385`, 1),
		strings.Replace(corridor, `[0,4,5,6,7]`, `[0,5,6,7]`, 1),
		strings.Replace(corridor, `[0,4,5,6,7]`, `[0,4,5,6]`, 1),
		strings.Replace(corridor, `"spec"`, `"specs"`, 1),
		strings.Replace(corridor, `sw=0 -> F sw=7`, `sw=0 -> F (`, 1),
		`{"name":"empty","topology":{"switches":2,"links":[[0,1]]},"classes":[]}`,
		`{"topologY":{"switChes":1,"links":[[]]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var declared struct {
			Topology struct{ Switches int }
		}
		_ = json.NewDecoder(bytes.NewReader(data)).Decode(&declared)
		switches := min(max(declared.Topology.Switches, 0), MaxSwitches)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc, err := LoadScenario(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)+256*switches); grew > bound {
			t.Fatalf("%d input bytes declaring %d switches loaded in %d bytes, over %d", len(data), switches, grew, bound)
		}
		if err != nil {
			return
		}
		for _, cs := range sc.Specs {
			dst, ok := sc.Topo.HostByID(cs.Class.DstHost)
			if !ok {
				t.Fatalf("%q: class %s has no destination host", data, cs.Class.Name)
			}
			for _, cfg := range []*Config{sc.Init, sc.Final} {
				path, err := PathOf(cfg, sc.Topo, cs.Class)
				if err != nil {
					t.Fatalf("%q: a configuration does not deliver class %s: %v", data, cs.Class.Name, err)
				}
				if path[len(path)-1] != dst.Switch {
					t.Fatalf("%q: class %s ends at sw%d, its destination host is on sw%d", data, cs.Class.Name, path[len(path)-1], dst.Switch)
				}
			}
		}
	})
}
