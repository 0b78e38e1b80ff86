package core

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"netupdate/internal/config"
)

// fuzzContext is one fixed (topology, classes) pair the snapshot fuzzer
// restores into, with a reroute every class of it survives. The headers
// are spelled out rather than generated so the committed seed images keep
// matching their context fingerprint whatever the generators do.
type fuzzContext struct {
	image   string // testdata/fuzz-seeds/<image>, written by Session.Snapshot
	header  string
	reroute string
}

var fuzzContexts = []fuzzContext{
	{
		image:   "one-class.nuss",
		header:  goldenHeader,
		reroute: `{"reroute":[{"class":"c","path":[0,2,3]}]}`,
	},
	{
		image:   "three-class.nuss",
		header:  `{"name":"hex","topology":{"switches":6,"links":[[0,1],[1,2],[2,5],[0,3],[3,4],[4,5],[1,4]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":5},{"id":102,"switch":3},{"id":103,"switch":2}]},"classes":[{"name":"a","src":100,"dst":101,"path":[0,1,2,5],"spec":"sw=0 -> F sw=5"},{"name":"b","src":102,"dst":103,"path":[3,4,1,2],"spec":"sw=3 -> F sw=2"},{"name":"c","src":101,"dst":100,"path":[5,4,3,0],"spec":"sw=5 -> ((sw!=0) U ((sw=4) & F sw=0))"}]}`,
		reroute: `{"reroute":[{"class":"a","path":[0,3,4,5]}]}`,
	},
}

// fuzzSeed is a fuzzContext decoded: the base it restores into, the
// reroute target, and the committed image.
type fuzzSeed struct {
	name   string
	base   *config.StreamBase
	target *config.Config
	img    []byte
}

func loadFuzzSeeds(t testing.TB) []fuzzSeed {
	t.Helper()
	var seeds []fuzzSeed
	for _, c := range fuzzContexts {
		var h config.StreamHeader
		if err := json.Unmarshal([]byte(c.header), &h); err != nil {
			t.Fatal(err)
		}
		base, err := h.Build()
		if err != nil {
			t.Fatal(err)
		}
		var d config.StreamDelta
		if err := json.Unmarshal([]byte(c.reroute), &d); err != nil {
			t.Fatal(err)
		}
		target, err := base.Apply(base.Init, &d)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(filepath.Join("testdata", "fuzz-seeds", c.image))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, fuzzSeed{c.image, base, target, img})
	}
	return seeds
}

// restoreAndServe is the property both the fuzzer and the byte sweep
// check: body, resealed under a fresh checksum, either fails to restore
// or yields a session that synthesizes and snapshots; any error is an
// answer, a panic is not.
func restoreAndServe(t *testing.T, seed fuzzSeed, body []byte) {
	img := (&snapWriter{buf: append([]byte(nil), body...)}).seal()
	s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{Parallelism: 1}, img)
	if err != nil {
		return
	}
	_, _ = s.Synthesize(seed.target)
	_, _ = s.Synthesize(seed.base.Init)
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("restored session cannot snapshot: %v", err)
	}
}

// TestRestoreSessionByteSweep rewrites every byte after the context
// fingerprint of each seed image with its neighbours, its bit flips and
// the varint boundary values. Single-field damage under a valid checksum
// is what this finds and 60 s of coverage-guided fuzzing did not: a table
// for a switch the topology lacks (an index panic at the first rebind), a
// label id or successor that is in range but wrong (a panic in
// counterexample reconstruction).
func TestRestoreSessionByteSweep(t *testing.T) {
	for _, seed := range loadFuzzSeeds(t) {
		body := seed.img[:len(seed.img)-sha256.Size]
		for pos := len(snapMagic) + 4 + sha256.Size; pos < len(body); pos++ {
			orig := body[pos]
			for _, v := range []byte{orig + 1, orig - 1, orig ^ 1, orig ^ 0x80, 0, 0x7f, 0xff} {
				body[pos] = v
				restoreAndServe(t, seed, body)
			}
			body[pos] = orig
		}
	}
}

// FuzzRestoreSession: RestoreSession takes bytes from the network (PUT
// /v1/tenants/{id}/snapshot), so for any input it must return an error or
// a session that serves — synthesizes, snapshots — without panicking, and
// must not size an allocation from a number the input merely claims (the
// decoder bounds every count by the bytes that remain). The harness
// recomputes the trailing checksum, so mutations are not all stopped at
// the integrity check and reach the section decoders.
//
// The seeds are images the last commit with four checker backends wrote
// (5a6acb0; one session of one class, one of three, each after one
// synthesis) plus truncations of them: unmutated, they must restore and
// serve, which pins the NUSS format across the contract change.
func FuzzRestoreSession(f *testing.F) {
	seeds := loadFuzzSeeds(f)
	for i, seed := range seeds {
		s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{Parallelism: 1}, seed.img)
		if err != nil {
			f.Fatalf("%s: committed image no longer restores: %v", seed.name, err)
		}
		if _, err := s.Synthesize(seed.base.Init); err != nil {
			f.Fatalf("%s: restored session does not serve: %v", seed.name, err)
		}
		f.Add(i, seed.img)
		for _, cut := range []int{len(seed.img) / 4, len(seed.img) / 2, len(seed.img) - sha256.Size - 1} {
			f.Add(i, seed.img[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		if which < 0 || which >= len(seeds) || len(data) < sha256.Size {
			return
		}
		restoreAndServe(t, seeds[which], data[:len(data)-sha256.Size])
	})
}
