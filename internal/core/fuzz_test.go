package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// fuzzContext is one fixed (topology, classes) pair the snapshot fuzzer
// restores into, with a reroute every class of it survives. The headers
// are spelled out rather than generated so the committed seed images keep
// matching their context fingerprint whatever the generators do.
type fuzzContext struct {
	name    string // testdata/fuzz-seeds/<name><version suffix>.nuss, written by Session.Snapshot
	header  string
	reroute string
}

// Each context has one committed image per format version, taken after
// the session served the reroute: "" is version 1, as commit 5a6acb0
// wrote it (the last commit with four checker backends); "-v2" is version
// 2's, as PR 17 wrote it, with its label tables and class sections; "-v3"
// is version 3's, as the commit that introduced it wrote it; "-v4" is
// this format's, the "-v3" image restored and written again. Older
// images restore to their configuration; they must keep doing so.
var fuzzSeedVersions = []string{"", "-v2", "-v3", "-v4"}

var fuzzContexts = []fuzzContext{
	{
		name:    "one-class",
		header:  goldenHeader,
		reroute: `{"reroute":[{"class":"c","path":[0,2,3]}]}`,
	},
	{
		name:    "three-class",
		header:  `{"name":"hex","topology":{"switches":6,"links":[[0,1],[1,2],[2,5],[0,3],[3,4],[4,5],[1,4]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":5},{"id":102,"switch":3},{"id":103,"switch":2}]},"classes":[{"name":"a","src":100,"dst":101,"path":[0,1,2,5],"spec":"sw=0 -> F sw=5"},{"name":"b","src":102,"dst":103,"path":[3,4,1,2],"spec":"sw=3 -> F sw=2"},{"name":"c","src":101,"dst":100,"path":[5,4,3,0],"spec":"sw=5 -> ((sw!=0) U ((sw=4) & F sw=0))"}]}`,
		reroute: `{"reroute":[{"class":"a","path":[0,3,4,5]}]}`,
	},
}

// fuzzSeed is a fuzzContext decoded: the base it restores into, the
// reroute target, and the committed image.
type fuzzSeed struct {
	name    string
	version int // the NUSS version the image is written in
	base    *config.StreamBase
	target  *config.Config
	img     []byte
}

func loadFuzzSeeds(t testing.TB) []fuzzSeed {
	t.Helper()
	var seeds []fuzzSeed
	for vi, version := range fuzzSeedVersions {
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
			name := c.name + version + ".nuss"
			img, err := os.ReadFile(filepath.Join("testdata", "fuzz-seeds", name))
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, fuzzSeed{name, vi + 1, base, target, img})
		}
	}
	return seeds
}

// restoreAndServe is the property both the fuzzer and the byte sweep
// check: body, resealed under a fresh checksum, either fails to restore
// or yields a session that synthesizes and snapshots; any error is an
// answer, a panic is not. Nothing but the configuration and the run
// counter is taken from the bytes, so whatever restores has every class
// built at the configuration the image spells, and its next answer is a
// cold session's there — and so is the answer of a session restored from
// the same bytes lazily, onto that configuration as its holder's. Every
// built class stays based on the session's configuration throughout.
func restoreAndServe(t *testing.T, seed fuzzSeed, body []byte) {
	opts := Options{}
	pristine := bytes.Equal(body, seed.img[:len(seed.img)-sha256.Size])
	img := (&snapWriter{buf: append([]byte(nil), body...)}).seal()
	s, err := RestoreSession(seed.base.Topo, seed.base.Specs, opts, img)
	if err != nil {
		if pristine {
			t.Fatalf("%s: committed image no longer restores: %v", seed.name, err)
		}
		return
	}
	// The configuration the session is at is the one the configuration
	// section spells: no table dropped or overwritten by a later one for
	// the same switch.
	if listed := configSwitches(body); !slices.Equal(listed, s.Current().Switches()) {
		t.Fatalf("%s: image lists tables for switches %v, the restored session holds %v", seed.name, listed, s.Current().Switches())
	}
	if n := slotsAtCurrent(t, seed.name, s); n != len(seed.base.Specs) {
		t.Fatalf("%s: restored from bytes with %d of %d classes built", seed.name, n, len(seed.base.Specs))
	}
	if pristine && seed.version == snapVersion {
		if again, err := s.Snapshot(); err != nil || !bytes.Equal(again, seed.img) {
			t.Fatalf("%s: the committed image restores to a session that writes another (err %v)", seed.name, err)
		}
	}
	if pristine && len(config.Diff(s.Current(), seed.target)) != 0 {
		t.Fatalf("%s: restored at another configuration than the image's", seed.name)
	}
	served := []*Session{s, Resume(seed.base.Topo, seed.base.Specs, opts, s.Park(), SessionResources{})}
	want := coldAnswer(t, seed, s.Current())
	for _, s := range served {
		plan, err := s.Synthesize(seed.base.Init)
		if got := fmt.Sprint(plan, err); got != want {
			t.Fatalf("%s: restored session answers\n%s, a cold one\n%s", seed.name, got, want)
		}
		slotsAtCurrent(t, seed.name, s)
		_, _ = s.Synthesize(seed.target)
		_, _ = s.Synthesize(seed.base.Init)
		slotsAtCurrent(t, seed.name, s)
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("restored session cannot snapshot: %v", err)
		}
	}
}

// coldAnswers memoizes coldAnswer by seed context and configuration: a
// byte sweep restores to a handful of distinct configurations thousands of
// times each.
var coldAnswers sync.Map

// coldAnswer is what a session built cold at cfg answers when asked for
// the seed's initial configuration: the plan and the error, printed.
func coldAnswer(t *testing.T, seed fuzzSeed, cfg *config.Config) string {
	t.Helper()
	key := fmt.Sprint(seed.base.Name, hashConfig(cfg))
	if want, ok := coldAnswers.Load(key); ok {
		return want.(string)
	}
	cold, err := NewSession(seed.base.Topo, cfg, seed.base.Specs, Options{})
	if err != nil {
		t.Fatalf("%s: restored at a configuration no session builds at: %v", seed.name, err)
	}
	plan, err := cold.Synthesize(seed.base.Init)
	want := fmt.Sprint(plan, err)
	coldAnswers.Store(key, want)
	return want
}

// slotsAtCurrent checks the slot invariant of a session at rest
// (Session.CheckAtRest) and returns the number of classes built.
func slotsAtCurrent(t *testing.T, name string, s *Session) int {
	t.Helper()
	if err := s.CheckAtRest(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	built := 0
	for _, k := range s.ks {
		if k != nil {
			built++
		}
	}
	return built
}

// configSwitches reads the switch ids of the non-empty tables in the
// configuration section of an image body that restored.
func configSwitches(body []byte) []int {
	r := &snapReader{buf: body, off: len(snapMagic) + 4 + sha256.Size}
	r.num() // runs
	var out []int
	for _, e := range decodeSwitches(r) {
		if len(e.rules) > 0 {
			out = append(out, e.sw)
		}
	}
	return out
}

// TestRestoreSessionByteSweep rewrites every byte after the context
// fingerprint of each seed image with its neighbours, its bit flips and
// the varint boundary values. Single-field damage under a valid checksum
// is what this finds and 60 s of coverage-guided fuzzing did not: a table
// for a switch the topology lacks (an index panic at the first rebind), a
// rule that sets a header field past the last one. In an older image the
// sweep also walks the sections no decoder reads any more: nothing
// written there may change what restores.
func TestRestoreSessionByteSweep(t *testing.T) {
	for _, seed := range loadFuzzSeeds(t) {
		body := bytes.Clone(seed.img[:len(seed.img)-sha256.Size])
		restoreAndServe(t, seed, body)
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
// The seeds are the committed images (fuzzSeedVersions) plus truncations
// of them — unmutated, they must restore and serve as a cold session
// would, which pins all three NUSS formats — and, of each current-format
// image, the refused variants a byte mutation is unlikely to reach
// (damagedImages).
func FuzzRestoreSession(f *testing.F) {
	seeds := loadFuzzSeeds(f)
	for i, seed := range seeds {
		f.Add(i, seed.img)
		for _, cut := range []int{len(seed.img) / 4, len(seed.img) / 2, len(seed.img) - sha256.Size - 1} {
			f.Add(i, seed.img[:cut])
		}
		if seed.version == snapVersion {
			for _, bad := range damagedImages(f, seed.img) {
				f.Add(i, bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		if which < 0 || which >= len(seeds) || len(data) < sha256.Size {
			return
		}
		restoreAndServe(t, seeds[which], data[:len(data)-sha256.Size])
	})
}

// TestRestoreOlderImageKeepsItsConfiguration: an older image is the only
// record of where its tenant was, so restore takes that — the
// configuration and the run counter — builds every class on it, and says
// so (RestoredCold). An image in the current format restored from bytes
// has every class built too; the session resumed from the restored one's
// parked handle, none. Either way the session's next plan is a cold
// session's (restoreAndServe). A version-3 image's cache section is JSON,
// which nothing reads any more: three-class-v3-cache.nuss, the committed
// three-class-v3.nuss with the section a version-3 writer embedded for a
// cache that served the reroute and the flap-back, restores the same way
// with no cache.
func TestRestoreOlderImageKeepsItsConfiguration(t *testing.T) {
	seeds := loadFuzzSeeds(t)
	withJSON := seeds[slices.IndexFunc(seeds, func(s fuzzSeed) bool { return s.name == "three-class-v3.nuss" })]
	img, err := os.ReadFile(filepath.Join("testdata", "fuzz-seeds", "three-class-v3-cache.nuss"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(img, withJSON.img[:len(withJSON.img)-sha256.Size-1]) || !bytes.Contains(img, []byte(`"entries":[{"key":"`)) {
		t.Fatalf("three-class-v3-cache.nuss is not %s with a JSON cache section", withJSON.name)
	}
	withJSON.name, withJSON.img = "three-class-v3-cache.nuss", img
	for _, seed := range append(seeds, withJSON) {
		s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, seed.img)
		if err != nil {
			t.Fatalf("%s: %v", seed.name, err)
		}
		if older := seed.version < snapVersion; s.RestoredCold() != older {
			t.Errorf("%s: RestoredCold() = %v", seed.name, s.RestoredCold())
		}
		if c := s.Cache(); c != nil && c.Stats().Entries > 0 {
			t.Errorf("%s: restored with %d cache entries", seed.name, c.Stats().Entries)
		}
		if len(config.Diff(s.Current(), seed.target)) != 0 || len(config.Diff(s.Current(), seed.base.Init)) == 0 {
			t.Errorf("%s: restored session is not at the image's configuration", seed.name)
		}
		if s.Runs() != 1 {
			t.Errorf("%s: %d runs restored, the image was written after one", seed.name, s.Runs())
		}
		held := Resume(seed.base.Topo, seed.base.Specs, Options{}, s.Park(), SessionResources{})
		if got := slotsAtCurrent(t, seed.name, held); got != 0 || held.Runs() != s.Runs() || held.Current() != s.Current() {
			t.Errorf("%s: resumed from its handle: %d classes built, want 0 (runs %d of %d, adopted %v)",
				seed.name, got, held.Runs(), s.Runs(), held.Current() == s.Current())
		}
		restoreAndServe(t, seed, seed.img[:len(seed.img)-sha256.Size])
	}
}

// FuzzImageCacheSection: an image's cache section is the one persisted
// form of plan-cache state — EmbedCache writes it when a tenant's image
// leaves its process, decodeCache reads it back — so for any section in a
// current-format image, resealed under a valid checksum, restore must
// return an error or a session that answers the seed's flap-back and its
// reroute with a plan or ErrNoOrdering (a cache holds no other verdict),
// at rest, and never panic. The seeds are generated here (cacheSections):
// a warm cache's section and the same cache with 2-simple and
// rule-granularity plans added, each of which answers both requests from
// the cache unmutated, and a section whose plan installs a rule that sets
// header field 9, which must be dropped whole.
func FuzzImageCacheSection(f *testing.F) {
	seeds := loadFuzzSeeds(f)
	seed := seeds[len(seeds)-1]
	if seed.version != snapVersion || seed.name != "three-class-v4.nuss" {
		f.Fatalf("last committed image is %s, version %d", seed.name, seed.version)
	}
	warm, own := cacheSections(f, seed)
	poisoned := poisonedSection(f, seed, 9)
	for _, sec := range [][]byte{warm, own, poisoned} {
		f.Add(sec)
	}
	f.Fuzz(func(t *testing.T, sec []byte) {
		img, err := embedCacheSection(seed.img, sec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RestoreSession(seed.base.Topo, seed.base.Specs, Options{}, img)
		if err != nil {
			return
		}
		if bytes.Equal(sec, poisoned) && s.Cache() != nil {
			t.Fatal("a section whose rule sets header field 9 was restored")
		}
		// The image was written at the reroute's target: back, then out.
		hits := 0
		for _, to := range []*config.Config{seed.base.Init, seed.target} {
			plan, err := s.Synthesize(to)
			if (err != nil || plan == nil) && !errors.Is(err, ErrNoOrdering) {
				t.Fatalf("plan %v, err %v", plan != nil, err)
			}
			if s.LastStats().CacheHit {
				hits++
			}
			if err := s.CheckAtRest(); err != nil {
				t.Fatal(err)
			}
		}
		if hits != 2 && (bytes.Equal(sec, warm) || bytes.Equal(sec, own)) {
			t.Fatalf("a seed cache answered %d of 2 requests", hits)
		}
	})
}

// warmCache returns a cache that served the seed's reroute and its
// flap-back and memoized an unorderable instance of another scenario.
func warmCache(tb testing.TB, seed fuzzSeed) *PlanCache {
	tb.Helper()
	s, err := NewSession(seed.base.Topo, seed.base.Init, seed.base.Specs, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cache := s.EnableCache()
	for _, to := range []*config.Config{seed.target, seed.base.Init} {
		if _, err := s.Synthesize(to); err != nil {
			tb.Fatal(err)
		}
	}
	sc, err := config.Infeasible(topology.SmallWorld(30, 4, 0.3, 7), config.InfeasibleOptions{Gadgets: 1, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	is, err := NewSession(sc.Topo, sc.Init, sc.Specs, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	is.SetCache(cache)
	if _, err := is.Synthesize(sc.Final); !errors.Is(err, ErrNoOrdering) {
		tb.Fatalf("err = %v, want ErrNoOrdering", err)
	}
	return cache
}

// addOwnTables stores in cache the 2-simple and rule-granularity plans of
// the seed's reroute, whose steps keep tables and rule details of their
// own.
func addOwnTables(tb testing.TB, seed fuzzSeed, cache *PlanCache) {
	tb.Helper()
	for _, opts := range []Options{{TwoSimple: true}, {RuleGranularity: true}} {
		s, err := NewSession(seed.base.Topo, seed.base.Init, seed.base.Specs, opts)
		if err != nil {
			tb.Fatal(err)
		}
		s.SetCache(cache)
		if _, err := s.Synthesize(seed.target); err != nil {
			tb.Fatal(err)
		}
	}
	tables, rules := 0, 0
	for el := cache.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		rules += len(ent.rules)
		for _, st := range ent.steps {
			if !st.wait && !st.target {
				tables++
			}
		}
	}
	if tables == 0 || rules == 0 {
		tb.Fatalf("the cache holds %d tables and %d rule details of its own", tables, rules)
	}
}

// cacheSections returns the section EmbedCache writes for warmCache
// (warm), and for the same cache after addOwnTables (own).
func cacheSections(tb testing.TB, seed fuzzSeed) (warm, own []byte) {
	tb.Helper()
	cache := warmCache(tb, seed)
	warm = cache.encode()
	addOwnTables(tb, seed, cache)
	return warm, cache.encode()
}

// poisonedSection is the section of a cache holding one plan, for the
// seed's flap-back: the plan the warm session gave, after a first step
// that installs on one of its switches the flap-back's table with every
// rule setting the given header field to 1 before it acts. Replaying a
// field past the last would panic (network.Packet.WithField).
func poisonedSection(tb testing.TB, seed fuzzSeed, field network.FieldID) []byte {
	tb.Helper()
	s, err := NewSession(seed.base.Topo, seed.target, seed.base.Specs, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	key := s.instanceKey(seed.base.Init)
	back, err := s.Synthesize(seed.base.Init)
	if err != nil {
		tb.Fatal(err)
	}
	for _, st := range back.Steps {
		if st.Wait || len(st.Table) == 0 {
			continue
		}
		bad := slices.Clone(st.Table)
		for i := range bad {
			bad[i].Actions = append([]network.Action{network.SetField(field, 1)}, bad[i].Actions...)
		}
		steps := append([]Step{{Switch: st.Switch, Table: bad}}, back.Steps...)
		c := NewPlanCache(0)
		c.store(newPlanEntry(key, steps, chain(steps), seed.base.Init, back.Stats.Components))
		return c.encode()
	}
	tb.Fatal("the flap-back installs no rule")
	return nil
}

// chain is the DAG of a plan whose updates run one after the other, each
// edge drain-marked where a wait separates its two steps.
func chain(steps []Step) *PlanDAG {
	dag := &PlanDAG{}
	wait := false
	for _, st := range steps {
		if st.Wait {
			wait = true
			continue
		}
		var preds, drain []int
		if j := len(dag.Preds); j > 0 {
			preds = []int{j - 1}
			if wait {
				drain = preds
			}
		}
		dag.Preds, dag.Drain = append(dag.Preds, preds), append(dag.Drain, drain)
		wait = false
	}
	if dag.Depth = len(dag.Preds); dag.Depth > 0 {
		dag.Width = 1
	}
	return dag
}
