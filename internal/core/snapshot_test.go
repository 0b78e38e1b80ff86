package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
)

// TestSnapshotRoundTripByteIdentity: snapshot a warm mid-stream session,
// restore it, and serve the remainder of the stream from both the
// original (never-evicted) session and the restored one — every plan must
// be byte-identical, and the labels the restored session computed at the
// image's configuration must be the original's label sets.
func TestSnapshotRoundTripByteIdentity(t *testing.T) {
	stream, targets := rollingTargets(t, 47, 2, 6, 1)
	if len(targets) < 4 {
		t.Fatalf("stream too short: %d targets", len(targets))
	}
	opts := Options{}
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableCache()
	warmPrefix := 2
	for n := 0; n < warmPrefix; n++ {
		if _, err := sess.Synthesize(targets[n]); err != nil {
			t.Fatalf("warm step %d: %v", n, err)
		}
	}
	img, err := sess.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	restored, err := RestoreSession(stream.Topo(), stream.Specs(), opts, img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.Runs() != sess.Runs() {
		t.Fatalf("restored runs = %d, want %d", restored.Runs(), sess.Runs())
	}
	if diff := config.Diff(restored.Current(), sess.Current()); len(diff) != 0 {
		t.Fatalf("restored configuration differs on switches %v", diff)
	}
	compareSessionLabels(t, "restored", sess, restored)
	for n := warmPrefix; n < len(targets); n++ {
		orig, err := sess.Synthesize(targets[n])
		if err != nil {
			t.Fatalf("step %d: original: %v", n, err)
		}
		rest, err := restored.Synthesize(targets[n])
		if err != nil {
			t.Fatalf("step %d: restored: %v", n, err)
		}
		if got, want := rest.String(), orig.String(); got != want {
			t.Fatalf("step %d: restored plan diverged:\nrestored %s\noriginal %s", n, got, want)
		}
	}
}

// compareSessionLabels checks that two sessions' incremental checkers
// decode to identical per-state label sets (ids may differ when tables
// are shared; contents may not).
func compareSessionLabels(t *testing.T, name string, a, b *Session) {
	t.Helper()
	for ci := range a.specs {
		ca, ok := a.checkers[ci].(*mc.Incremental)
		if !ok {
			t.Fatalf("%s: checker %d is %T", name, ci, a.checkers[ci])
		}
		cb := b.checkers[ci].(*mc.Incremental)
		for id := 0; id < a.ks[ci].NumStates(); id++ {
			la, lb := ca.Labels(id), cb.Labels(id)
			if len(la) != len(lb) {
				t.Fatalf("%s class %d state %d: label sets diverge (%d vs %d valuations)",
					name, ci, id, len(la), len(lb))
			}
			for j := range la {
				if la[j] != lb[j] {
					t.Fatalf("%s class %d state %d: label sets diverge", name, ci, id)
				}
			}
		}
	}
}

// TestSnapshotRoundTripSharedResources: restoring into a pool-shared
// arena and warmth cache — pre-populated by another tenant — must still
// reproduce the original plans (label ids are the shared table's).
func TestSnapshotRoundTripSharedResources(t *testing.T) {
	stream, targets := rollingTargets(t, 53, 2, 5, 1)
	opts := Options{}
	res := SessionResources{Arena: kripke.NewArena(stream.Topo()), Warmth: mc.NewWarmth()}

	// A sibling tenant warms the shared resources first, so the restored
	// session's label ids cannot all coincide with the original's.
	sibling, err := NewSessionWith(stream.Topo(), stream.Init(), stream.Specs(), opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Synthesize(targets[0]); err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Synthesize(targets[0]); err != nil {
		t.Fatal(err)
	}
	img, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSessionWith(stream.Topo(), stream.Specs(), opts, img, res)
	if err != nil {
		t.Fatal(err)
	}
	compareSessionLabels(t, "shared", sess, restored)
	for n := 1; n < len(targets); n++ {
		orig, err := sess.Synthesize(targets[n])
		if err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
		rest, err := restored.Synthesize(targets[n])
		if err != nil {
			t.Fatalf("step %d: restored: %v", n, err)
		}
		if orig.String() != rest.String() {
			t.Fatalf("step %d: shared-resource restore diverged", n)
		}
	}
}

// TestSnapshotRejection: corrupted, truncated, version-skewed and
// context-mismatched images, images with bytes after the cache section or
// a cache section longer than the image, and images whose configuration
// section lists a switch twice or out of order, must be rejected with the
// matching sentinel (the pool falls back to a cold rebuild on any of
// them); a session over a caller-supplied checker refuses to write one;
// and what the class sections of an older image say — in range or out,
// cyclic or not — is never read.
func TestSnapshotRejection(t *testing.T) {
	stream, targets := rollingTargets(t, 59, 2, 3, 1)
	opts := Options{}
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Synthesize(targets[0]); err != nil {
		t.Fatal(err)
	}
	img, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bitflip", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)/2] ^= 0x40
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corrupted image: err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, img[:len(img)/3]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncated image: err = %v, want ErrBadSnapshot", err)
		}
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, nil); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("empty image: err = %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		for _, version := range []uint32{0, snapVersion + 1} {
			bad := append([]byte(nil), img[:len(img)-sha256.Size]...)
			binary.LittleEndian.PutUint32(bad[len(snapMagic):], version)
			bad = (&snapWriter{buf: bad}).seal()
			if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("version %d: err = %v, want ErrSnapshotVersion", version, err)
			}
		}
	})
	t.Run("context-mismatch", func(t *testing.T) {
		other := Options{TwoSimple: true}
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), other, img); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("mismatched options: err = %v, want ErrSnapshotMismatch", err)
		}
	})
	// Damage that survives the checksum (a resealed image, as PUT
	// .../snapshot may receive), refused.
	for name, bad := range damagedImages(t, img) {
		t.Run(name, func(t *testing.T) {
			if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}
	// An older image's label tables and class sections are skipped: one
	// that names a label, state or successor out of range, lists states out
	// of order or closes a cycle restores exactly as the committed image
	// does — at its configuration, every class built from it.
	older := loadFuzzSeeds(t)[3] // three-class-v2.nuss
	last := len(older.base.Specs) - 1
	states := kripke.NewArena(older.base.Topo).NumStates()
	for name, damage := range map[string]func(c *imageClass){
		"label-out-of-range":     func(c *imageClass) { c.labels[0] = 1 << 20 },
		"successor-out-of-range": func(c *imageClass) { c.succ[c.forwarding()] = []int{states} },
		"state-out-of-range":     func(c *imageClass) { c.ids[len(c.ids)-1] = states },
		"states-out-of-order":    func(c *imageClass) { c.ids[0], c.ids[1] = c.ids[1], c.ids[0] },
		"self-loop":              func(c *imageClass) { c.succ[c.forwarding()] = []int{c.ids[c.forwarding()]} },
		"cyclic-successors": func(c *imageClass) {
			from := c.forwarding()
			for j, id := range c.ids {
				if id == c.succ[from][0] {
					c.succ[j] = []int{c.ids[from]}
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			parsed := parseOlderImage(t, older.img)
			damage(&parsed.classes[last])
			bad := parsed.encode()
			if bytes.Equal(bad, older.img) {
				t.Fatal("the damage changed nothing")
			}
			s, err := RestoreSession(older.base.Topo, older.base.Specs, opts, bad)
			if err != nil || !s.RestoredCold() {
				t.Fatalf("err = %v, RestoredCold = %v: want the image's configuration with every class built on it", err, err == nil && s.RestoredCold())
			}
			restoreAndServe(t, older, bad[:len(bad)-sha256.Size])
		})
	}
	// The fingerprint a caller computed once stands in for computing it:
	// the right one restores — and is what the restored session writes —
	// another context's is a mismatch whatever the topology, specs and
	// options passed beside it.
	t.Run("precomputed-fingerprint", func(t *testing.T) {
		fp := ContextFingerprint(stream.Topo(), stream.Specs(), opts)
		s, err := RestoreSessionWith(stream.Topo(), stream.Specs(), opts, img, SessionResources{ContextFP: fp})
		if err != nil {
			t.Fatal(err)
		}
		if again, err := s.Snapshot(); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("restored with its fingerprint handed over, the session writes another image (err %v)", err)
		}
		wrong := ContextFingerprint(stream.Topo(), stream.Specs(), Options{TwoSimple: true})
		if _, err := RestoreSessionWith(stream.Topo(), stream.Specs(), opts, img, SessionResources{ContextFP: wrong}); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("wrong precomputed fingerprint: err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("foreign-checker", func(t *testing.T) {
		foreign, err := NewSessionWith(stream.Topo(), stream.Init(), stream.Specs(), opts, SessionResources{Factory: mc.NewBatch})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := foreign.Snapshot(); err == nil {
			t.Fatal("a session over a caller-supplied checker wrote a snapshot")
		}
	})
}

// TestUnverifiedConfigurationIsNeverServed: the two halves of the trust
// rule, on one image with a valid checksum and fingerprint whose
// configuration sends a class the next request does not touch into a
// black hole. Decoded from bytes it is refused: every class is built and
// verified on a configuration that arrives as bytes, before a session
// exists. Resumed from a handle at that configuration object — a handle
// is trusted by identity — it is accepted with no class built, serves the
// request that does not touch the class, and answers ErrClassBuild, not a
// plan, to the first one that does.
func TestUnverifiedConfigurationIsNeverServed(t *testing.T) {
	stream, targets := rollingTargets(t, 59, 2, 3, 1)
	opts := Options{}
	sess, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The first target moves some classes; break one it leaves alone by
	// dropping its rule at its ingress switch.
	sess.aff.reset(sess.specs, ruleDiffs(nil, stream.Init(), targets[0], config.Diff(stream.Init(), targets[0])))
	victim := -1
	for ci := range sess.specs {
		if !slices.Contains(sess.aff.classes, ci) {
			victim = ci
		}
	}
	if victim < 0 || len(sess.aff.classes) == 0 {
		t.Fatalf("the first target moves %d of %d classes: want some and not all", len(sess.aff.classes), len(sess.specs))
	}
	cl := sess.specs[victim].Class
	src, _ := stream.Topo().HostByID(cl.SrcHost)
	parsed := parseImage(t, img)
	var sws []imageSwitch
	broken := config.NewSized(stream.Topo().NumSwitches())
	for _, e := range parsed.switches() {
		if e.sw == src.Switch {
			e.rules = slices.DeleteFunc(e.rules, func(r network.Rule) bool { return r.Match == cl.Pattern() })
		}
		if len(e.rules) > 0 { // an image lists no empty table
			sws = append(sws, e)
			broken.SetTable(e.sw, e.rules)
		}
	}
	parsed.setSwitches(sws)
	bad := parsed.encode()

	if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("decoded from bytes: err = %v, want ErrBadSnapshot", err)
	}
	lazy := Resume(stream.Topo(), stream.Specs(), opts, &Parked{cur: broken}, SessionResources{})
	if lazy.Current() != broken || slotsAtCurrent(t, "lazy", lazy) != 0 {
		t.Fatal("resumed: want the session on the handle's object with no class built")
	}
	// The request that leaves the class alone: the same reroutes, on top of
	// the broken configuration.
	target := broken.Clone()
	for _, sw := range config.Diff(stream.Init(), targets[0]) {
		target.SetTable(sw, targets[0].Table(sw))
	}
	if _, err := lazy.Synthesize(target); err != nil {
		t.Fatalf("a request that does not touch the class: %v", err)
	}
	if lazy.ks[victim] != nil || slotsAtCurrent(t, "lazy", lazy) != len(sess.aff.classes) {
		t.Fatalf("built %d classes, the request's diff touches %d (victim built: %v)", lazy.ClassBuilds(), len(sess.aff.classes), lazy.ks[victim] != nil)
	}
	// Restoring the class's rule is a request that touches it: the class is
	// built where the session stands, and does not hold there.
	repaired := target.Clone()
	repaired.SetTable(src.Switch, targets[0].Table(src.Switch))
	if _, err := lazy.Synthesize(repaired); !errors.Is(err, ErrClassBuild) {
		t.Fatalf("a request that touches the class: err = %v, want ErrClassBuild", err)
	}
}

// TestSharedArenaConcurrentSoak: many sessions sharing one arena and one
// warmth cache, each synthesizing its own stream on its own goroutine.
// Run under -race in CI, this is the shared-arena data-race soak; it also
// checks every session still produces the one-shot conformant plan.
func TestSharedArenaConcurrentSoak(t *testing.T) {
	stream, targets := rollingTargets(t, 61, 2, 4, 1)
	opts := Options{}
	res := SessionResources{Arena: kripke.NewArena(stream.Topo()), Warmth: mc.NewWarmth()}
	const sessions = 6
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := NewSessionWith(stream.Topo(), stream.Init(), stream.Specs(), opts, res)
			if err != nil {
				errc <- err
				return
			}
			for _, tgt := range targets {
				if _, err := sess.Synthesize(tgt); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRestoredFirstSynthesizeMatchesCold: a restored session serves —
// from its first Synthesize on — exactly as the cold-built session it
// was taken from does: it must return the cold session's plan and the
// cold session's statistics (timings and memo warmth aside): no phase
// does work on a restored session that it would not do on a cold one.
func TestRestoredFirstSynthesizeMatchesCold(t *testing.T) {
	stream, targets := rollingTargets(t, 47, 2, 3, 1)
	sessions := lazyFinalSessions(t, stream, Options{})
	cold, restored := sessions["cold"], sessions["restored"]
	for n, tgt := range targets {
		want, err := cold.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: cold: %v", n, err)
		}
		got, err := restored.Synthesize(tgt)
		if err != nil {
			t.Fatalf("step %d: restored: %v", n, err)
		}
		if got.String() != want.String() {
			t.Fatalf("step %d: restored plan diverged:\n got %s\nwant %s", n, got, want)
		}
		if g, w := untimed(got.Stats), untimed(want.Stats); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: restored stats diverged:\n got %+v\nwant %+v", n, g, w)
		}
	}
}

// untimed is countersOnly with the closure-extension memo's hits folded
// into its misses: the memo is per-checker scratch the image does not
// carry, so a restored checker starts with it empty — the lookups must
// still total the same.
func untimed(st Stats) Stats {
	st = countersOnly(st)
	st.ExtendMisses, st.ExtendHits = st.ExtendMisses+st.ExtendHits, 0
	return st
}

// countersOnly clears what of a run's statistics is not a function of its
// input: the wall-clock fields and the caller's request id.
func countersOnly(st Stats) Stats {
	st.Elapsed, st.RebindElapsed, st.SearchElapsed = 0, 0, 0
	st.WaitRemovalElapsed, st.VerifyElapsed, st.CacheVerifyElapsed = 0, 0, 0
	st.ComponentElapsed = nil
	st.RequestID = ""
	return st
}

// parsedImage is an image taken apart by a decoder that shares the
// varint primitives and the rule codec with RestoreSession and nothing
// else: the tests use it to rewrite the configuration section and reseal.
// Of an older image it also holds the label tables and class sections
// (parseOlderImage), which no decoder of the program reads any more, to
// damage one field of them.
type parsedImage struct {
	head    []byte // magic, version, context fingerprint
	runs    int
	config  []byte // the configuration section, verbatim
	older   bool
	tables  []imageTable
	classes []imageClass
	tail    []byte // the cache section
}

type imageTable struct {
	key    string
	labels [][]ltl.Valuation
}

type imageClass struct {
	key    string
	ids    []int
	labels []int // indexes into the formula's table
	succ   [][]int
}

// forwarding returns the position of the first listed state that has a
// successor.
func (c *imageClass) forwarding() int {
	for j := range c.ids {
		if len(c.succ[j]) > 0 {
			return j
		}
	}
	panic("class section lists no state with a successor")
}

func parseImage(t testing.TB, img []byte) *parsedImage { return parseAnyImage(t, img, false) }

// parseOlderImage parses a version-2 image.
func parseOlderImage(t testing.TB, img []byte) *parsedImage { return parseAnyImage(t, img, true) }

func parseAnyImage(t testing.TB, img []byte, older bool) *parsedImage {
	t.Helper()
	body := img[:len(img)-sha256.Size]
	r := &snapReader{buf: body}
	p := &parsedImage{head: r.take(len(snapMagic) + 4 + sha256.Size), older: older}
	p.runs = r.num()
	at := r.off
	decodeSwitches(r)
	p.config = body[at:r.off]
	if older {
		for n := r.count(); n > 0; n-- {
			tab := imageTable{key: r.str()}
			for labels := r.count(); labels > 0; labels-- {
				var lab []ltl.Valuation
				for vals := r.count(); vals > 0; vals-- {
					lab = append(lab, ltl.Valuation{r.uvarint(), r.uvarint()})
				}
				tab.labels = append(tab.labels, lab)
			}
			p.tables = append(p.tables, tab)
		}
		for n := r.count(); n > 0; n-- {
			c := imageClass{key: r.str()}
			states := r.count()
			r.count() // successor total: recomputed by encode
			id := 0
			for ; states > 0; states-- {
				id += r.num()
				c.ids = append(c.ids, id)
				c.labels = append(c.labels, r.num())
				var succ []int
				for k := r.count(); k > 0; k-- {
					succ = append(succ, r.num())
				}
				c.succ = append(c.succ, succ)
			}
			p.classes = append(p.classes, c)
		}
	}
	p.tail = body[r.off:]
	if r.err != nil {
		t.Fatalf("parsing the image: %v", r.err)
	}
	if !bytes.Equal(p.encode(), img) {
		t.Fatal("the test's decoder and encoder do not reproduce the image")
	}
	return p
}

// str reads a length-prefixed string of an older image's sections.
func (r *snapReader) str() string { return string(r.take(r.count())) }

func (w *snapWriter) str(s string) {
	w.count(len(s))
	w.raw([]byte(s))
}

// imageSwitch is one table of an image's configuration section.
type imageSwitch struct {
	sw    int
	rules []network.Rule
}

// decodeSwitches reads a configuration section as it is written, order
// and repeats included.
func decodeSwitches(r *snapReader) []imageSwitch {
	var out []imageSwitch
	for n := r.count(); n > 0; n-- {
		e := imageSwitch{sw: r.num()}
		for rules := r.count(); rules > 0; rules-- {
			e.rules = append(e.rules, decodeRule(r))
		}
		out = append(out, e)
	}
	return out
}

func (p *parsedImage) switches() []imageSwitch { return decodeSwitches(&snapReader{buf: p.config}) }

// setSwitches replaces the configuration section.
func (p *parsedImage) setSwitches(sws []imageSwitch) {
	w := &snapWriter{}
	w.count(len(sws))
	for _, e := range sws {
		w.count(e.sw)
		w.count(len(e.rules))
		for _, rule := range e.rules {
			encodeRule(w, rule)
		}
	}
	p.config = w.buf
}

// damagedImages returns img, an image in the current format, damaged
// under a valid checksum in the ways that take more than a byte: a
// configuration section that lists a switch twice, the later table another
// one, or two switches out of order, either of which would restore to a
// session whose next image is not the bytes it was given; a byte after the
// cache section; a cache section that claims more bytes than follow; and
// rules that forward out of port 1<<31, which every class build looks up.
func damagedImages(t testing.TB, img []byte) map[string][]byte {
	twice := parseImage(t, img)
	sws := twice.switches()
	sws = append(sws, imageSwitch{sw: sws[len(sws)-1].sw, rules: sws[0].rules})
	twice.setSwitches(sws)
	swapped := parseImage(t, img)
	sws = swapped.switches()
	sws[0], sws[1] = sws[1], sws[0]
	swapped.setSwitches(sws)
	trailing := parseImage(t, img)
	trailing.tail = append(bytes.Clone(trailing.tail), 0)
	overlong := parseImage(t, img)
	overlong.tail = []byte{1, 9, '{', '}'}
	farPort := parseImage(t, img)
	sws = farPort.switches()
	for _, e := range sws {
		for _, rule := range e.rules {
			for i := range rule.Actions {
				if rule.Actions[i].Kind == network.ActForward {
					rule.Actions[i].Port = 1 << 31
				}
			}
		}
	}
	farPort.setSwitches(sws)
	return map[string][]byte{
		"switch-listed-twice": twice.encode(), "switches-out-of-order": swapped.encode(),
		"trailing-byte": trailing.encode(), "cache-section-overlong": overlong.encode(),
		// A port no switch has, past 32 bits: every class is dropped at
		// its ingress, so the configuration violates its specification.
		"forwards-out-of-port-2^31": farPort.encode(),
	}
}

func (p *parsedImage) encode() []byte {
	w := &snapWriter{}
	w.raw(p.head)
	w.count(p.runs)
	w.raw(p.config)
	if p.older {
		w.count(len(p.tables))
		for _, tab := range p.tables {
			w.str(tab.key)
			w.count(len(tab.labels))
			for _, lab := range tab.labels {
				w.count(len(lab))
				for _, v := range lab {
					w.uvarint(v[0])
					w.uvarint(v[1])
				}
			}
		}
		w.count(len(p.classes))
		for _, c := range p.classes {
			w.str(c.key)
			w.count(len(c.ids))
			total := 0
			for _, succ := range c.succ {
				total += len(succ)
			}
			w.count(total)
			prev := 0
			for j, id := range c.ids {
				w.uvarint(uint64(id - prev)) // wraps for out-of-order ids, as damage should
				prev = id
				w.count(c.labels[j])
				w.count(len(c.succ[j]))
				for _, t := range c.succ[j] {
					w.count(t)
				}
			}
		}
	}
	w.raw(p.tail)
	return w.seal()
}

// TestSnapshotImageIsCanonical: an image says where the session is and
// nothing about how it got there. A session that walked a stream to a
// configuration and a session built cold at that configuration write the
// same configuration section; Snapshot -> Restore -> Snapshot is
// byte-identical from either, restored from bytes or onto the holder's
// configuration; and an image is sized by the configuration's rules.
func TestSnapshotImageIsCanonical(t *testing.T) {
	stream, targets := rollingTargets(t, 71, 3, 6, 2)
	opts := Options{}
	walked, err := NewSession(stream.Topo(), stream.Init(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for n, tgt := range targets {
		if _, err := walked.Synthesize(tgt); err != nil {
			t.Fatalf("step %d: %v", n, err)
		}
	}
	cold, err := NewSession(stream.Topo(), walked.Current(), stream.Specs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var images []*parsedImage
	for name, sess := range map[string]*Session{"walked": walked, "cold": cold} {
		img, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := RestoreSession(stream.Topo(), stream.Specs(), opts, img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, restored := range []*Session{decoded, Resume(stream.Topo(), stream.Specs(), opts, sess.Park(), SessionResources{})} {
			again, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, img) {
				t.Fatalf("%s: Snapshot -> Restore -> Snapshot changed the image (%d -> %d bytes)", name, len(img), len(again))
			}
		}
		if rules := walked.Current().NumRules(); len(img) > 80+16*rules {
			t.Fatalf("%s: %d bytes for %d rules", name, len(img), rules)
		}
		images = append(images, parseImage(t, img))
	}
	if !bytes.Equal(images[0].config, images[1].config) || !bytes.Equal(images[0].tail, images[1].tail) {
		t.Fatal("the two histories wrote different configuration or cache sections")
	}
}
