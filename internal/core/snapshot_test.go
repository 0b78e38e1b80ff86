package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
)

// TestSnapshotRoundTripByteIdentity: snapshot a warm mid-stream session,
// restore it, and serve the remainder of the stream from both the
// original (never-evicted) session and the restored one — every plan must
// be byte-identical, and the restored per-state labels must decode to the
// original's label sets.
func TestSnapshotRoundTripByteIdentity(t *testing.T) {
	stream, targets := rollingTargets(t, 47, 2, 6, 1)
	if len(targets) < 4 {
		t.Fatalf("stream too short: %d targets", len(targets))
	}
	opts := Options{Parallelism: 1}
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
// reproduce the original plans (label ids are remapped on re-intern).
func TestSnapshotRoundTripSharedResources(t *testing.T) {
	stream, targets := rollingTargets(t, 53, 2, 5, 1)
	opts := Options{Parallelism: 1}
	res := SessionResources{Arena: kripke.NewArena(stream.Topo()), Warmth: mc.NewWarmth()}

	// A sibling tenant warms the shared resources first, so the restored
	// session's label ids cannot all coincide with the snapshot's.
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

// TestSnapshotRejection: corrupted, truncated, version-skewed,
// context-mismatched and label-less images must be rejected with the
// matching sentinel (the pool falls back to a cold rebuild on any of
// them), and a session over a caller-supplied checker refuses to write
// one.
func TestSnapshotRejection(t *testing.T) {
	stream, targets := rollingTargets(t, 59, 2, 3, 1)
	opts := Options{Parallelism: 1}
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
		bad := append([]byte(nil), img[:len(img)-sha256.Size]...)
		binary.LittleEndian.PutUint32(bad[len(snapMagic):], snapVersion+1)
		sum := sha256.Sum256(bad)
		bad = append(bad, sum[:]...)
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("skewed image: err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("context-mismatch", func(t *testing.T) {
		other := Options{Parallelism: 1, TwoSimple: true}
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), other, img); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("mismatched options: err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("no-labeling", func(t *testing.T) {
		// The last class record: formula key, #states, then the labels
		// flag this clears — what a checker without a labeling wrote
		// before the engine served the incremental checker only.
		last := len(sess.specs) - 1
		w := &snapWriter{}
		w.str(sess.specs[last].Formula.String())
		w.count(sess.ks[last].NumStates())
		at := bytes.LastIndex(img, w.buf)
		if at < 0 || img[at+len(w.buf)] != 1 {
			t.Fatal("class record not found in the image")
		}
		bad := append([]byte(nil), img[:len(img)-sha256.Size]...)
		bad[at+len(w.buf)] = 0
		bad = (&snapWriter{buf: bad}).seal()
		if _, err := RestoreSession(stream.Topo(), stream.Specs(), opts, bad); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("label-less class record: err = %v, want ErrBadSnapshot", err)
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

// TestSharedArenaConcurrentSoak: many sessions sharing one arena and one
// warmth cache, each synthesizing its own stream on its own goroutine.
// Run under -race in CI, this is the shared-arena data-race soak; it also
// checks every session still produces the one-shot conformant plan.
func TestSharedArenaConcurrentSoak(t *testing.T) {
	stream, targets := rollingTargets(t, 61, 2, 4, 1)
	opts := Options{Parallelism: 1}
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

// TestRestoredFirstSynthesizeMatchesCold: the first Synthesize after
// RestoreSession seeds its verification structures exactly as a
// cold-built session's first Synthesize does — clones of the search
// structures, rebound over the diff — so it must return the cold session's plan and the cold session's statistics (timings
// and memo warmth aside): no phase does work on a restored session that
// it would not do on a cold one.
func TestRestoredFirstSynthesizeMatchesCold(t *testing.T) {
	stream, targets := rollingTargets(t, 47, 2, 3, 1)
	sessions := lazyFinalSessions(t, stream, Options{Parallelism: 1})
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

// untimed clears the wall-clock fields of a run's statistics, and folds
// the closure-extension memo's hits into its misses: the memo is
// per-checker scratch the image does not carry, so a restored checker
// starts with it empty — the lookups must still total the same.
func untimed(st Stats) Stats {
	st.ExtendMisses, st.ExtendHits = st.ExtendMisses+st.ExtendHits, 0
	st.Elapsed, st.RebindElapsed, st.SearchElapsed = 0, 0, 0
	st.WaitRemovalElapsed, st.VerifyElapsed, st.CacheVerifyElapsed = 0, 0, 0
	st.ComponentElapsed = nil
	return st
}
