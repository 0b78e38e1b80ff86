package kripke

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
)

// logWalk is one class structure driven through random operations, with
// the tables the test expects it at kept on the side: want[sw] is what
// Table(sw) must return, and each entry of stack holds an outstanding
// delta with the tables its switches had before it.
type logWalk struct {
	t     *testing.T
	name  string
	arena *Arena
	k     *K
	want  []network.Table
	stack []pending
}

type pending struct {
	d      *Delta
	before []tableSwap
	// sealed marks a delta a newer committed one sits on: it can only be
	// committed.
	sealed bool
}

// config returns a configuration holding the expected tables.
func (w *logWalk) config() *config.Config {
	cfg := config.New()
	for sw, tbl := range w.want {
		cfg.SetTable(sw, tbl)
	}
	return cfg
}

// check requires the structure to be, edge for edge, the one a fresh Build
// makes at the expected tables — successor lists in order, predecessor
// lists as multisets — and every successor list to be held by one state
// and by no free list of the log.
func (w *logWalk) check(op string) {
	w.t.Helper()
	k := w.k
	for sw, tbl := range w.want {
		if !k.Table(sw).Equal(tbl) {
			w.t.Fatalf("%s %s: Table(%d) is not the expected table", w.name, op, sw)
		}
	}
	fresh, err := w.arena.Build(w.config(), k.Class)
	if err != nil {
		w.t.Fatalf("%s %s: no fresh build at the expected tables: %v", w.name, op, err)
	}
	holder := map[*int]int{}
	for id := 0; id < k.NumStates(); id++ {
		if !slices.Equal(k.Succ(id), fresh.Succ(id)) {
			w.t.Fatalf("%s %s: Succ(%d) = %v, a fresh build has %v", w.name, op, id, k.Succ(id), fresh.Succ(id))
		}
		got, want := slices.Clone(k.Pred(id)), slices.Clone(fresh.Pred(id))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			w.t.Fatalf("%s %s: Pred(%d) = %v, a fresh build has %v", w.name, op, id, got, want)
		}
		if s := k.Succ(id); len(s) > 0 {
			if other, ok := holder[&s[0]]; ok {
				w.t.Fatalf("%s %s: states %d and %d hold one successor list", w.name, op, other, id)
			}
			holder[&s[0]] = id
		}
	}
	if k.log == nil {
		return
	}
	for _, s := range k.log.free {
		if id, ok := holder[&s[:1][0]]; ok {
			w.t.Fatalf("%s %s: state %d holds a list the log has freed", w.name, op, id)
		}
	}
}

// apply records a delta the structure accepted: a loop is rolled back at
// once, as the engine does, and anything else stays outstanding.
func (w *logWalk) apply(op string, d *Delta, err error, switches []int, tables []network.Table) (loop bool) {
	w.t.Helper()
	var l *ErrLoop
	if err != nil && !errors.As(err, &l) {
		w.t.Fatalf("%s %s: %v", w.name, op, err)
	}
	p := pending{d: d}
	for i, sw := range switches {
		p.before = append(p.before, tableSwap{sw: sw, old: w.want[sw]})
		w.want[sw] = tables[i]
	}
	w.stack = append(w.stack, p)
	if l != nil {
		w.revert()
		return true
	}
	return false
}

func (w *logWalk) revert() {
	p := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.k.Revert(p.d)
	for i := len(p.before) - 1; i >= 0; i-- {
		w.want[p.before[i].sw] = p.before[i].old
	}
}

func (w *logWalk) commit() {
	p := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.k.Commit(p.d)
	if n := len(w.stack); n > 0 {
		w.stack[n-1].sealed = true
	}
}

// rewriting is a table of sw whose class rule rewrites a header of the
// class packet: installing it is an error that must leave the structure
// as it was.
func rewriting(w *logWalk, sw int) network.Table {
	ports := w.k.Topo.Ports(sw)
	return network.Table{{
		Priority: 99, Match: w.k.Class.Pattern(),
		Actions: []network.Action{network.SetField(network.FieldTyp, 9), network.Forward(ports[0])},
	}}
}

// TestUndoLogMatchesFreshBuild drives every class structure of random
// shared-switch scenarios through random sequences of what the engine and
// the session do to the undo log — one-switch and multi-switch updates,
// some closing a loop and rolled back, some carrying a rule that rewrites
// the class packet and refused; reverts; commits of the newest deltas,
// after which the ones under them are committed too; rebases with and
// without deltas outstanding; rebinds of some switches and of all of them,
// which abandon the outstanding deltas — and after every operation
// requires the structure to equal a fresh Build at the tables the test
// expects. The expectation is the test's own: a list recycled while a
// state still holds it shows up as a divergence, as does one state's list
// handed to two. Whenever a rebase finds no delta outstanding, the log
// must be back in the pool.
func TestUndoLogMatchesFreshBuild(t *testing.T) {
	counts := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		topo, base, classes := sharedScene(r, seed)
		arena := NewArena(topo)
		for _, cl := range classes {
			k, err := arena.Build(base, cl)
			if err != nil {
				continue // a catch-all closed a loop for this class
			}
			w := &logWalk{t: t, name: fmt.Sprintf("seed %d class %s", seed, cl.Name), arena: arena, k: k}
			for sw := 0; sw < topo.NumSwitches(); sw++ {
				w.want = append(w.want, base.Table(sw))
			}
			for step := 0; step < 60; step++ {
				var op string
				switch n := r.Intn(20); {
				case n < 6:
					op = "update"
					sw := r.Intn(topo.NumSwitches())
					tbl := randomTable(r, topo, base, classes, sw)
					if r.Intn(12) == 0 {
						op = "refused update"
						tbl = rewriting(w, sw)
						if d, err := k.UpdateSwitch(sw, tbl); d != nil || err == nil {
							t.Fatalf("%s: a packet rewrite was accepted", w.name)
						}
						break
					}
					d, err := k.UpdateSwitch(sw, tbl)
					if w.apply(op, d, err, []int{sw}, []network.Table{tbl}) {
						op = "looping update, reverted"
					}
				case n < 9:
					op = "multi-switch update"
					cfg := config.New()
					var some []int
					var tables []network.Table
					refuse := r.Intn(8) == 0
					for i, sw := range r.Perm(topo.NumSwitches())[:2+r.Intn(3)] {
						tbl := randomTable(r, topo, base, classes, sw)
						if refuse && i > 0 {
							tbl = rewriting(w, sw)
						}
						cfg.SetTable(sw, tbl)
						some = append(some, sw)
						tables = append(tables, cfg.Table(sw))
					}
					d, err := k.UpdateSwitches(cfg, some)
					if refuse {
						op = "refused multi-switch update"
						if d != nil || err == nil {
							t.Fatalf("%s: a packet rewrite was accepted", w.name)
						}
						break
					}
					if w.apply(op, d, err, some, tables) {
						op = "looping multi-switch update, reverted"
					}
				case n < 12:
					if len(w.stack) == 0 || w.stack[len(w.stack)-1].sealed {
						continue
					}
					op = "revert"
					w.revert()
				case n < 15:
					if len(w.stack) == 0 {
						continue
					}
					op = "commit"
					for m := 1 + r.Intn(len(w.stack)); m > 0; m-- {
						w.commit()
					}
				case n < 18:
					op = "rebase"
					k.Rebase(w.config())
					if len(w.stack) == 0 && k.log != nil {
						t.Fatalf("%s: a rebase with no delta outstanding kept the log", w.name)
					}
					if len(w.stack) > 0 && k.log == nil {
						t.Fatalf("%s: a rebase with deltas outstanding dropped the log", w.name)
					}
				default:
					op = "rebind"
					cfg := config.New()
					var some []int
					for sw := 0; sw < topo.NumSwitches(); sw++ {
						tbl := w.want[sw]
						if r.Intn(4) == 0 {
							tbl = randomTable(r, topo, base, classes, sw)
							some = append(some, sw)
						}
						cfg.SetTable(sw, tbl)
					}
					good := w.config()
					var err error
					if r.Intn(2) == 0 {
						_, _, err = k.Rebind(cfg)
					} else {
						_, err = k.RebindSwitches(cfg, some)
						if err == nil {
							k.Rebase(cfg)
						}
					}
					w.stack = w.stack[:0] // a rebind abandons the outstanding deltas
					if err != nil {
						op = "rebind to a cyclic target, and back"
						if _, _, err := k.Rebind(good); err != nil {
							t.Fatalf("%s: the way back loops: %v", w.name, err)
						}
						break
					}
					for sw := range w.want {
						w.want[sw] = cfg.Table(sw)
					}
					if k.log != nil {
						t.Fatalf("%s: a rebind and rebase kept the log", w.name)
					}
				}
				counts[op]++
				w.check(op)
			}
			for len(w.stack) > 0 {
				if w.stack[len(w.stack)-1].sealed || r.Intn(2) == 0 {
					w.commit()
				} else {
					w.revert()
				}
			}
			k.Rebase(w.config())
			w.check("end")
			if k.log != nil {
				t.Fatalf("%s: at rest the structure still holds its log", w.name)
			}
		}
	}
	for _, op := range []string{
		"update", "refused update", "looping update, reverted", "multi-switch update", "refused multi-switch update",
		"looping multi-switch update, reverted", "revert", "commit", "rebase", "rebind", "rebind to a cyclic target, and back",
	} {
		if counts[op] < 10 {
			t.Errorf("only %d × %q exercised", counts[op], op)
		}
	}
	t.Log(counts)
}

// TestDeltasEndInOrder: a delta ends newest first, once, and never after a
// rebind; one under a committed delta is committed too; Reapply takes only
// the delta just reverted. Each misuse panics rather than corrupt lists.
func TestDeltasEndInOrder(t *testing.T) {
	topo, cfg, cl := lineScene()
	fresh := func() *K {
		k, err := Build(topo, cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	update := func(k *K, sw int) *Delta {
		d, err := k.UpdateSwitch(sw, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	k := fresh()
	a, b := update(k, 1), update(k, 2)
	panics("Revert of the older delta", func() { k.Revert(a) })
	k.Revert(b)
	panics("a second Revert", func() { k.Revert(b) })
	panics("Reapply of a delta not just reverted", func() { k.Reapply(a) })
	k.Reapply(b)
	k.Commit(b)
	panics("Revert under a committed delta", func() { k.Revert(a) })
	k.Commit(a)

	k = fresh()
	a = update(k, 1)
	if _, _, err := k.Rebind(cfg); err != nil {
		t.Fatal(err)
	}
	panics("Revert after a rebind", func() { k.Revert(a) })
	if k.log != nil {
		t.Error("a Rebind with nothing outstanding kept the log")
	}
}
