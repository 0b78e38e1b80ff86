package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// moveClasses returns cfg with each listed class on the route it has in
// to (every rule of to that matches exactly the class's flow).
func moveClasses(cfg, to *config.Config, classes []config.Class) *config.Config {
	out := cfg.Clone()
	for _, cl := range classes {
		config.RemoveClassRules(out, cl)
		for _, sw := range to.Switches() {
			for _, rule := range to.Table(sw) {
				if rule.Match == cl.Pattern() {
					out.AddRule(sw, rule)
				}
			}
		}
	}
	return out
}

// classesSeeing lists the classes whose packet some rule on one side only
// matches at some switch, between two configurations — what a request
// from one to the other can affect — by filtering each table down to the
// class's rules and comparing, rather than by diffing the tables first.
func classesSeeing(specs []config.ClassSpec, a, b *config.Config) []int {
	var out []int
	for ci, cs := range specs {
		pkt := cs.Class.Packet()
		mine := func(tbl network.Table) (m []string) {
			for _, r := range tbl {
				if headerMatches(r.Match, pkt) {
					m = append(m, fmt.Sprint(r))
				}
			}
			slices.Sort(m)
			return m
		}
		for sw := 0; sw < max(a.Span(), b.Span()); sw++ {
			if !slices.Equal(mine(a.Table(sw)), mine(b.Table(sw))) {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

// verifyPlanOn is verifyPlan over one state arena for all the structures
// it builds: the plan reaches final from init, and every configuration on
// the way satisfies every class.
func verifyPlanOn(t *testing.T, arena *kripke.Arena, specs []config.ClassSpec, init, final *config.Config, plan *Plan) {
	t.Helper()
	cfgs := plan.Configs(init)
	if d := config.Diff(cfgs[len(cfgs)-1], final); len(d) != 0 {
		t.Fatalf("plan does not reach the final configuration; differs on %v", d)
	}
	for i, cfg := range cfgs {
		for _, cs := range specs {
			k, err := arena.Build(cfg, cs.Class)
			if err != nil {
				t.Fatalf("configuration %d of plan %v: class %v: %v", i, plan, cs.Class, err)
			}
			if chk, err := mc.NewIncremental(k, cs.Formula); err != nil || !chk.Check().OK {
				t.Fatalf("configuration %d of plan %v violates class %v (err %v)", i, plan, cs.Class, err)
			}
		}
	}
}

// TestLazyRestoreMatchesWarm: a session that is written to an image and
// restored onto its holder's configuration after every request — so it
// serves each one with no class built but those the request's diff
// touches — answers a random stream exactly as a session kept warm does:
// the same plans, DAGs, errors and statistics (timings, and the memo of
// closure extensions a fresh checker starts without, aside), over misses,
// flap hits, rejected intents, their memo hits and failure acks with
// repairs, at table and rule granularity and with 2-simple units. (A
// failure ack names steps of the plan before it, which the image does not
// carry: between a plan and its ack the session is not restored, as a pool
// does not repair on a session it has evicted.) Along the way the lazily
// restored session has built exactly the classes a changed rule has
// matched since its restore, every built one sits at its configuration,
// and every plan it returns is checked prefix by prefix.
func TestLazyRestoreMatchesWarm(t *testing.T) {
	topo := topology.SmallWorld(160, 6, 0.3, 7)
	sc, err := config.MultiRegion(topo, config.MultiRegionOptions{
		Regions: 4, PairsPerRegion: 2, InfeasibleRegions: 1, CrossClasses: 1,
		Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var movable, gadget []config.Class
	for _, cs := range sc.Specs {
		var reg int
		var side string
		switch {
		case len(classesSeeing([]config.ClassSpec{cs}, sc.Init, sc.Final)) == 0:
		case func() bool { n, _ := fmt.Sscanf(cs.Class.Name, "r%dg%s", &reg, &side); return n == 2 }():
			gadget = append(gadget, cs.Class)
		default:
			movable = append(movable, cs.Class)
		}
	}
	if len(movable) < 4 || len(gadget) != 2 {
		t.Fatalf("%d movable and %d gadget classes: want a multi-class tenant with one gadget", len(movable), len(gadget))
	}
	steps := 25
	if testing.Short() {
		steps = 15
	}
	for _, g := range []struct {
		name string
		opts Options
	}{{"table", Options{}}, {"rules", Options{RuleGranularity: true}}, {"2-simple", Options{TwoSimple: true}}} {
		t.Run(g.name, func(t *testing.T) {
			fp := ContextFingerprint(sc.Topo, sc.Specs, g.opts)
			side := func() (*Session, SessionResources, *PlanCache) {
				res := SessionResources{Arena: kripke.NewArena(sc.Topo), Warmth: mc.NewWarmth(), ContextFP: fp}
				s, err := NewSessionWith(sc.Topo, sc.Init, sc.Specs, g.opts, res)
				if err != nil {
					t.Fatal(err)
				}
				cache := NewPlanCache(0)
				s.SetCache(cache)
				return s, res, cache
			}
			warm, _, _ := side()
			lazy, res, cache := side()
			evict := func() {
				held := lazy.Current()
				lazy = Resume(sc.Topo, sc.Specs, g.opts, lazy.Park(), res)
				if lazy.Current() != held || slotsAtCurrent(t, g.name, lazy) != 0 {
					t.Fatal("resumed from its handle, the session is elsewhere or has classes built")
				}
				lazy.SetCache(cache)
			}
			same := func(n int, what string, wp, lp *Plan, werr, lerr error) {
				t.Helper()
				if fmt.Sprint(werr) != fmt.Sprint(lerr) {
					t.Fatalf("step %d, %s: warm err %v, lazy err %v", n, what, werr, lerr)
				}
				if g, w := untimed(lazy.LastStats()), untimed(warm.LastStats()); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d, %s: stats diverged:\nlazy %+v\nwarm %+v", n, what, g, w)
				}
				if werr != nil {
					return
				}
				if lp.String() != wp.String() || !reflect.DeepEqual(lp.DAG, wp.DAG) {
					t.Fatalf("step %d, %s: plans diverged:\nlazy %s %+v\nwarm %s %+v", n, what, lp, lp.DAG, wp, wp.DAG)
				}
			}
			r := rand.New(rand.NewSource(20150613))
			onFinal := map[string]bool{}
			var moving []config.Class
			counts := map[string]int{}
			for n := 0; n < steps; n++ {
				// A cycle of five requests: one to three classes at random
				// move, move back, and flap once more each way — the third
				// and fourth are repeats — and then the gadget's two classes
				// are asked to move together, which no switch-granularity
				// ordering does.
				switch n % 5 {
				case 0:
					moving = nil
					for _, i := range r.Perm(len(movable))[:1+r.Intn(3)] {
						moving = append(moving, movable[i])
					}
				case 4:
					moving = gadget
				}
				cur := lazy.Current()
				target := cur
				for _, cl := range moving {
					to := sc.Final
					if onFinal[cl.Name] {
						to = sc.Init
					}
					target = moveClasses(target, to, []config.Class{cl})
				}
				evict()
				wp, werr := warm.Synthesize(target)
				lp, lerr := lazy.Synthesize(target)
				what := "miss"
				switch st := lazy.LastStats(); {
				case errors.Is(lerr, ErrNoOrdering) && st.CacheHit:
					what = "memo hit"
				case errors.Is(lerr, ErrNoOrdering):
					what = "rejected intent"
				case lerr != nil:
					t.Fatalf("step %d: %v", n, lerr)
				case st.CacheHit:
					what = "flap hit"
				}
				counts[what]++
				same(n, what, wp, lp, werr, lerr)
				if want := classesSeeing(sc.Specs, cur, target); lazy.ClassBuilds() != len(want) {
					t.Fatalf("step %d, %s: %d classes built, the diff touches %v", n, what, lazy.ClassBuilds(), want)
				} else {
					for _, ci := range want {
						if lazy.ks[ci] == nil {
							t.Fatalf("step %d, %s: class %d is touched and not built", n, what, ci)
						}
					}
				}
				slotsAtCurrent(t, g.name, lazy)
				if lerr != nil {
					continue
				}
				verifyPlanOn(t, res.Arena, sc.Specs, cur, target, lp)
				for _, cl := range moving {
					onFinal[cl.Name] = !onFinal[cl.Name]
				}
				if ups := len(lp.Updates()); ups >= 2 && r.Intn(4) == 0 {
					// The plan stalls after a prefix of its steps (closed
					// under the DAG: every edge points forward).
					committed := make([]int, 1+r.Intn(ups-1))
					for i := range committed {
						committed[i] = i
					}
					crash := crashState(cur, lp, committed)
					wr, werr := warm.Repair(committed, nil)
					lr, lerr := lazy.Repair(committed, nil)
					counts["repair"]++
					same(n, "repair", wr, lr, werr, lerr)
					if lerr != nil {
						t.Fatalf("step %d: repair: %v", n, lerr)
					}
					if lr.Stats.TwoPhaseComponents == 0 {
						verifyPlanOn(t, res.Arena, sc.Specs, crash, target, lr)
					}
					slotsAtCurrent(t, g.name, lazy)
				}
			}
			t.Logf("%s: %v", g.name, counts)
			for _, what := range []string{"miss", "flap hit", "repair"} {
				if counts[what] == 0 {
					t.Errorf("the stream has no %s", what)
				}
			}
			if !g.opts.RuleGranularity && !g.opts.TwoSimple && (counts["rejected intent"] == 0 || counts["memo hit"] == 0) {
				t.Errorf("the stream has %d rejected intents and %d memo hits", counts["rejected intent"], counts["memo hit"])
			}
		})
	}
}
