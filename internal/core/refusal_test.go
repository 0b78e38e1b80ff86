package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// withClassRule is base with class cl's rules at sw replaced by one rule
// doing actions.
func withClassRule(base *config.Config, sw int, cl config.Class, actions ...network.Action) *config.Config {
	out := base.Clone()
	var tbl network.Table
	for _, r := range base.Table(sw) {
		if r.Match != cl.Pattern() {
			tbl = append(tbl, r)
		}
	}
	tbl = append(tbl, network.Rule{Priority: 10, Match: cl.Pattern(), Actions: actions})
	out.SetTable(sw, tbl)
	return out
}

// refusedTargets returns base moved, on one switch of class cl's path, to
// a target cl does not satisfy: "violating" drops the class at its
// ingress, "cyclic" sends it from the second hop back to the first, and
// "rewriting" has the second hop rewrite the packet's type on the way to
// the third.
func refusedTargets(t *testing.T, topo *topology.Topology, base *config.Config, cl config.Class) map[string]*config.Config {
	t.Helper()
	p, err := config.PathOf(base, topo, cl)
	if err != nil || len(p) < 3 {
		t.Fatalf("class %v: path %v (%v), want three hops or more", cl, p, err)
	}
	back, _ := topo.PortToward(p[1], p[0])
	on, _ := topo.PortToward(p[1], p[2])
	violating := base.Clone()
	var ingress network.Table
	for _, r := range base.Table(p[0]) {
		if r.Match != cl.Pattern() {
			ingress = append(ingress, r)
		}
	}
	violating.SetTable(p[0], ingress)
	return map[string]*config.Config{
		"violating": violating,
		"cyclic":    withClassRule(base, p[1], cl, network.Forward(back)),
		"rewriting": withClassRule(base, p[1], cl, network.SetField(network.FieldTyp, 9), network.Forward(on)),
	}
}

// refusalGolden is what each path refuses each target with: the messages
// a check of the whole target before the search reported, which the
// on-demand check must keep.
var refusalGolden = map[string]string{
	"components/cyclic":    "core: final configuration violates the specification: kripke: forwarding loop for class r1p0 through [arr(sw53,pt4) arr(sw23,pt7)]",
	"components/rewriting": "core: final configuration violates the specification: kripke: class r1p0: rule on sw23 modifies packet headers",
	"components/violating": "core: final configuration violates the specification: class r1p0",
	"joint/cyclic":         "core: final configuration violates the specification: kripke: forwarding loop for class r1p0 through [arr(sw53,pt4) arr(sw23,pt7)]",
	"joint/rewriting":      "core: final configuration violates the specification: kripke: class r1p0: rule on sw23 modifies packet headers",
	"joint/violating":      "core: final configuration violates the specification: class r1p0",
	"memo/cyclic":          "core: final configuration violates the specification: kripke: forwarding loop for class r0p0 through [arr(sw120,pt1) arr(sw3,pt3)]",
	"memo/rewriting":       "core: final configuration violates the specification: kripke: class r0p0: rule on sw3 modifies packet headers",
	"memo/violating":       "core: final configuration violates the specification: class r0p0",
	"one-unit/cyclic":      "core: final configuration violates the specification: kripke: forwarding loop for class r1p0 through [arr(sw53,pt4) arr(sw23,pt7)]",
	"one-unit/rewriting":   "core: final configuration violates the specification: kripke: class r1p0: rule on sw23 modifies packet headers",
	"one-unit/violating":   "core: final configuration violates the specification: class r1p0",
	"repair/cyclic":        "core: final configuration violates the specification: kripke: forwarding loop for class r1p0 through [arr(sw53,pt4) arr(sw23,pt7)]",
	"repair/rewriting":     "core: final configuration violates the specification: kripke: class r1p0: rule on sw23 modifies packet headers",
	"repair/violating":     "core: final configuration violates the specification: class r1p0",
	"timeout/cyclic":       "core: final configuration violates the specification: kripke: forwarding loop for class r1p0 through [arr(sw53,pt4) arr(sw23,pt7)]",
	"timeout/rewriting":    "core: final configuration violates the specification: kripke: class r1p0: rule on sw23 modifies packet headers",
	"timeout/violating":    "core: final configuration violates the specification: class r1p0",
}

// TestRefusalParity: a target one class does not satisfy — dropped,
// forwarded in a cycle, or rewritten on the way — is refused with
// ErrFinalViolation and the message a check of the whole target before
// the search gave, on every path a request takes: a one-unit diff, a
// multi-component diff, a joint search, a session whose cache holds an
// infeasibility memo, a repair, and a search its timeout cuts short before
// any check fails. Two components refusing at once give one answer,
// however many run at a time.
func TestRefusalParity(t *testing.T) {
	sc := multiRegionScenario(t, 3, 1, 0, 11)
	cl := sc.Specs[1].Class
	got := map[string]string{}
	refuse := func(path, kind string, synth func() error) {
		t.Helper()
		err := synth()
		if !errors.Is(err, ErrFinalViolation) {
			t.Fatalf("%s/%s: err = %v, want ErrFinalViolation", path, kind, err)
		}
		got[path+"/"+kind] = err.Error()
	}
	session := func(init *config.Config, opts Options) *Session {
		t.Helper()
		s, err := NewSession(sc.Topo, init, sc.Specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for kind, bad := range refusedTargets(t, sc.Topo, sc.Final, cl) {
		refuse("one-unit", kind, func() error {
			s := session(sc.Final, Options{})
			_, err := s.Synthesize(bad)
			if st := s.LastStats(); st.Units != 1 {
				t.Fatalf("one-unit/%s: %d units", kind, st.Units)
			}
			return err
		})
		refuse("components", kind, func() error {
			_, err := session(sc.Init, Options{}).Synthesize(bad)
			return err
		})
		refuse("joint", kind, func() error {
			_, err := session(sc.Init, Options{NoDecomposition: true}).Synthesize(bad)
			return err
		})
		refuse("repair", kind, func() error {
			s := session(sc.Init, Options{})
			plan, err := s.Synthesize(sc.Final)
			if err != nil {
				t.Fatal(err)
			}
			var committed []int
			for j, preds := range plan.DAG.Preds {
				if len(preds) == 0 {
					committed = append(committed, j)
					break
				}
			}
			_, err = s.Repair(committed, bad)
			return err
		})
		refuse("timeout", kind, func() error {
			_, err := session(sc.Init, Options{}).SynthesizeContext(expiresOnArrival(), bad)
			return err
		})
	}

	// A session whose cache holds a memo for its infeasible target refuses
	// a bad one all the same, and still answers the memo after.
	stuck, err := config.MultiRegion(topology.SmallWorld(160, 6, 0.3, 7), config.MultiRegionOptions{
		Regions: 2, InfeasibleRegions: 1, Property: config.Reachability, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind, bad := range refusedTargets(t, stuck.Topo, stuck.Final, stuck.Specs[0].Class) {
		refuse("memo", kind, func() error {
			s, err := NewSession(stuck.Topo, stuck.Init, stuck.Specs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.EnableCache()
			for range 2 {
				if _, err := s.Synthesize(stuck.Final); !errors.Is(err, ErrNoOrdering) {
					t.Fatalf("memo/%s: err = %v, want ErrNoOrdering", kind, err)
				}
			}
			if !s.LastStats().CacheHit {
				t.Fatalf("memo/%s: the infeasible target missed the memo", kind)
			}
			_, err = s.Synthesize(bad)
			if _, again := s.Synthesize(stuck.Final); !errors.Is(again, ErrNoOrdering) || !s.LastStats().CacheHit {
				t.Fatalf("memo/%s: after the refusal: err = %v, hit %v", kind, again, s.LastStats().CacheHit)
			}
			return err
		})
	}

	if len(got) != len(refusalGolden) { // the two-component case is pinned below
		t.Errorf("%d refusals, %d golden", len(got), len(refusalGolden))
	}
	for k, want := range refusalGolden {
		if got[k] != want {
			t.Errorf("%s:\n got %q\nwant %q", k, got[k], want)
		}
	}

	// Two classes of two components dropped at once: the lowest-numbered
	// component refusing is the answer, whichever finishes first.
	both := refusedTargets(t, sc.Topo, refusedTargets(t, sc.Topo, sc.Final, sc.Specs[2].Class)["violating"], sc.Specs[0].Class)["violating"]
	for _, procs := range []int{1, 4, 1, 4} {
		atProcs(procs, func() {
			refuse("two-components", fmt.Sprint(procs), func() error {
				_, err := session(sc.Init, Options{}).Synthesize(both)
				return err
			})
		})
	}
	for _, procs := range []string{"1", "4"} {
		if got, want := got["two-components/"+procs], "core: final configuration violates the specification: class "+sc.Specs[0].Class.String(); got != want {
			t.Errorf("two components refusing at %s procs:\n got %q\nwant %q", procs, got, want)
		}
	}
}

// expiresOnArrival returns a context that is live when a request arrives
// and past its deadline at every later poll: the search is cut short
// before its first check.
func expiresOnArrival() context.Context { return expiresAfter(1) }

// expiresAfter returns a context that is live for its first n polls of
// Err and past its deadline at every later one; its polls count them.
func expiresAfter(n int32) *lateContext {
	return &lateContext{Context: context.Background(), done: make(chan struct{}), live: n}
}

type lateContext struct {
	context.Context
	done  chan struct{}
	live  int32
	polls atomic.Int32
}

func (c *lateContext) Done() <-chan struct{} { return c.done }

func (c *lateContext) Err() error {
	if c.polls.Add(1) <= c.live {
		return nil
	}
	return context.DeadlineExceeded
}
