package sim

import (
	"reflect"
	"testing"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

// faultParams widens the window so lossy runs have time to retry to
// completion before the injection window closes.
func faultParams() Params {
	p := fastParams()
	p.Duration = time.Second
	p.InstallTimeout = 15 * time.Millisecond
	p.AckRetry = 200 * time.Microsecond
	return p
}

// TestFaultAckLossStillCompletes: the acceptance bar — under 20%
// injected ack loss the DAG executor must still commit every node with
// zero probe loss (retransmission hides the loss from the data plane).
func TestFaultAckLossStillCompletes(t *testing.T) {
	sc := config.Fig1RedBlue()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lossSeen := 0
	for seed := int64(0); seed < 8; seed++ {
		p := faultParams()
		p.Faults = &Faults{AckLoss: 0.2, Seed: seed}
		res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
		if res.Stalled {
			t.Fatalf("seed %d: executor stalled under 20%% ack loss; committed %v of %d", seed, res.Committed, len(plan.Updates()))
		}
		if res.Lost != 0 {
			t.Fatalf("seed %d: lost %d probes under ack loss; want 0", seed, res.Lost)
		}
		if len(res.Committed) != len(plan.Updates()) {
			t.Fatalf("seed %d: committed %v, want all %d nodes", seed, res.Committed, len(plan.Updates()))
		}
		lossSeen += res.AcksLost
	}
	if lossSeen == 0 {
		t.Fatal("20% ack loss injected across 8 seeds but no ack was ever lost; injector is dead")
	}
}

// TestFaultAckDuplicationIdempotent: duplicated ack deliveries must be
// absorbed without double-decrementing dependency counts.
func TestFaultAckDuplicationIdempotent(t *testing.T) {
	sc := config.Fig1RedBlue()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for seed := int64(0); seed < 8; seed++ {
		p := faultParams()
		p.Faults = &Faults{AckDup: 0.5, Seed: seed}
		res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
		if res.Stalled || res.Lost != 0 {
			t.Fatalf("seed %d: dup-only faults broke execution: %+v", seed, res)
		}
		dups += res.AcksDup
	}
	if dups == 0 {
		t.Fatal("50% ack duplication injected across 8 seeds but no duplicate observed")
	}
}

// TestFaultInstallLossRetried: silently-dropped installs are recovered
// by the watchdog's exponential-backoff retry.
func TestFaultInstallLossRetried(t *testing.T) {
	sc := config.Fig1RedBlue()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams()
	p.Faults = &Faults{InstallLoss: 0.4, Seed: 11}
	res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
	if res.Stalled || res.Lost != 0 {
		t.Fatalf("install loss not recovered: %+v", res)
	}
	if res.InstallRetries == 0 {
		t.Fatal("40% install loss injected but the watchdog never retried")
	}
}

// TestFaultCrashReportsCommittedPrefix: killing the switch of a later
// node right after the first commit must stall the run, and Committed
// must name exactly the nodes that made it (a dependency-closed set).
func TestFaultCrashReportsCommittedPrefix(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := plan.Updates()
	if len(ups) < 2 {
		t.Fatalf("need >= 2 updates, got %d", len(ups))
	}
	p := faultParams()
	p.Faults = &Faults{Crash: &Crash{Switch: ups[1].Switch, AtCommit: 1}, Seed: 1}
	res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
	if !res.Stalled {
		t.Fatalf("crashed switch sw%d but the run completed: %+v", ups[1].Switch, res)
	}
	committed := map[int]bool{}
	for _, j := range res.Committed {
		if ups[j].Switch == ups[1].Switch {
			t.Fatalf("node %d on the crashed switch reported committed", j)
		}
		committed[j] = true
	}
	// Dependency closure: every committed node's predecessors committed.
	for _, j := range res.Committed {
		if d := plan.DAG; d != nil {
			for _, pr := range d.Preds[j] {
				if !committed[pr] {
					t.Fatalf("committed node %d has uncommitted predecessor %d", j, pr)
				}
			}
		}
	}
	if res.InstallRetries == 0 {
		t.Fatal("crashed install was never retried before the executor gave up")
	}
}

// TestFaultCrashFromStart: AtCommit == 0 kills the switch before any
// commit; probes through it blackhole and the run stalls immediately.
func TestFaultCrashFromStart(t *testing.T) {
	sc := config.Fig1RedGreen()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := plan.Updates()
	p := faultParams()
	p.Faults = &Faults{Crash: &Crash{Switch: ups[0].Switch}}
	res := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
	if !res.Stalled {
		t.Fatalf("dead-from-start switch but run completed: %+v", res)
	}
	for _, j := range res.Committed {
		if ups[j].Switch == ups[0].Switch {
			t.Fatalf("node %d on the dead switch reported committed", j)
		}
	}
}

// TestFaultRunsDeterministic: equal Params (fault seeds included) give
// byte-identical Results, and a zero-probability injector changes no
// delivery outcome relative to a fault-free run.
func TestFaultRunsDeterministic(t *testing.T) {
	sc := config.Fig1RedBlue()
	plan, err := core.Synthesize(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams()
	p.Faults = &Faults{AckLoss: 0.2, InstallLoss: 0.2, AckDup: 0.1, Seed: 99}
	a := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
	b := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed, different results:\n a=%+v\n b=%+v", a, b)
	}

	base := faultParams()
	clean := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), base)
	zp := faultParams()
	zp.Faults = &Faults{}
	zero := RunPlanDAG(sc.Topo, sc.Init, plan, classes(sc), zp)
	if zero.Sent != clean.Sent || zero.Delivered != clean.Delivered ||
		zero.Lost != clean.Lost || zero.CompleteAt != clean.CompleteAt ||
		!reflect.DeepEqual(zero.Buckets, clean.Buckets) {
		t.Fatalf("zero-probability injector changed delivery:\n clean=%+v\n zero=%+v", clean, zero)
	}
	if zero.Stalled || len(zero.Committed) != len(plan.Updates()) {
		t.Fatalf("zero-fault run misreported commits: %+v", zero)
	}
}

// TestFaultSpecParsing covers the -faults CLI grammar.
func TestFaultSpecParsing(t *testing.T) {
	f, err := ParseFaults("crash=3@1,ackloss=0.2,ackdup=0.05,installloss=0.1,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := &Faults{Crash: &Crash{Switch: 3, AtCommit: 1}, AckLoss: 0.2, AckDup: 0.05, InstallLoss: 0.1, Seed: 42}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if f, err = ParseFaults("crash=7"); err != nil || f.Crash.Switch != 7 || f.Crash.AtCommit != 0 {
		t.Fatalf("crash=7 parsed to %+v, %v", f, err)
	}
	for _, bad := range []string{"crash=x", "ackloss=1.5", "ackloss=-1", "ackloss=NaN", "installloss=nan", "boom=1", "seed=abc", "nonsense"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) accepted garbage", bad)
		}
	}
}

// FuzzParseFaults: a -faults specification is an error or an injector
// whose probabilities are all in [0,1) and whose crash, if any, comes at
// a commit index of 0 or more; never a panic. The seeds are the grammar's
// every key and the NaN probabilities it once accepted.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"crash=3@1,ackloss=0.2,ackdup=0.05,installloss=0.1,seed=42",
		"crash=7", " , ackdup=0.999 ,", "ackloss=NaN", "installloss=nan", "ackdup=-0", "crash=1@-1", "ackloss=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaults(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{fs.AckLoss, fs.AckDup, fs.InstallLoss} {
			if !(p >= 0 && p < 1) {
				t.Fatalf("%q: probability %v outside [0,1)", spec, p)
			}
		}
		if fs.Crash != nil && fs.Crash.AtCommit < 0 {
			t.Fatalf("%q: crash at commit %d", spec, fs.Crash.AtCommit)
		}
	})
}

// TestMinInflightSentTracking is the unit test for the drain-watermark
// bound: the tracked minimum must follow insertions and retirements
// exactly, including across head compaction.
func TestMinInflightSentTracking(t *testing.T) {
	s := &sim{inflightBySent: map[time.Duration]int{}}
	if _, ok := s.minInflightSent(); ok {
		t.Fatal("empty tracker reported an in-flight minimum")
	}
	s.trackSent(1)
	s.trackSent(1)
	s.trackSent(2)
	s.trackSent(5)
	if min, ok := s.minInflightSent(); !ok || min != 1 {
		t.Fatalf("min = %v,%v; want 1,true", min, ok)
	}
	s.untrackSent(1)
	if min, _ := s.minInflightSent(); min != 1 {
		t.Fatalf("min = %v after one of two retired; want 1", min)
	}
	s.untrackSent(1)
	if min, _ := s.minInflightSent(); min != 2 {
		t.Fatalf("min = %v; want 2", min)
	}
	s.untrackSent(2)
	s.untrackSent(5)
	if _, ok := s.minInflightSent(); ok {
		t.Fatal("drained tracker still reports an in-flight minimum")
	}

	// Compaction: retire a long prefix and confirm the head compacts
	// without losing the live tail.
	for i := 0; i < 200; i++ {
		s.trackSent(time.Duration(i + 10))
	}
	for i := 0; i < 150; i++ {
		s.untrackSent(time.Duration(i + 10))
	}
	if min, ok := s.minInflightSent(); !ok || min != 160 {
		t.Fatalf("post-compaction min = %v,%v; want 160,true", min, ok)
	}
	if s.sentHead != 0 || len(s.sentQ) != 50 {
		t.Fatalf("compaction left head=%d len=%d; want 0,50", s.sentHead, len(s.sentQ))
	}
}
