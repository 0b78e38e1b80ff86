package engine

import (
	"testing"

	"netupdate/internal/config"
)

// TestWaitRemovalKeepsPaperBarrier replays the paper's own sequence for
// the red-to-blue waypoint scenario (A2, A4, T1, C1) through the
// wait-removal heuristic: the barrier between T1 and C1 must survive —
// packets forwarded by the old T1 can reach C1, so updating C1 without a
// flush would let them skip both scrubbing waypoints.
func TestWaitRemovalKeepsPaperBarrier(t *testing.T) {
	sc := config.Fig1RedBlueWaypoint()
	_, n := config.Fig1Topology()
	e := newEngineShell(sc, grain{})
	var steps []Step
	for i, sw := range []int{n.A2, n.A4, n.T1, n.C1} {
		if i > 0 {
			steps = append(steps, Step{Wait: true})
		}
		steps = append(steps, Step{Switch: sw, Table: sc.Final.Table(sw)})
	}
	out := e.removeWaits(steps)
	var kept []int // index of the update that follows each kept wait
	for i, s := range out {
		if s.Wait {
			kept = append(kept, out[i+1].Switch)
		}
	}
	if len(kept) != 1 || kept[0] != n.C1 {
		t.Fatalf("kept waits before %v, want exactly one before C1 (sw%d); plan %v", kept, n.C1, out)
	}
}
