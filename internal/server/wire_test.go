package server

import (
	"encoding/json"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

// TestResultBytesPinned: the result line of a switch-granularity plan
// (waits kept, so the line has wait steps and switch 0) and of a
// rule-granularity plan is byte for byte what the encoder wrote when
// NewResult still grew its step list one append at a time and allocated
// each switch number on its own. The durations are zeroed: they are the
// only fields a run does not fix.
func TestResultBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		sc   *config.Scenario
		opts core.Options
		want string
	}{
		{"switch", config.Fig1RedBlueWaypoint(), core.Options{NoWaitRemoval: true},
			`{"seq":1,"tenant":"t1","result":"plan","steps":[{"op":"update","switch":7},{"op":"wait"},{"op":"update","switch":8},{"op":"wait"},{"op":"update","switch":5},{"op":"wait"},{"op":"update","switch":0}],"stats":{"units":4,"components":1,"checks":5,"classSkips":0,"waits":3,"dagDepth":4,"dagWidth":1,"elapsedMs":0},"dag":{"preds":[[],[0],[1],[2]],"drain":[[],[],[],[]],"depth":4,"width":1}}`},
		{"rules", config.Fig1RedBlue(), core.Options{RuleGranularity: true},
			`{"seq":1,"tenant":"t1","result":"plan","steps":[{"op":"add","switch":7,"rule":"[10] dst=103,src=101 -\u003e fwd 1"},{"op":"add","switch":8,"rule":"[10] dst=103,src=101 -\u003e fwd 4"},{"op":"add","switch":5,"rule":"[10] dst=103,src=101 -\u003e fwd 3"},{"op":"add","switch":0,"rule":"[10] dst=103,src=101 -\u003e fwd 2"},{"op":"del","switch":8,"rule":"[10] dst=103,src=101 -\u003e fwd 3"},{"op":"del","switch":0,"rule":"[10] dst=103,src=101 -\u003e fwd 1"}],"stats":{"units":6,"components":1,"checks":5,"classSkips":2,"waits":0,"dagDepth":4,"dagWidth":3,"elapsedMs":0},"dag":{"preds":[[],[],[0],[],[1,2],[3,4]],"drain":[[],[],[],[],[],[]],"depth":4,"width":3}}`},
	} {
		plan, err := core.Synthesize(c.sc, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		st := &plan.Stats
		st.Elapsed, st.RebindElapsed, st.SearchElapsed, st.WaitRemovalElapsed, st.VerifyElapsed, st.CacheVerifyElapsed = 0, 0, 0, 0, 0, 0
		line, err := json.Marshal(NewResult(1, "t1", plan, nil))
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, line, c.want)
		}
	}
	// An empty plan still omits its steps.
	line, err := json.Marshal(NewResult(1, "t1", &core.Plan{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":1,"tenant":"t1","result":"plan","stats":{"units":0,"components":0,"checks":0,"classSkips":0,"waits":0,"elapsedMs":0}}`; string(line) != want {
		t.Errorf("empty plan:\n got %s\nwant %s", line, want)
	}
}
