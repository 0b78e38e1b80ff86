package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A/A and saved-output comparison: the same table the driver applies
// between a parent commit and a change, applied to two runs of one
// build, so the benchmark can show it agrees with itself.

// suite is one run of every workload, as saved to disk.
type suite struct {
	Host      string             `json:"host"`
	Seed      int64              `json:"seed"`
	Workloads map[string]*result `json:"workloads"`
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactMetrics are plan-quality counts taken over a seed-determined set
// of plans: two runs of the same code on the same seed must agree to the
// digit, whatever BENCHMARK.json allows across seeds.
var exactMetrics = map[string]bool{"plan_waits": true, "exec_makespan_simms": true}

func loadBounds(root string) ([]bound, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

func runSuite(e *env, seed int64, sz *sizes, seconds float64) (*suite, error) {
	s := &suite{Host: e.host, Seed: seed, Workloads: map[string]*result{}}
	for _, name := range workloadNames {
		r, err := measure(e, name, seed, sz, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printResult(e, name, seed, r)
		s.Workloads[name] = r
	}
	return s, nil
}

func (s *suite) save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAA measures the suite twice on the same binaries, saves both sets
// under benchmark/out, and compares them.
func runAA(e *env, seed int64, sz *sizes, seconds float64) int {
	bounds, err := loadBounds(e.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var sets [2]*suite
	for i := range sets {
		if sets[i], err = runSuite(e, seed, sz, seconds); err == nil {
			err = sets[i].save(filepath.Join(e.out, fmt.Sprintf("aa-%d.json", i+1)))
		}
		if err != nil {
			killChildren()
			fmt.Fprintf(os.Stderr, "benchmark: A/A set %d: %v\n", i+1, err)
			return 1
		}
	}
	if !compareSuites(sets[0], sets[1], bounds) {
		return 1
	}
	return 0
}

func compareFiles(oldPath, newPath string) int {
	var sets [2]suite
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 1
		}
	}
	// Bounds live in the checkout this binary was started from.
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	bounds, err := loadBounds(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !compareSuites(&sets[0], &sets[1], bounds) {
		return 1
	}
	return 0
}

// compareSuites prints, per workload and end-to-end metric, the two
// medians, how much worse the second is as a share of the first, and the
// bound, and reports whether every pair is inside its bound.
func compareSuites(a, b *suite, bounds []bound) bool {
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Printf("%-18s failed ops: %d and %d\n", name, ra.Failed, rb.Failed)
			ok = false
		}
		for _, bd := range bounds {
			va, vb := ra.Metrics[bd.Name].Value, rb.Metrics[bd.Name].Value
			worse := ratio(vb-va, va)
			if bd.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := ""
			switch {
			case exactMetrics[bd.Name] && a.Seed == b.Seed:
				if va != vb {
					verdict = "  DIFFERS (must match to the digit)"
				}
			case worse > bd.Bound:
				verdict = "  OUT OF BOUND"
			}
			if verdict != "" {
				ok = false
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", name, bd.Name, va, vb, worse*100, bd.Bound*100, verdict)
		}
	}
	return ok
}
