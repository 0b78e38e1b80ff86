package lb

import (
	"fmt"
	"testing"
)

// TestRingDeterministicAndStable: independently built rings agree on
// placement regardless of insertion order, and removing one replica
// remaps only the keys it owned.
func TestRingDeterministicAndStable(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := NewRing()
	for _, rep := range replicas {
		r1.Add(rep)
	}
	r2 := NewRing()
	for i := len(replicas) - 1; i >= 0; i-- {
		r2.Add(replicas[i])
	}
	keys := make([]string, 200)
	owned := map[string]int{}
	for i := range keys {
		keys[i] = fmt.Sprintf("t%04x", i)
		o1, ok1 := r1.Owner(keys[i])
		o2, ok2 := r2.Owner(keys[i])
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("key %s: rings disagree (%q vs %q)", keys[i], o1, o2)
		}
		owned[o1]++
	}
	for _, rep := range replicas {
		if owned[rep] == 0 {
			t.Fatalf("replica %s owns nothing across 200 keys: %v", rep, owned)
		}
	}

	before := map[string]string{}
	for _, k := range keys {
		before[k], _ = r1.Owner(k)
	}
	r1.Remove(replicas[1])
	for _, k := range keys {
		after, ok := r1.Owner(k)
		if !ok {
			t.Fatal("ring emptied unexpectedly")
		}
		if before[k] != replicas[1] && after != before[k] {
			t.Fatalf("key %s moved from surviving replica %s to %s", k, before[k], after)
		}
		if after == replicas[1] {
			t.Fatalf("key %s still owned by removed replica", k)
		}
	}
}
