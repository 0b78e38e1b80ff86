package core

import (
	"errors"
	"testing"

	"netupdate/internal/config"
)

// conformanceCase is one synthesis problem posed identically to every
// engine configuration under test.
type conformanceCase struct {
	name string
	sc   *config.Scenario
	opts Options
}

// synthesizeOutcome runs one configuration and normalizes the result to
// (feasible, plan). Terminal errors other than ErrNoOrdering fail the test.
func synthesizeOutcome(t *testing.T, name string, sc *config.Scenario, opts Options) (bool, *Plan) {
	t.Helper()
	plan, err := Synthesize(sc, opts)
	if err != nil {
		if errors.Is(err, ErrNoOrdering) {
			return false, nil
		}
		t.Fatalf("%s: %v", name, err)
	}
	return true, plan
}
