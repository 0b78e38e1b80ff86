package mc

import (
	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// Batch is the monolithic variant of the labeling checker (Section 5.2's
// "naive approach"): every call relabels the entire Kripke structure from
// scratch, ignoring previous results. It shares no incremental
// bookkeeping with Incremental, which makes it the differential oracle the
// tests compare against, and it is the Batch row of Figure 7
// (internal/bench).
type Batch struct {
	*labeler
}

// NewBatch builds the batch checker.
func NewBatch(k *kripke.K, spec *ltl.Formula) (Checker, error) {
	l, err := newLabeler(k, spec)
	if err != nil {
		return nil, err
	}
	return &Batch{labeler: l}, nil
}

// Name implements Checker.
func (c *Batch) Name() string { return "batch" }

// Check implements Checker: full relabel then scan.
func (c *Batch) Check() Verdict {
	c.relabelAll()
	return c.verdict()
}

// Update implements Checker by re-checking from scratch.
func (c *Batch) Update(delta *kripke.Delta) (Verdict, Token) {
	return c.Check(), batchToken{}
}

// Revert implements Checker. The batch checker keeps no incremental
// state: the next call relabels everything anyway.
func (c *Batch) Revert(t Token) {}

// Commit implements Checker: there is nothing to keep or to drop.
func (c *Batch) Commit(t Token) {}

// Stats implements Checker.
func (c *Batch) Stats() Stats { return c.stats }

// Rebind implements Checker. The batch checker re-derives everything
// on its next Check, so nothing needs refreshing; the interned labels and
// the Extend memo it keeps remain valid (they depend only on the fixed
// state arena) and make post-rebind relabels cheap.
func (c *Batch) Rebind(rewired []int) {}

type batchToken struct{}
