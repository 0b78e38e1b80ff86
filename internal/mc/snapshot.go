package mc

import (
	"fmt"
	"sort"

	"netupdate/internal/kripke"
	"netupdate/internal/ltl"
)

// The session-snapshot surface: exporting a label-based checker's warm
// state (the interned label tables plus the per-state label arrays) and
// rebuilding a checker from it without repeating the full initial
// relabel, which is what makes a snapshot restore cheap. Labels are
// structure-independent valuation sets, so they serialize as raw
// [2]uint64 words; per-state arrays serialize as IDs into the exporting
// table and are re-interned on restore (IDs are private to a table, so a
// restore into a shared, already-populated table remaps them).

// NoLabel is the exported sentinel for "state not labeled yet", for
// snapshot encoders that persist per-state label arrays.
const NoLabel = noLabel

// Export returns the table's current id->label view. The slice and the
// labels it holds are shared with the table and must not be mutated;
// index i is the label of LabelID(i).
func (t *LabelTable) Export() [][]ltl.Valuation { return t.snapshot() }

// Table returns the shared label table for spec, creating the entry on
// first use (so a restore can pre-populate warmth before any checker is
// built over it).
func (w *Warmth) Table(spec *ltl.Formula) (*LabelTable, error) {
	e, err := w.entry(spec)
	if err != nil {
		return nil, err
	}
	return e.tab, nil
}

// ForEach calls fn for every cached formula in sorted key order (the
// formula's String form), so snapshot encoders emit deterministically.
func (w *Warmth) ForEach(fn func(formula string, tab *LabelTable)) {
	w.mu.Lock()
	keys := make([]string, 0, len(w.entries))
	for k := range w.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tabs := make([]*LabelTable, len(keys))
	for i, k := range keys {
		tabs[i] = w.entries[k].tab
	}
	w.mu.Unlock()
	for i, k := range keys {
		fn(k, tabs[i])
	}
}

// ExportLabels exposes the warm per-state labeling (label, sinkLab) for
// snapshotting. The returned slices alias checker state — callers must
// copy or encode them before the checker runs again.
func (l *labeler) ExportLabels() ([]LabelID, []LabelID) { return l.label, l.sinkLab }

// ExportAtoms exposes the per-state atomic-subformula valuations under
// the same aliasing rule, materializing a still-compressed restored image
// first.
func (l *labeler) ExportAtoms() []ltl.Valuation {
	l.ensureAtoms()
	return l.atoms
}

// AtomsImage is the sparse form of a per-state atom-valuation array, as a
// snapshot stores it: almost every state shares one default valuation
// (formula atoms name specific switches and ports, so most states look
// alike to them), and only the exceptions are listed. A restored labeler
// keeps the image and materializes the full array on first relabel
// (ensureAtoms), so a session resumed just to serve plan-cache hits never
// pays for the expansion.
type AtomsImage struct {
	N    int             // total states
	Def  ltl.Valuation   // valuation of every state not listed in IDs
	IDs  []int32         // exception state ids, strictly increasing
	Vals []ltl.Valuation // Vals[i] is the valuation of state IDs[i]
}

// materialize expands the image into the dense per-state array.
func (a *AtomsImage) materialize() []ltl.Valuation {
	atoms := make([]ltl.Valuation, a.N)
	for i := range atoms {
		atoms[i] = a.Def
	}
	for i, id := range a.IDs {
		atoms[id] = a.Vals[i]
	}
	return atoms
}

// newLabelerRestored builds a labeler over a snapshot's per-state arrays
// instead of sweeping the structure: the atoms image, label, and sinkLab
// are adopted, not copied (the decoder owns them and hands them over),
// which is what makes restore-time checker construction O(validate)
// rather than O(states x formula). Every state must be labeled: the
// incremental checker reads labels eagerly.
func newLabelerRestored(k *kripke.K, spec *ltl.Formula, w *Warmth, atoms *AtomsImage, label, sinkLab []LabelID) (*labeler, error) {
	l, err := newLabelerShell(k, spec, w)
	if err != nil {
		return nil, err
	}
	n := k.NumStates()
	if atoms == nil || atoms.N != n {
		return nil, fmt.Errorf("mc: restore: atom image does not cover %d states", n)
	}
	if len(label) != n || len(sinkLab) != n {
		return nil, fmt.Errorf("mc: restore: %d/%d labels for %d states", len(label), len(sinkLab), n)
	}
	max := LabelID(l.tab.Len())
	for i := 0; i < n; i++ {
		if label[i] >= max || label[i] <= noLabel {
			return nil, fmt.Errorf("mc: restore: state %d label %d out of range [0,%d)", i, label[i], max)
		}
		if sinkLab[i] >= max || sinkLab[i] < noLabel {
			return nil, fmt.Errorf("mc: restore: state %d sink label %d out of range", i, sinkLab[i])
		}
	}
	l.atomsImg = atoms
	l.label = label
	l.sinkLab = sinkLab
	return l, nil
}

// NewIncrementalRestored is NewIncrementalWarm fed a snapshot labeling:
// the per-state atom valuations and labels are installed instead of
// recomputed, skipping both the atom sweep and the full-structure relabel
// that dominate warm-checker construction. The violating-initial
// bookkeeping is re-derived from the labels (a scan of the initial states
// only). label/sinkLab must index the warmth table of spec — i.e. they
// were remapped by the snapshot decoder if the table is shared — and
// every state must be labeled. All three slices are adopted.
func NewIncrementalRestored(k *kripke.K, spec *ltl.Formula, w *Warmth, atoms *AtomsImage, label, sinkLab []LabelID) (Checker, error) {
	l, err := newLabelerRestored(k, spec, w, atoms, label, sinkLab)
	if err != nil {
		return nil, err
	}
	return newIncrementalPrelabeled(l, k), nil
}
