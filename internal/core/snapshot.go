package core

// Session snapshot/restore (ROADMAP item 3). A warm session is expensive
// to build — per-class Kripke structures (table application plus a global
// cycle check per class), a full initial labeling per checker, and the
// interned label tables — and all of it was being thrown away on pool
// eviction and process restart. This file serializes the warm state to a
// compact versioned binary image and rebuilds a session from it while
// skipping every expensive step: the state arena is shared or rebuilt
// from the topology, per-class transition relations are installed from
// recorded successor lists (no table application, no cycle check — the
// snapshot was taken from a structure that was built and checked against
// the same configuration, and the image is checksummed), and the
// checkers are reconstructed from their recorded per-state labels (no
// relabelAll, the dominant cost).
//
// The plan cache (with its learned wrong-pattern/SAT/dead-set stores) is
// not session state: it belongs to whoever attached it — the pool shares
// one store between tenants and keeps it across evictions — so
// Session.Snapshot leaves the cache section empty, and an image a pool
// holds for an evicted tenant costs nothing that grows with the tenant's
// history. An image that leaves the process (tenant migration, restart
// persistence) gets the owner's cache embedded by EmbedCache.
//
// Format (all integers varint-encoded unless noted):
//
//	"NUSS" | u32le version | 32-byte context fingerprint
//	runs counter
//	config:  #switches, then per switch (ascending): id, #rules, rules
//	warmth:  #formulas, then per formula (sorted key order): key,
//	         #labels, per label #valuations + raw [2]uint64 words
//	classes: #classes, then per class (spec order): formula key,
//	         #states, labels flag (always 1; an image without a labeling
//	         is refused); run-length-encoded label and sink-label arrays
//	         (ids index this formula's warmth section; -1 = unset) and
//	         the per-state atom valuations as default + exceptions (most
//	         states satisfy no atomic subformula, so the sparse form is a
//	         handful of entries); then #successors total and the
//	         per-state successor lists
//	cache:   flag; when flagged (EmbedCache), the PlanCacheSnapshot JSON blob
//	sha256 checksum of everything above (raw 32 bytes)
//
// Label ids are private to the exporting table, so the decoder re-interns
// every label into the (possibly shared, possibly pre-populated) target
// table and remaps the per-state arrays — restoring into a fresh table
// reproduces the original ids exactly, and restoring into a shared one
// lands on whatever ids the table already assigned, which is invisible to
// synthesis (only label contents carry meaning). The context fingerprint
// binds the image to the topology, the class specifications, and the
// plan-shape options; restore rejects any mismatch, any unknown version,
// and any checksum failure, and callers fall back to a cold build.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"netupdate/internal/config"
	"netupdate/internal/ltl"
	"netupdate/internal/mc"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

const (
	snapMagic   = "NUSS"
	snapVersion = 1
)

// Snapshot decode failure modes. Callers distinguish them only to report;
// every one of them means "cold-rebuild instead".
var (
	// ErrBadSnapshot reports a corrupted or truncated snapshot image
	// (checksum or structural decode failure).
	ErrBadSnapshot = errors.New("core: corrupted session snapshot")
	// ErrSnapshotVersion reports a version-skewed snapshot image.
	ErrSnapshotVersion = errors.New("core: unsupported session snapshot version")
	// ErrSnapshotMismatch reports a snapshot taken under a different
	// topology, class specification set, or plan-shape options.
	ErrSnapshotMismatch = errors.New("core: session snapshot context mismatch")
)

// --- encoding primitives ---

type snapWriter struct {
	buf []byte
}

func (w *snapWriter) raw(b []byte)     { w.buf = append(w.buf, b...) }
func (w *snapWriter) u32(v uint32)     { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *snapWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *snapWriter) count(n int)      { w.uvarint(uint64(n)) }
func (w *snapWriter) str(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated at offset %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length, bounding it by what could possibly
// fit in the remaining bytes so a corrupted length cannot drive a huge
// allocation before the checksum would have caught it.
func (r *snapReader) count() int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.buf)-r.off) {
		r.fail("count %d exceeds remaining %d bytes", v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

// num reads one plain non-negative value (a switch id, a state id, a
// counter) — unlike count it carries no collection-size bound.
func (r *snapReader) num() int {
	return int(r.uvarint())
}

func (r *snapReader) str() string {
	n := r.count()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// --- encode ---

// Snapshot serializes the session's warm state — current configuration,
// interned label tables, per-class transition relations and labelings —
// into a self-validating binary image that RestoreSession rebuilds
// byte-identically (same plans, same stats modulo timings). The attached
// plan cache is not included (see EmbedCache). The session must be
// quiescent (no Synthesize in flight). A session built over a
// caller-supplied checker (SessionResources.Factory) has no labeling to
// record and cannot be snapshotted.
func (s *Session) Snapshot() ([]byte, error) {
	w := &snapWriter{buf: make([]byte, 0, 4096)}
	w.raw([]byte(snapMagic))
	w.u32(snapVersion)
	if s.ctxFP == nil {
		s.ctxFP = contextFingerprint(s.topo, s.specs, s.opts)
	}
	w.raw(s.ctxFP)
	w.count(s.runs)

	// Configuration: ascending switches, rules in stored order (Clone
	// semantics — the restored config must be indistinguishable from the
	// retained pointer).
	sws := s.cur.Switches()
	w.count(len(sws))
	for _, sw := range sws {
		w.count(sw)
		tbl := s.cur.Table(sw)
		w.count(len(tbl))
		for _, rule := range tbl {
			encodeRule(w, rule)
		}
	}

	// Warmth: every formula's label table, dumped in id order so the
	// snapshot-local label index equals the exporting table's LabelID.
	type tabDump struct {
		key    string
		labels [][]ltl.Valuation
	}
	var tabs []tabDump
	s.warm.ForEach(func(key string, tab *mc.LabelTable) {
		tabs = append(tabs, tabDump{key: key, labels: tab.Export()})
	})
	w.count(len(tabs))
	for _, td := range tabs {
		w.str(td.key)
		w.count(len(td.labels))
		for _, lab := range td.labels {
			w.count(len(lab))
			for _, v := range lab {
				w.uvarint(v[0])
				w.uvarint(v[1])
			}
		}
	}

	// Per-class structures, in spec order.
	w.count(len(s.specs))
	for i, cs := range s.specs {
		w.str(cs.Formula.String())
		k := s.ks[i]
		n := k.NumStates()
		w.count(n)
		chk, ok := s.checkers[i].(*mc.Incremental)
		if !ok {
			return nil, fmt.Errorf("core: snapshot: class %d is checked by %s, not the incremental checker", i, s.checkers[i].Name())
		}
		w.buf = append(w.buf, 1)
		label, sinkLab := chk.ExportLabels()
		encodeIDsRLE(w, label)
		encodeIDsRLE(w, sinkLab)
		encodeAtoms(w, chk.ExportAtoms())
		total := 0
		for id := 0; id < n; id++ {
			total += len(k.Succ(id))
		}
		w.count(total)
		for id := 0; id < n; id++ {
			succ := k.Succ(id)
			w.count(len(succ))
			for _, t := range succ {
				w.count(t)
			}
		}
	}

	w.buf = append(w.buf, 0) // empty cache section
	return w.seal(), nil
}

// seal appends the checksum of everything written so far.
func (w *snapWriter) seal() []byte {
	sum := sha256.Sum256(w.buf)
	w.raw(sum[:])
	return w.buf
}

// EmbedCache returns a copy of img — an image from Session.Snapshot —
// whose cache section carries c's entries, for images that must bring
// their learned state along because they leave the process that holds the
// cache. RestoreSession hands the section to the restored session
// undecoded (Session.Cache decodes it on first access).
func EmbedCache(img []byte, c *PlanCache) ([]byte, error) {
	n := len(img) - sha256.Size
	if n < 1 || img[n-1] != 0 {
		return nil, fmt.Errorf("%w: no empty cache section to fill", ErrBadSnapshot)
	}
	blob, err := json.Marshal(c.Snapshot())
	if err != nil {
		return nil, err
	}
	w := &snapWriter{buf: make([]byte, 0, len(img)+len(blob)+binary.MaxVarintLen64)}
	w.raw(img[:n-1])
	w.buf = append(w.buf, 1)
	w.count(len(blob))
	w.raw(blob)
	return w.seal(), nil
}

func encodeRule(w *snapWriter, r network.Rule) {
	w.varint(int64(r.Priority))
	w.varint(int64(r.Match.InPort))
	w.varint(int64(r.Match.Src))
	w.varint(int64(r.Match.Dst))
	w.varint(int64(r.Match.Typ))
	w.count(len(r.Actions))
	for _, a := range r.Actions {
		w.varint(int64(a.Kind))
		w.varint(int64(a.Port))
		w.varint(int64(a.Field))
		w.varint(int64(a.Value))
	}
}

func decodeRule(r *snapReader) network.Rule {
	rule := network.Rule{
		Priority: int(r.varint()),
		Match: network.Pattern{
			InPort: topology.Port(r.varint()),
			Src:    int(r.varint()),
			Dst:    int(r.varint()),
			Typ:    int(r.varint()),
		},
	}
	nActs := r.count()
	if r.err != nil {
		return rule
	}
	rule.Actions = make([]network.Action, nActs)
	for i := range rule.Actions {
		rule.Actions[i] = network.Action{
			Kind:  network.ActionKind(r.varint()),
			Port:  topology.Port(r.varint()),
			Field: network.FieldID(r.varint()),
			Value: int(r.varint()),
		}
	}
	return rule
}

// encodeIDsRLE writes a per-state label-id array as runs of equal
// values. Labelings are extremely repetitive — most states of a class
// carry one of a handful of labels in long stretches — so the run form
// shrinks the image and turns per-state decode work (a varint and a
// remap lookup each) into per-run work.
func encodeIDsRLE(w *snapWriter, a []mc.LabelID) {
	runs := 0
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j] == a[i] {
			j++
		}
		runs++
		i = j
	}
	w.count(runs)
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j] == a[i] {
			j++
		}
		w.uvarint(uint64(j - i))
		w.varint(int64(a[i]))
		i = j
	}
}

// decodeIDsRLE rebuilds a dense per-state id array from its run
// encoding, remapping each run's id once into the target table's id
// space.
func decodeIDsRLE(r *snapReader, n int, remap []mc.LabelID) []mc.LabelID {
	out := make([]mc.LabelID, n)
	runs := r.count()
	at := 0
	for k := 0; k < runs && r.err == nil; k++ {
		ln := int(r.uvarint())
		if ln <= 0 || at+ln > n {
			r.fail("label run of %d at state %d overflows %d states", ln, at, n)
			return nil
		}
		id := remapLabel(r, remap)
		for e := at + ln; at < e; at++ {
			out[at] = id
		}
	}
	if r.err == nil && at != n {
		r.fail("label runs cover %d of %d states", at, n)
		return nil
	}
	return out
}

// encodeAtoms writes a per-state atom-valuation array as a default value
// plus exceptions: formula atoms name specific switches and ports, so all
// but a handful of states share one valuation and the sparse form both
// keeps the image small and lets the decoder skip the per-state
// AtomValuation sweep that otherwise dominates checker reconstruction.
// The default is the most frequent valuation, ties broken by word value
// so the encoding is deterministic.
func encodeAtoms(w *snapWriter, atoms []ltl.Valuation) {
	counts := make(map[ltl.Valuation]int, 8)
	for _, v := range atoms {
		counts[v]++
	}
	var def ltl.Valuation
	bestN := 0
	for v, c := range counts {
		if c > bestN || (c == bestN && c > 0 && (v[0] < def[0] || (v[0] == def[0] && v[1] < def[1]))) {
			def, bestN = v, c
		}
	}
	w.uvarint(def[0])
	w.uvarint(def[1])
	w.count(len(atoms) - bestN)
	prev := 0
	for id, v := range atoms {
		if v == def {
			continue
		}
		w.uvarint(uint64(id - prev))
		prev = id
		w.uvarint(v[0])
		w.uvarint(v[1])
	}
}

// decodeAtoms reads the sparse per-state atom-valuation encoding into an
// image the checker materializes lazily (mc.AtomsImage): the dense array
// — by far the largest per-class allocation — is never built on the
// restore critical path.
func decodeAtoms(r *snapReader, n int) *mc.AtomsImage {
	img := &mc.AtomsImage{
		N:   n,
		Def: ltl.Valuation{r.uvarint(), r.uvarint()},
	}
	nExc := r.count()
	img.IDs = make([]int32, 0, nExc)
	img.Vals = make([]ltl.Valuation, 0, nExc)
	id := 0
	for e := 0; e < nExc && r.err == nil; e++ {
		id += int(r.uvarint())
		if id < 0 || id >= n {
			r.fail("atom exception state %d out of range [0,%d)", id, n)
			return nil
		}
		img.IDs = append(img.IDs, int32(id))
		img.Vals = append(img.Vals, ltl.Valuation{r.uvarint(), r.uvarint()})
	}
	return img
}

// --- decode ---

// RestoreSession rebuilds a session from a Snapshot image over private
// resources. The topology, class specifications, and options must be the
// ones the snapshot was taken under (validated via the context
// fingerprint); any integrity, version, or context failure is reported
// and the caller cold-builds instead.
func RestoreSession(topo *topology.Topology, specs []config.ClassSpec, opts Options, data []byte) (*Session, error) {
	return RestoreSessionWith(topo, specs, opts, data, SessionResources{})
}

// RestoreSessionWith is RestoreSession over shared resources: the state
// arena is reused instead of rebuilt, and the restored labels are
// re-interned into the shared warmth tables (id remap), so a restored
// tenant lands deduplicated exactly like a cold-built one would.
func RestoreSessionWith(topo *topology.Topology, specs []config.ClassSpec, opts Options, data []byte, res SessionResources) (*Session, error) {
	const headLen = len(snapMagic) + 4 + sha256.Size
	if len(data) < headLen+sha256.Size {
		return nil, fmt.Errorf("%w: %d-byte image", ErrBadSnapshot, len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if want := sha256.Sum256(body); string(want[:]) != string(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	r := &snapReader{buf: body}
	if string(r.take(len(snapMagic))) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.u32(); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotVersion, v, snapVersion)
	}
	fp := contextFingerprint(topo, specs, opts)
	if string(r.take(sha256.Size)) != string(fp) {
		return nil, ErrSnapshotMismatch
	}
	runs := r.num()

	// Configuration.
	cur := config.New()
	nSw := r.count()
	for i := 0; i < nSw && r.err == nil; i++ {
		sw := r.num()
		nRules := r.count()
		if r.err == nil && (sw < 0 || sw >= topo.NumSwitches()) {
			r.fail("table for switch %d of %d", sw, topo.NumSwitches())
		}
		if r.err != nil {
			break
		}
		tbl := make(network.Table, 0, nRules)
		for j := 0; j < nRules && r.err == nil; j++ {
			tbl = append(tbl, decodeRule(r))
		}
		cur.SetTable(sw, tbl)
	}
	if r.err != nil {
		return nil, r.err
	}

	s := newSessionShell(topo, cur, specs, opts, res)
	s.ctxFP = fp
	s.runs = runs

	// Warmth: re-intern every recorded label into the (possibly shared)
	// target table for its formula, building the old-id -> new-id remap
	// the per-class label arrays are rewritten through.
	specOf := make(map[string]*ltl.Formula, len(specs))
	for _, cs := range specs {
		specOf[cs.Formula.String()] = cs.Formula
	}
	remaps := make(map[string][]mc.LabelID)
	valBuf := make([]ltl.Valuation, 0, 64)
	nFormulas := r.count()
	for f := 0; f < nFormulas && r.err == nil; f++ {
		key := r.str()
		nLabels := r.count()
		if r.err != nil {
			break
		}
		spec, ok := specOf[key]
		if !ok {
			return nil, fmt.Errorf("%w: unknown formula %q", ErrBadSnapshot, key)
		}
		tab, err := s.warm.Table(spec)
		if err != nil {
			return nil, err
		}
		remap := make([]mc.LabelID, nLabels)
		for li := 0; li < nLabels && r.err == nil; li++ {
			nVals := r.count()
			valBuf = valBuf[:0]
			for vi := 0; vi < nVals && r.err == nil; vi++ {
				valBuf = append(valBuf, ltl.Valuation{r.uvarint(), r.uvarint()})
			}
			if r.err == nil {
				remap[li], _ = tab.Intern(valBuf)
			}
		}
		remaps[key] = remap
	}
	if r.err != nil {
		return nil, r.err
	}

	// Per-class structures.
	nClasses := r.count()
	if r.err == nil && nClasses != len(specs) {
		return nil, fmt.Errorf("%w: %d classes, want %d", ErrBadSnapshot, nClasses, len(specs))
	}
	for i := 0; i < nClasses && r.err == nil; i++ {
		cs := specs[i]
		key := r.str()
		if r.err == nil && key != cs.Formula.String() {
			return nil, fmt.Errorf("%w: class %d formula %q, want %q", ErrBadSnapshot, i, key, cs.Formula)
		}
		nStates := r.count()
		if flag := r.take(1); len(flag) == 1 && flag[0] != 1 {
			r.fail("class %d carries no labeling", i)
		}
		remap := remaps[key]
		label := decodeIDsRLE(r, nStates, remap)
		sinkLab := decodeIDsRLE(r, nStates, remap)
		atoms := decodeAtoms(r, nStates)
		// Successor lists decode into one flat backing array (the total
		// is recorded up front), capped subslices per state — thousands
		// of per-state allocations collapse into one.
		total := r.count()
		if r.err != nil {
			break
		}
		flatSucc := make([]int, total)
		succ := make([][]int, nStates)
		fill := 0
		for id := 0; id < nStates && r.err == nil; id++ {
			nSucc := r.count()
			if nSucc == 0 {
				continue
			}
			if fill+nSucc > total {
				r.fail("class %d successor total %d exceeded at state %d", i, total, id)
				break
			}
			lst := flatSucc[fill : fill+nSucc : fill+nSucc]
			for si := range lst {
				lst[si] = r.num()
			}
			succ[id] = lst
			fill += nSucc
		}
		if r.err == nil && fill != total {
			r.fail("class %d successor total %d, decoded %d", i, total, fill)
		}
		if r.err != nil {
			break
		}
		k, err := s.arena.Restore(cur, cs.Class, succ)
		if err != nil {
			return nil, fmt.Errorf("%w: class %d: %v", ErrBadSnapshot, i, err)
		}
		chk, err := mc.NewIncrementalRestored(k, cs.Formula, s.warm, atoms, label, sinkLab)
		if err != nil {
			return nil, fmt.Errorf("%w: class %d checker: %v", ErrBadSnapshot, i, err)
		}
		s.ks = append(s.ks, k)
		s.checkers = append(s.checkers, chk)
	}
	if r.err != nil {
		return nil, r.err
	}

	// Plan cache.
	flag := r.take(1)
	if len(flag) == 1 && flag[0] == 1 {
		n := r.count()
		blob := r.take(n)
		if r.err != nil {
			return nil, r.err
		}
		// The JSON decode is deferred to the first cache access
		// (Session.materializeCache), which is whoever merges the section
		// into the store it attaches (the pool's InstallSnapshot) or
		// Session.EnableCache; restore's critical path only copies the
		// checksummed blob. Images a pool holds for its own evicted tenants
		// have no section and never get here.
		if !opts.NoPlanCache {
			s.cacheBlob = append([]byte(nil), blob...)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(body)-r.off)
	}
	return s, nil
}

// remapLabel decodes one snapshot label id and maps it into the target
// table's id space. -1 (unset) passes through.
func remapLabel(r *snapReader, remap []mc.LabelID) mc.LabelID {
	v := r.varint()
	if v == int64(mc.NoLabel) {
		return mc.NoLabel
	}
	if v < 0 || v >= int64(len(remap)) {
		r.fail("label id %d out of range [0,%d)", v, len(remap))
		return mc.NoLabel
	}
	return remap[v]
}
