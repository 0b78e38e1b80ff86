package core

// Session snapshot/restore. A warm session is expensive to build —
// per-class Kripke structures (table application plus a cycle check per
// class), an initial labeling per checker, and the interned label tables
// — and all of it was being thrown away on pool eviction and process
// restart. This file serializes the warm state to a compact versioned
// binary image and rebuilds a session from it without table application
// or labeling: the state arena is shared or rebuilt from the topology,
// per-class transition relations are installed from the recorded
// successor lists of the states the class connects (cycle-checked from
// the listed states, which costs what is listed) and bound to the decoded
// configuration, and the checkers adopt the recorded labels. Writing an
// image walks each structure's entries, not the arena.
//
// The plan cache (with its learned wrong-pattern/SAT/dead-set stores) is
// not session state: it belongs to whoever attached it — the pool shares
// one store between tenants and keeps it across evictions — so
// Session.Snapshot leaves the cache section empty, and an image a pool
// holds for an evicted tenant costs nothing that grows with the tenant's
// history. An image that leaves the process (tenant migration, restart
// persistence) gets the owner's cache embedded by EmbedCache.
//
// Format, version 2 (all integers varint-encoded unless noted):
//
//	"NUSS" | u32le version | 32-byte context fingerprint
//	runs counter
//	config:  #switches, then per switch (strictly ascending): id, #rules, rules
//	warmth:  #formulas, then per formula (sorted key order): key,
//	         #labels, per label #valuations + raw [2]uint64 words
//	classes: #classes, then per class (spec order): formula key,
//	         #connected states, #successors total, then per connected
//	         state in ascending id: id (as the difference from the one
//	         before), label id (an index into this formula's warmth
//	         section), #successors, successor ids
//	cache:   flag; when flagged (EmbedCache), the PlanCacheSnapshot JSON blob
//	sha256 checksum of everything above (raw 32 bytes)
//
// A class section lists the states that have a successor or a predecessor
// when the image is written and nothing else: an isolated state — nearly
// every state of the arena, in any one class — has no transitions to
// record, and its atom valuation and label are functions of its switch
// and port. So an image is sized by what the classes' rules connect, two
// sessions that reached one configuration by different routes write the
// same class sections, and Snapshot -> Restore -> Snapshot is
// byte-identical.
//
// Label ids are private to the exporting table, so the decoder re-interns
// every label into the (possibly shared, possibly pre-populated) target
// table and remaps the per-state ids — restoring into a fresh table
// reproduces the original ids exactly, and restoring into a shared one
// lands on whatever ids the table already assigned, which is invisible to
// synthesis (only label contents carry meaning). The context fingerprint
// binds the image to the topology, the class specifications, and the
// plan-shape options; restore rejects any mismatch, any unknown version,
// and any checksum failure, and callers fall back to a cold build.
//
// Version 1 differed in the class sections only (dense per-state label,
// sink-label and atom arrays). An image is the one carrier of a tenant's
// current configuration across processes, so a version-1 image is not
// refused: its checksum, fingerprint, run counter and configuration are
// read as above, the class structures are built cold at that
// configuration, and its class and cache sections are skipped unread
// (Session.RestoredCold reports it).

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
	snapVersion = 2
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
	w.raw(s.contextFP())
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

	// The connected states of every class and their labels, resolved
	// before the tables are dumped: the label of a sink never read so far
	// is interned by asking for it.
	var conn []int
	var labels []mc.LabelID
	ends := make([]int, len(s.specs))
	for i := range s.specs {
		chk, ok := s.checkers[i].(*mc.Incremental)
		if !ok {
			return nil, fmt.Errorf("core: snapshot: class %d is checked by %s, not the incremental checker", i, s.checkers[i].Name())
		}
		conn = s.ks[i].AppendConnected(conn)
		for _, id := range conn[len(labels):] {
			labels = append(labels, chk.LabelOf(id))
		}
		ends[i] = len(conn)
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
	from := 0
	for i, cs := range s.specs {
		w.str(cs.Formula.String())
		k := s.ks[i]
		ids := conn[from:ends[i]]
		w.count(len(ids))
		total := 0
		for _, id := range ids {
			total += len(k.Succ(id))
		}
		w.count(total)
		prev := 0
		for j, id := range ids {
			w.count(id - prev)
			prev = id
			w.count(int(labels[from+j]))
			succ := k.Succ(id)
			w.count(len(succ))
			for _, t := range succ {
				w.count(t)
			}
		}
		from = ends[i]
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
		a := decodeAction(r)
		if a.Kind == network.ActSetField && a.Field >= network.NumFields {
			// Applying the table would panic on it.
			r.fail("rule sets header field %d of %d", a.Field, network.NumFields)
		}
		rule.Actions[i] = a
	}
	return rule
}

func decodeAction(r *snapReader) network.Action {
	return network.Action{
		Kind:  network.ActionKind(r.varint()),
		Port:  topology.Port(r.varint()),
		Field: network.FieldID(r.varint()),
		Value: int(r.varint()),
	}
}

// config decodes a configuration section into a new configuration over
// the given number of switches.
func (r *snapReader) config(switches int) *config.Config {
	cur := config.NewSized(switches)
	nSw := r.count()
	for i, prev := 0, -1; i < nSw && r.err == nil; i++ {
		sw := r.num()
		nRules := r.count()
		if r.err == nil && (sw <= prev || sw >= switches) {
			// Ascending without repeats, as Snapshot writes them: SetTable
			// would let a later table for the same switch win, and the
			// session's next image would not be the bytes it was given.
			r.fail("table for switch %d after switch %d, of %d switches", sw, prev, switches)
		}
		prev = sw
		if r.err != nil {
			break
		}
		tbl := make(network.Table, 0, nRules)
		for j := 0; j < nRules && r.err == nil; j++ {
			tbl = append(tbl, decodeRule(r))
		}
		cur.SetTable(sw, tbl)
	}
	return cur
}

// configIs reads a configuration section and reports whether it is want's:
// the same switches, each holding the same rules in the same order — what
// Snapshot wrote if the session was at want. Nothing is allocated, and the
// reader stops at the first difference (the caller rewinds and decodes);
// on true it stands past the section.
func (r *snapReader) configIs(want *config.Config) bool {
	listed, matched := r.count(), 0
	for sw := 0; sw < want.Span(); sw++ {
		tbl := want.Table(sw)
		if len(tbl) == 0 {
			continue
		}
		if matched == listed || r.num() != sw || r.count() != len(tbl) {
			return false
		}
		matched++
		for _, rule := range tbl {
			if !r.ruleIs(rule) {
				return false
			}
		}
	}
	return matched == listed && r.err == nil
}

// ruleIs reads one rule and reports whether it is want.
func (r *snapReader) ruleIs(want network.Rule) bool {
	if int(r.varint()) != want.Priority ||
		topology.Port(r.varint()) != want.Match.InPort ||
		int(r.varint()) != want.Match.Src ||
		int(r.varint()) != want.Match.Dst ||
		int(r.varint()) != want.Match.Typ ||
		r.count() != len(want.Actions) {
		return false
	}
	for _, a := range want.Actions {
		if decodeAction(r) != a {
			return false
		}
	}
	return r.err == nil
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
	version := r.u32()
	if version != snapVersion && version != 1 {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotVersion, version, snapVersion)
	}
	// Compared with the context's fingerprint, not recomputed, when the
	// caller has it already.
	if res.ContextFP == nil {
		res.ContextFP = ContextFingerprint(topo, specs, opts)
	}
	if string(r.take(sha256.Size)) != string(res.ContextFP) {
		return nil, ErrSnapshotMismatch
	}
	runs := r.num()

	// Configuration: the caller's object when the section says what it
	// says, a decoded one otherwise.
	cur, cfgStart := res.Current, r.off
	if cur == nil || !r.configIs(cur) {
		r.off, r.err = cfgStart, nil
		cur = r.config(topo.NumSwitches())
	}
	if r.err != nil {
		return nil, r.err
	}

	if version == 1 {
		// The configuration is what only the image knows; everything after
		// it in a version-1 image is rebuilt, not read.
		res.Factory = nil
		s, err := NewSessionWith(topo, cur, specs, opts, res)
		if err != nil {
			return nil, fmt.Errorf("%w: version-1 image: %v", ErrBadSnapshot, err)
		}
		s.runs, s.restoredCold = runs, true
		return s, nil
	}

	s := newSessionShell(topo, cur, specs, opts, res)
	s.runs = runs

	// Warmth: re-intern every recorded label into the (possibly shared)
	// target table for its formula, building the old-id -> new-id remap
	// the per-class labels are rewritten through.
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
	nStates := s.arena.NumStates()
	for i := 0; i < nClasses && r.err == nil; i++ {
		cs := specs[i]
		key := r.str()
		if r.err == nil && key != cs.Formula.String() {
			return nil, fmt.Errorf("%w: class %d formula %q, want %q", ErrBadSnapshot, i, key, cs.Formula)
		}
		remap := remaps[key]
		// The listed states' successor lists decode into one flat backing
		// array (the total is recorded up front), capped subslices per
		// state.
		n, total := r.count(), r.count()
		if r.err != nil {
			break
		}
		ids := make([]int, n)
		labels := make([]mc.LabelID, n)
		succ := make([][]int, n)
		flatSucc := make([]int, total)
		id, fill := 0, 0
		for j := 0; j < n && r.err == nil; j++ {
			step, lab, nSucc := r.uvarint(), r.uvarint(), r.count()
			switch {
			case r.err != nil:
			case step > uint64(nStates):
				r.fail("class %d lists a state past %d of %d", i, id, nStates)
			case lab >= uint64(len(remap)):
				r.fail("class %d label id %d out of range [0,%d)", i, lab, len(remap))
			case fill+nSucc > total:
				r.fail("class %d successor total %d exceeded at state %d", i, total, id)
			}
			if r.err != nil {
				break
			}
			id += int(step)
			ids[j], labels[j] = id, remap[lab]
			lst := flatSucc[fill : fill+nSucc : fill+nSucc]
			for si := range lst {
				lst[si] = r.num()
			}
			succ[j] = lst
			fill += nSucc
		}
		if r.err == nil && fill != total {
			r.fail("class %d successor total %d, decoded %d", i, total, fill)
		}
		if r.err != nil {
			break
		}
		k, err := s.arena.Restore(cur, cs.Class, ids, succ)
		if err != nil {
			return nil, fmt.Errorf("%w: class %d: %v", ErrBadSnapshot, i, err)
		}
		chk, err := mc.NewIncrementalRestored(k, cs.Formula, s.warm, ids, labels)
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
