package core

// Session images. An image is what a session's holder writes when the
// session's state leaves the process — a daemon shutting down, a router
// moving a tenant to another replica — and what a session is made from
// again: the configuration the tenant is at, the run counter, and
// optionally the plan cache. It carries no class structure and no label:
// those are functions of the configuration, rebuilt from it, and never
// taken from bytes. A holder that lets a session go but keeps its tenant
// in the process parks it instead (park.go) and writes no image.
//
// The trust rule has two cases. A parked handle is trusted by identity:
// its configuration is the very object the session verified, so Resume
// binds to it with every class slot empty, and a request builds the
// classes its diff touches (Session.buildClasses). An image is bytes: its
// configuration is decoded, and every class is built and verified on it
// before the session exists — a configuration that violates some class is
// refused (ErrBadSnapshot) however valid its checksum.
//
// The plan cache is not session state: it belongs to whoever attached it
// — the pool shares one store between tenants and keeps it across
// evictions — so Session.Snapshot leaves the cache section empty. An image
// that leaves the process (tenant migration, restart persistence) gets the
// owner's cache embedded by EmbedCache; every plan in it is verified by
// replay before it is used (cache.go).
//
// Format, version 4 (all integers varint-encoded unless noted):
//
//	"NUSS" | u32le version | 32-byte context fingerprint
//	runs counter
//	config:  #switches, then per switch (strictly ascending): id, #rules, rules
//	cache:   flag; when flagged (EmbedCache), the section's length and the
//	         plan cache's entries in the same primitives (PlanCache.encode)
//	sha256 checksum of everything above (raw 32 bytes)
//
// Every encoder is deterministic, so Snapshot -> Restore -> Snapshot is
// byte-identical. The context fingerprint binds the image to the
// topology, the class specifications, and the plan-shape options; restore
// rejects any mismatch, any unknown version, and any checksum failure, and
// callers fall back to a cold build.
//
// Versions 1 and 2 put label tables and per-class sections (and then the
// cache section) between the configuration and the checksum; version 3
// carried the cache section as JSON. An image is the one carrier of a
// tenant's current configuration across processes, so an older image is
// not refused: its checksum, fingerprint, run counter and configuration
// are read as above, every class is built and verified at that
// configuration, and the rest of it is skipped unread
// (Session.RestoredCold reports it).

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"netupdate/internal/config"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

const (
	snapMagic   = "NUSS"
	snapVersion = 4
)

// Snapshot decode failure modes. Callers distinguish them only to report;
// every one of them means "cold-rebuild instead".
var (
	// ErrBadSnapshot reports a corrupted or truncated snapshot image
	// (checksum or structural decode failure), or one whose configuration
	// some class does not hold at.
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

// --- encode ---

// Snapshot serializes what the session's holder needs to make the session
// again — the current configuration and the run counter — into a
// self-validating binary image for RestoreSession. The attached plan cache
// is not included (see EmbedCache). The session must be quiescent (no
// Synthesize in flight). A session built over a caller-supplied checker
// (SessionResources.Factory) would restore as another kind of session and
// cannot be snapshotted.
func (s *Session) Snapshot() ([]byte, error) {
	if s.factory != nil {
		return nil, errors.New("core: snapshot: the session's checkers are its caller's, not the incremental checker")
	}
	w := &snapWriter{buf: make([]byte, 0, 2048)}
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
// their plans and memos along because they leave the process that holds
// the cache. RestoreSession decodes the section into the restored
// session's cache.
func EmbedCache(img []byte, c *PlanCache) ([]byte, error) {
	return embedCacheSection(img, c.encode())
}

// embedCacheSection returns a copy of img whose empty cache section holds
// sec, resealed.
func embedCacheSection(img, sec []byte) ([]byte, error) {
	n := len(img) - sha256.Size
	if n < 1 || img[n-1] != 0 {
		return nil, fmt.Errorf("%w: no empty cache section to fill", ErrBadSnapshot)
	}
	w := &snapWriter{buf: make([]byte, 0, len(img)+len(sec)+binary.MaxVarintLen64)}
	w.raw(img[:n-1])
	w.buf = append(w.buf, 1)
	w.count(len(sec))
	w.raw(sec)
	return w.seal(), nil
}

// encode returns the cache's section: the number of entries, then the
// entries, least recently used first, each as
//
//	32-byte key | 1 for an infeasibility memo, or 0 and the plan:
//	components | #steps, steps | #details, per detail: 2·step+add, rule |
//	per update step: #preds, preds, #drain, drain
//
// where a step is 0 for a wait, 1+2·sw for one that installs the request
// target's table on sw (cacheEntry), and 2+2·sw, #rules, rules for one
// that installs a table of its own, and a detail is a rule-granularity
// step's rule (cachedRule). The counters are not written: a restored
// cache starts cold on stats.
func (c *PlanCache) encode() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &snapWriter{}
	w.count(c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*cacheEntry)
		w.raw([]byte(ent.key))
		if ent.infeasible {
			w.count(1)
			continue
		}
		w.count(0)
		w.count(int(ent.components))
		w.count(len(ent.steps))
		for i := range ent.steps {
			switch st := &ent.steps[i]; {
			case st.wait:
				w.count(0)
			case st.target:
				w.count(1 + 2*int(st.sw))
			default:
				w.count(2 + 2*int(st.sw))
				encodeTable(w, st.table)
			}
		}
		w.count(len(ent.rules))
		for _, cr := range ent.rules {
			add := 0
			if cr.add {
				add = 1
			}
			w.count(2*int(cr.step) + add)
			encodeRule(w, cr.rule)
		}
		for _, v := range ent.dag {
			w.count(int(v))
		}
	}
	return w.buf
}

func encodeTable(w *snapWriter, tbl network.Table) {
	w.count(len(tbl))
	for _, rule := range tbl {
		encodeRule(w, rule)
	}
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

// table decodes a rule table.
func (r *snapReader) table() network.Table {
	n := r.count()
	tbl := make(network.Table, 0, n)
	for j := 0; j < n && r.err == nil; j++ {
		tbl = append(tbl, decodeRule(r))
	}
	return tbl
}

// config decodes a configuration section into a new configuration over
// the given number of switches.
func (r *snapReader) config(switches int) *config.Config {
	cur := config.NewSized(switches)
	nSw := r.count()
	for i, prev := 0, -1; i < nSw && r.err == nil; i++ {
		sw := r.num()
		tbl := r.table()
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
		cur.SetTable(sw, tbl)
	}
	return cur
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

// RestoreSessionWith is RestoreSession over shared resources. The image's
// configuration arrives as bytes, so every class is built and verified at
// it before the session exists, or the image is refused (ErrBadSnapshot).
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
	if version < 1 || version > snapVersion {
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

	cur := r.config(topo.NumSwitches())
	if r.err != nil {
		return nil, r.err
	}

	// Plan cache. An older image keeps its own behind sections no decoder
	// reads any more: the configuration is what only the image knows.
	var cacheSection []byte
	if version == snapVersion {
		if flag := r.take(1); len(flag) == 1 && flag[0] == 1 {
			// Only an image that left its process carries a section
			// (EmbedCache), and whoever installs it reads the cache at once
			// (the pool's InstallSnapshot merges it into the store it
			// attaches).
			cacheSection = r.take(r.count())
		}
		if r.err != nil {
			return nil, r.err
		}
		if r.off != len(body) {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(body)-r.off)
		}
	}

	// Nothing is served from the configuration before every class holds on
	// it.
	res.Factory = nil
	s, err := NewSessionWith(topo, cur, specs, opts, res)
	if err != nil {
		return nil, fmt.Errorf("%w: version-%d image: %v", ErrBadSnapshot, version, err)
	}
	s.restoredCold = version != snapVersion
	s.runs = runs
	if cacheSection != nil {
		s.cache = decodeCache(cacheSection, topo.NumSwitches())
	}
	return s, nil
}

// decodeCache returns the plan cache an image's cache section carries
// (PlanCache.encode), or nil when the section fails any check: a cold
// cache is always sound (every hit is verified by replay), so a section is
// taken whole or not at all. Tables are decoded as the configuration's
// are, a step must name a switch of the topology, a rule-granularity
// detail an update step, and a DAG edge an earlier update step; the DAG's
// depth and width are computed from its edges, not read. Entries are
// stored oldest first, so a section written by a larger store leaves its
// newest DefaultPlanCacheEntries in their order; a key is refused twice
// even when its first copy was evicted on the way.
func decodeCache(section []byte, switches int) *PlanCache {
	r := &snapReader{buf: section}
	cache := NewPlanCache(0)
	seen := map[string]bool{}
	for n := r.count(); n > 0 && r.err == nil; n-- {
		ent := &cacheEntry{key: string(r.take(sha256.Size))}
		if seen[ent.key] {
			r.fail("entry %x twice", ent.key)
		}
		seen[ent.key] = true
		switch kind := r.uvarint(); kind {
		case 0:
			r.planEntry(ent, uint64(switches))
		case 1:
			ent.infeasible = true
		default:
			r.fail("entry kind %d", kind)
		}
		if r.err == nil {
			cache.store(ent)
		}
	}
	if r.err != nil || r.off != len(section) {
		return nil
	}
	return cache
}

// planEntry decodes the plan of a cache entry into ent.
func (r *snapReader) planEntry(ent *cacheEntry, switches uint64) {
	if comps := r.uvarint(); comps > math.MaxInt32 {
		r.fail("%d components", comps)
	} else {
		ent.components = int32(comps)
	}
	ent.steps = make([]cachedStep, r.count())
	nodes := 0
	for i := 0; i < len(ent.steps) && r.err == nil; i++ {
		st := &ent.steps[i]
		code := r.uvarint()
		if code == 0 {
			st.wait = true
			continue
		}
		if sw := (code - 1) / 2; sw < switches {
			st.sw, st.target = int32(sw), code%2 == 1
		} else {
			r.fail("step %d on switch %d of %d", i, sw, switches)
		}
		if !st.target {
			st.table = r.table()
		}
		nodes++
	}
	nRules := r.count()
	for j, prev := 0, -1; j < nRules && r.err == nil; j++ {
		code := r.uvarint()
		if step := code / 2; step >= uint64(len(ent.steps)) || int(step) <= prev || ent.steps[step].wait {
			r.fail("rule detail %d for step %d after step %d", j, step, prev)
			return
		}
		prev = int(code / 2)
		ent.rules = append(ent.rules, cachedRule{step: int32(prev), add: code%2 == 1, rule: decodeRule(r)})
	}
	// Node j's level is the longest chain of predecessors below it; the
	// depth is the number of levels and the width the largest level.
	level, size := make([]int32, nodes), make([]int32, nodes)
	for j := 0; j < nodes && r.err == nil; j++ {
		for list := 0; list < 2; list++ {
			n := r.count()
			ent.dag = append(ent.dag, int32(n))
			for ; n > 0 && r.err == nil; n-- {
				p := r.uvarint()
				if p >= uint64(j) {
					r.fail("edge from node %d to node %d", p, j)
					return
				}
				ent.dag = append(ent.dag, int32(p))
				if list == 0 {
					level[j] = max(level[j], level[p]+1)
				}
			}
		}
		size[level[j]]++
		ent.depth, ent.width = max(ent.depth, level[j]+1), max(ent.width, size[level[j]])
	}
}
