// Package config provides network configurations (per-switch forwarding
// tables), traffic classes, and the scenario generators used by the
// paper's evaluation: diamond updates over random node pairs (Section 6),
// infeasible double-diamonds (Figure 8h), and the Figure 1 datacenter
// example from the Overview.
package config

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// Config maps each switch to its forwarding table. A missing entry is the
// empty (drop-everything) table. Config is a network configuration in the
// paper's sense: a static network containing no packets.
//
// A Config is a persistent value: a table of fixed-size chunks of switch
// slots, each slot a pointer to an installed table. An installed table is
// never written again, and a chunk that two configurations share is never
// written in place: Clone copies the chunk table, and a write to a shared
// chunk copies that one chunk first. A target therefore shares with the
// configuration it was derived from every chunk its delta did not touch,
// and every table. Two configurations that hold the same chunk hold equal
// tables on its switches, and two that hold the same slice at a switch
// hold equal tables there (network.Table.Same): that is what lets Diff,
// RemoveClassRules and the digests skip what did not change. Each chunk
// memoizes its digest and the flow patterns its rules use, once,
// whichever configuration sharing it asks first.
//
// Mutating a Config is for whoever is still building it, on one
// goroutine. Once handed out — to a session, to a structure bound to it,
// to another goroutine — it is read-only, and any number of goroutines may
// read, digest and clone it at once.
type Config struct {
	chunks []*chunk // switch sw lives in chunks[sw>>chunkBits]; nil where all are empty
	span   int
	// tok is the token of the chunks this configuration may write in
	// place: those it created or copied since it was last cloned. Clone
	// gives both sides fresh tokens, so a chunk a clone shares carries a
	// token no configuration holds. Clone runs on read-only configurations
	// from several goroutines at once, so it writes tok atomically.
	tok    atomic.Uint64
	digest memo[[sha256.Size]byte] // Digest's
}

// chunkBits sets how many switch slots a chunk holds (1<<chunkBits). It
// trades the per-chunk terms of Clone, Diff and Digest, which scan the
// chunk table, against the per-switch terms of a written chunk, which is
// copied and rehashed whole.
const (
	chunkBits = 5
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is the tables of chunkSize consecutive switches.
type chunk struct {
	slots [chunkSize]*installed // nil where the table is empty
	owner uint64                // the token of the one configuration that may write it in place
	// Bit i of own is set while the backing array of slots[i].tbl was
	// allocated by the owner's AddRule or RemoveClassRules and no other
	// configuration may append to it: only then does AddRule append in
	// place — past the length every sharer holds — instead of copying. A
	// copied chunk starts with none, and Table hands out capped slices.
	own uint64
	sum memo[chunkSum]
	// flows indexes the slots by the flow patterns of their rules, so
	// RemoveClassRules visits only the slots that hold a class's. Once
	// computed it is kept exact through the owner's writes, and a copy of
	// the chunk starts from it.
	flows memo[flowSet]
}

// chunkSum is a chunk's digest — SHA-256 over the (slot, canonical table)
// pairs of its non-empty tables — and whether it has any.
type chunkSum struct {
	d     [sha256.Size]byte
	empty bool
}

// installed is a table some configuration installed, shared by every
// configuration cloned from it since: its identity stands for its
// contents (Diff).
type installed struct {
	tbl network.Table
}

// memo is a value computed once, whichever of the goroutines sharing its
// holder asks first: the flag is read without the lock, and set under it
// after the value.
type memo[T any] struct {
	done atomic.Bool
	mu   sync.Mutex
	v    T
}

func (m *memo[T]) get(f func() T) T {
	if !m.done.Load() {
		m.mu.Lock()
		if !m.done.Load() {
			m.v = f()
			m.done.Store(true)
		}
		m.mu.Unlock()
	}
	return m.v
}

// reset forgets the value; only the holder's one writer calls it.
func (m *memo[T]) reset() {
	if m.done.Load() { // a plain load: most writes find nothing to forget
		m.done.Store(false)
	}
}

var tokens atomic.Uint64

// New returns an empty configuration.
func New() *Config { return NewSized(0) }

// NewSized returns an empty configuration with room for the tables of
// switches 0..switches-1, for builders that know the switch count.
func NewSized(switches int) *Config {
	c := &Config{chunks: make([]*chunk, (switches+chunkMask)>>chunkBits), span: switches}
	c.tok.Store(tokens.Add(1))
	return c
}

// Span returns one past the highest switch that may hold a table.
func (c *Config) Span() int { return c.span }

// at returns what is installed on sw, nil for an empty table.
func (c *Config) at(sw int) *installed {
	if uint(sw) >= uint(c.span) {
		return nil
	}
	if ch := c.chunks[sw>>chunkBits]; ch != nil {
		return ch.slots[sw&chunkMask]
	}
	return nil
}

// table is the installed table, at its full capacity; nil for none.
func (in *installed) table() network.Table {
	if in == nil {
		return nil
	}
	return in.tbl
}

// Table returns the table installed on sw (nil if none). The caller must
// not modify it.
func (c *Config) Table(sw int) network.Table {
	tbl := c.at(sw).table()
	return tbl[:len(tbl):len(tbl)]
}

// TableDigest returns the canonical digest (network.Table.Digest) of the
// table on sw.
func (c *Config) TableDigest(sw int) [sha256.Size]byte { return c.Table(sw).Digest() }

// chunkFor returns the chunk holding sw, which must be below Span, as one
// this configuration may write: a chunk it does not own is copied first.
// The caller is about to write it, so the chunk's digest and the
// configuration's are dropped; its flow index is the caller's to update.
func (c *Config) chunkFor(sw int) *chunk {
	i, tok := sw>>chunkBits, c.tok.Load()
	ch := c.chunks[i]
	switch {
	case ch == nil:
		ch = &chunk{owner: tok}
		c.chunks[i] = ch
	case ch.owner != tok:
		if w := work.Load(); w != nil {
			w.Slots += chunkSize
		}
		cp := &chunk{slots: ch.slots, owner: tok}
		if ch.flows.done.Load() {
			cp.flows.v = flowSet{flows: slices.Clone(ch.flows.v.flows), wide: ch.flows.v.wide}
			cp.flows.done.Store(true)
		}
		ch = cp
		c.chunks[i] = ch
	default:
		ch.sum.reset()
	}
	c.digest.reset()
	return ch
}

// install replaces the table on sw; owned says whether tbl's backing array
// is this configuration's to append to.
func (c *Config) install(sw int, tbl network.Table, owned bool) {
	if sw >= c.span {
		if len(tbl) == 0 {
			return
		}
		c.span = sw + 1
		c.chunks = append(c.chunks, make([]*chunk, (c.span+chunkMask)>>chunkBits-len(c.chunks))...)
	}
	// What the slot holds is this configuration's alone — created since
	// the chunk was, by a write that owns its array — so it is written in
	// place.
	reuse := c.owns(sw)
	ch, i := c.chunkFor(sw), sw&chunkMask
	if owned {
		ch.own |= 1 << i
	} else {
		ch.own &^= 1 << i
	}
	if ch.flows.done.Load() { // unshared: kept exact in place
		ch.flows.v.drop(i)
		ch.flows.v.add(i, tbl)
	}
	switch in := ch.slots[i]; {
	case len(tbl) == 0:
		ch.slots[i] = nil
	case in != nil && reuse:
		in.tbl = tbl
	default:
		ch.slots[i] = &installed{tbl: tbl}
	}
}

// SetTable replaces the table on sw. The configuration keeps tbl, which
// the caller must not modify afterwards.
func (c *Config) SetTable(sw int, tbl network.Table) { c.install(sw, tbl, false) }

// AddRule appends a rule to the table on sw.
func (c *Config) AddRule(sw int, r network.Rule) {
	tbl := c.at(sw).table() // at its full capacity, unlike Table's
	if !c.owns(sw) {
		// Another configuration may hold this array: copy. Further rules
		// grow the copy as append grows any slice.
		tbl = append(make(network.Table, 0, len(tbl)+1), tbl...)
	}
	c.install(sw, append(tbl, r), true)
}

// owns reports whether AddRule may append to the array of sw's table.
func (c *Config) owns(sw int) bool {
	if uint(sw) >= uint(c.span) {
		return false
	}
	ch := c.chunks[sw>>chunkBits]
	return ch != nil && ch.owner == c.tok.Load() && ch.own&(1<<(sw&chunkMask)) != 0
}

// RemoveRule removes the first rule on sw equal to r, reporting whether a
// rule was removed.
func (c *Config) RemoveRule(sw int, r network.Rule) bool {
	tbl := c.Table(sw)
	for i := range tbl {
		if tbl[i].Equal(r) {
			c.install(sw, append(tbl[:i:i], tbl[i+1:]...), false)
			return true
		}
	}
	return false
}

// Switches returns the switches with non-empty tables, ascending.
func (c *Config) Switches() []int {
	var out []int
	for ci, ch := range c.chunks {
		if ch == nil {
			continue
		}
		for i, in := range ch.slots {
			if in != nil {
				out = append(out, ci<<chunkBits+i)
			}
		}
	}
	return out
}

// NumRules returns the total number of rules across all switches.
func (c *Config) NumRules() int {
	n := 0
	for _, ch := range c.chunks {
		if ch == nil {
			continue
		}
		for _, in := range ch.slots {
			n += len(in.table())
		}
	}
	return n
}

// Clone returns a configuration equal to c that shares c's chunks and
// tables: it copies the chunk table and no rule, and carries c's digest
// if c has one. Mutating either afterwards leaves the other as it was (see
// Config).
func (c *Config) Clone() *Config {
	if w := work.Load(); w != nil {
		w.Chunks += int64(len(c.chunks))
	}
	d := &Config{chunks: slices.Clone(c.chunks), span: c.span}
	d.tok.Store(tokens.Add(1))
	c.tok.Store(tokens.Add(1)) // what the two share, neither writes in place
	if c.digest.done.Load() {
		d.digest.v = c.digest.v
		d.digest.done.Store(true)
	}
	return d
}

// Tables returns the tables by switch, in a fresh map, for constructing a
// runtime network; the caller must not modify the tables.
func (c *Config) Tables() map[int]network.Table {
	out := map[int]network.Table{}
	for _, sw := range c.Switches() {
		out[sw] = c.Table(sw)
	}
	return out
}

// Diff returns the switches whose tables differ between a and b,
// ascending. These are exactly the switches an update must touch. A chunk
// both hold — every chunk a delta left alone, between a target and the
// configuration it was cloned from — costs a pointer comparison, and so
// does a switch where both hold the same installed table.
func Diff(a, b *Config) []int {
	var buf [64]int // most diffs fit: one allocation, for the answer
	out := buf[:0]
	n := max(len(a.chunks), len(b.chunks))
	visited := 0
	for ci := 0; ci < n; ci++ {
		x, y := a.chunkAt(ci), b.chunkAt(ci)
		if x == y {
			continue
		}
		visited++
		for i := range chunkSize {
			p, q := x.slot(i), y.slot(i)
			if p != q && !p.table().Equal(q.table()) {
				out = append(out, ci<<chunkBits+i)
			}
		}
	}
	if w := work.Load(); w != nil {
		w.Chunks += int64(n)
		w.Slots += int64(visited * chunkSize)
	}
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// chunkAt returns chunk i, nil past the end.
func (c *Config) chunkAt(i int) *chunk {
	if i < len(c.chunks) {
		return c.chunks[i]
	}
	return nil
}

// slot returns what the chunk installs on its i-th switch; nil-safe.
func (ch *chunk) slot(i int) *installed {
	if ch == nil {
		return nil
	}
	return ch.slots[i]
}

// Digest returns the SHA-256 of the configuration's (switch, table) set:
// of the (chunk index, chunk digest) pairs of its non-empty chunks, each
// chunk's digest being of the (slot, canonical form) pairs of its
// non-empty tables. Configurations that differ nowhere (Diff is empty)
// have one digest, whatever their Span, build order or rule insertion
// order. It is memoized on the configuration and carried by Clone, and
// each chunk's on the chunk, so a target derived from a digested
// configuration rehashes only the chunks its delta wrote.
func (c *Config) Digest() [sha256.Size]byte {
	return c.digest.get(func() [sha256.Size]byte {
		var stack [2048]byte
		buf := stack[:0]
		for ci, ch := range c.chunks {
			if ch == nil {
				continue
			}
			if s := ch.digest(); !s.empty {
				buf = binary.AppendUvarint(buf, uint64(ci))
				buf = append(buf, s.d[:]...)
			}
		}
		if w := work.Load(); w != nil {
			w.Chunks += int64(len(c.chunks))
		}
		return sha256.Sum256(buf)
	})
}

// digest returns the chunk's digest: of each non-empty table its slot and
// canonical form (network.Table.AppendCanonical), written to the hasher at
// once.
func (ch *chunk) digest() chunkSum {
	return ch.sum.get(func() chunkSum {
		var stack [2048]byte
		buf := stack[:0]
		for i, in := range ch.slots {
			if in != nil {
				buf = in.tbl.AppendCanonical(append(buf, byte(i)))
			}
		}
		if w := work.Load(); w != nil {
			w.Slots += chunkSize
			w.Hashed += int64(len(buf))
		}
		return chunkSum{d: sha256.Sum256(buf), empty: len(buf) == 0}
	})
}

// flowSlots returns the slots of the chunk whose tables hold a rule
// matching exactly the flow pattern network.MatchFlow(src, dst) — a
// class's (Class.Pattern) — as a bit set; a superset when a host id is
// one flowKey does not pack.
func (ch *chunk) flowSlots(src, dst int) uint64 {
	fs := ch.flows.get(func() flowSet {
		var fs flowSet
		for i, in := range ch.slots {
			fs.add(i, in.table())
		}
		if w := work.Load(); w != nil {
			w.Slots += chunkSize
		}
		return fs
	})
	k, _ := flowKey(network.MatchFlow(src, dst))
	if k == wideFlow {
		return fs.wide
	}
	for _, e := range fs.flows {
		if e.key == k {
			return e.slots
		}
	}
	return 0
}

// flowSet indexes a chunk's rules by flow pattern (network.MatchFlow, the
// only patterns RemoveClassRules looks for): per flow, the slots whose
// tables hold it.
type flowSet struct {
	flows []flowSlots
	wide  uint64 // slots holding a flow whose key is wideFlow
}

type flowSlots struct {
	key   uint64 // flowKey
	slots uint64 // bit i: slot i holds the flow
}

// add records the flows of tbl, installed on slot i.
func (fs *flowSet) add(i int, tbl network.Table) {
	bit := uint64(1) << i
outer:
	for _, r := range tbl {
		k, ok := flowKey(r.Match)
		switch {
		case !ok:
			continue
		case k == wideFlow:
			fs.wide |= bit
			continue
		}
		for j := range fs.flows {
			if fs.flows[j].key == k {
				fs.flows[j].slots |= bit
				continue outer
			}
		}
		fs.flows = append(fs.flows, flowSlots{k, bit})
	}
}

// drop forgets slot i.
func (fs *flowSet) drop(i int) {
	bit := uint64(1) << i
	for j := range fs.flows {
		fs.flows[j].slots &^= bit
	}
	fs.wide &^= bit
}

// wideFlow is the key of every flow with a host id outside [0, 1<<31).
const wideFlow = ^uint64(0)

// flowKey packs a flow pattern's hosts into one word, reporting whether
// pat is one (network.MatchFlow).
func flowKey(pat network.Pattern) (uint64, bool) {
	if pat.InPort != 0 || pat.Typ != network.Wildcard {
		return 0, false
	}
	if uint64(pat.Src)|uint64(pat.Dst) >= 1<<31 {
		return wideFlow, true
	}
	return uint64(pat.Src)<<32 | uint64(pat.Dst), true
}

// Work counts what configuration operations visit, for tests that bound
// a request's preamble by its diff rather than its network: chunk-table
// entries scanned (the per-chunk term), switch slots visited inside chunks
// (copying, diffing, digesting or indexing one), and bytes fed to SHA-256
// for table and chunk digests. CountWork(&w) starts counting into w and
// CountWork(nil) stops; the counts are not synchronized, so count work
// done on one goroutine.
type Work struct {
	Chunks, Slots, Hashed int64
}

var work atomic.Pointer[Work]

// CountWork directs the work counts into w; nil stops counting.
func CountWork(w *Work) { work.Store(w) }

// Class is a traffic class: the set of packets flowing from one host to
// another, identified by the src/dst header pair. Each class corresponds
// to one disjoint part of the network Kripke structure (Section 3.3).
type Class struct {
	Name    string
	SrcHost int // host id (also the packet src field value)
	DstHost int // host id (also the packet dst field value)
}

// Packet returns the representative packet of the class.
func (cl Class) Packet() network.Packet {
	return network.Packet{Src: cl.SrcHost, Dst: cl.DstHost}
}

// Pattern returns the match pattern selecting this class.
func (cl Class) Pattern() network.Pattern {
	return network.MatchFlow(cl.SrcHost, cl.DstHost)
}

func (cl Class) String() string {
	if cl.Name != "" {
		return cl.Name
	}
	return fmt.Sprintf("h%d->h%d", cl.SrcHost, cl.DstHost)
}

// InstallPath adds forwarding rules to cfg routing class cl along the
// switch path (inclusive of both endpoints). The class's source host must
// be attached to path[0] and destination host to path[len-1]; consecutive
// path switches must be adjacent in topo. A path longer than the switch
// count visits some switch twice, which gives the class two rules there
// and never delivers: it is refused before any rule is installed, so what
// a path costs is bounded by the topology, not by the path's length.
func InstallPath(cfg *Config, topo *topology.Topology, cl Class, path []int, priority int) error {
	if len(path) == 0 {
		return fmt.Errorf("config: empty path for class %v", cl)
	}
	if len(path) > topo.NumSwitches() {
		return fmt.Errorf("config: class %v: a %d-switch path over %d switches visits one twice", cl, len(path), topo.NumSwitches())
	}
	dst, ok := topo.HostByID(cl.DstHost)
	if !ok {
		return fmt.Errorf("config: class %v: no host %d", cl, cl.DstHost)
	}
	if dst.Switch != path[len(path)-1] {
		return fmt.Errorf("config: class %v: dst host on sw%d but path ends at sw%d",
			cl, dst.Switch, path[len(path)-1])
	}
	src, ok := topo.HostByID(cl.SrcHost)
	if !ok {
		return fmt.Errorf("config: class %v: no host %d", cl, cl.SrcHost)
	}
	if src.Switch != path[0] {
		return fmt.Errorf("config: class %v: src host on sw%d but path starts at sw%d",
			cl, src.Switch, path[0])
	}
	for i := 0; i < len(path); i++ {
		var out topology.Port
		if i == len(path)-1 {
			out = dst.Port
		} else {
			p, ok := topo.PortToward(path[i], path[i+1])
			if !ok {
				return fmt.Errorf("config: path hop sw%d-sw%d not adjacent", path[i], path[i+1])
			}
			out = p
		}
		cfg.AddRule(path[i], network.Rule{
			Priority: priority,
			Match:    cl.Pattern(),
			Actions:  forward(out),
		})
	}
	return nil
}

// forwards holds the one-action lists of forwarding rules out of the
// ports most switches have, shared by the rules that install them: a
// rule's actions are read-only, as its table is.
var forwards = func() (f [64][1]network.Action) {
	for pt := range f {
		f[pt][0] = network.Forward(topology.Port(pt))
	}
	return f
}()

// forward returns the actions of a rule forwarding out of pt.
func forward(pt topology.Port) []network.Action {
	if pt >= 0 && int(pt) < len(forwards) {
		return forwards[pt][:]
	}
	return []network.Action{network.Forward(pt)}
}

// PathOf traces the forwarding path of class cl through cfg starting at
// its source host, returning the switch sequence. It returns an error on
// a forwarding loop, a drop before reaching the destination host, or a
// rule that modifies packet headers.
func PathOf(cfg *Config, topo *topology.Topology, cl Class) ([]int, error) {
	return tracePath(make([]int, 0, 16), cfg, topo, cl) // most paths fit: one allocation, not one per doubling
}

// tracePath is PathOf appending to path.
func tracePath(path []int, cfg *Config, topo *topology.Topology, cl Class) ([]int, error) {
	src, ok := topo.HostByID(cl.SrcHost)
	if !ok {
		return nil, fmt.Errorf("config: no host %d", cl.SrcHost)
	}
	pkt := cl.Packet()
	sw, pt := src.Switch, src.Port
	// The hops taken so far, scanned for a repeat — paths are tens of hops —
	// and one hop's outputs; both spill to the heap only past their buffers.
	type hop struct {
		sw int
		pt topology.Port
	}
	var seenBuf [32]hop
	var outBuf [2]network.PortPacket
	seen := seenBuf[:0]
	for {
		for _, h := range seen {
			if h == (hop{sw, pt}) {
				return nil, fmt.Errorf("config: forwarding loop for class %v at sw%d", cl, sw)
			}
		}
		seen = append(seen, hop{sw, pt})
		path = append(path, sw)
		outs := cfg.Table(sw).AppendApply(outBuf[:0], pkt, pt)
		if len(outs) == 0 {
			return nil, fmt.Errorf("config: class %v dropped at sw%d", cl, sw)
		}
		if len(outs) > 1 {
			return nil, fmt.Errorf("config: class %v multicast at sw%d", cl, sw)
		}
		if outs[0].Pkt != pkt {
			return nil, fmt.Errorf("config: class %v modified at sw%d", cl, sw)
		}
		if h, ok := topo.HostAtPort(sw, outs[0].Port); ok {
			if h.ID != cl.DstHost {
				return nil, fmt.Errorf("config: class %v delivered to wrong host %d", cl, h.ID)
			}
			return path, nil
		}
		l, ok := topo.LinkAt(sw, outs[0].Port)
		if !ok {
			return nil, fmt.Errorf("config: class %v forwarded out dangling port at sw%d", cl, sw)
		}
		sw, pt = l.Peer, l.PeerPort
	}
}
