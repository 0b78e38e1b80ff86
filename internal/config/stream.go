package config

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"

	"netupdate/internal/ltl"
	"netupdate/internal/network"
	"netupdate/internal/topology"
)

// RemoveClassRules deletes every rule matching exactly the class's flow
// pattern from cfg, across all switches. It visits only the switches whose
// tables hold the pattern, which each chunk indexes, and a touched switch
// gets a new table — the old one may be shared with other configurations
// (Config.Clone) — with room for one more rule, which AddRule appends in
// place: rerouting the class costs one table per switch.
func RemoveClassRules(cfg *Config, cl Class) {
	pat := cl.Pattern()
	w := work.Load()
	for ci, ch := range cfg.chunks {
		if ch == nil {
			continue
		}
		// A write below may replace the chunk with a copy; the slots not
		// yet written are the same in both.
		for slots := ch.flowSlots(cl.SrcHost, cl.DstHost); slots != 0; slots &= slots - 1 {
			i := bits.TrailingZeros64(slots)
			tbl := ch.slots[i].table()
			if w != nil {
				w.Slots++
			}
			drop := 0
			for j := range tbl {
				if tbl[j].Match == pat {
					drop++
				}
			}
			if drop == 0 {
				continue // a superset's: another flow with a wide host id
			}
			out := make(network.Table, 0, len(tbl)-drop+1)
			for _, r := range tbl {
				if r.Match != pat {
					out = append(out, r)
				}
			}
			cfg.install(ci<<chunkBits+i, out, true)
		}
	}
	if w != nil {
		w.Chunks += int64(len(cfg.chunks))
	}
}

// RerouteClass replaces class cl's forwarding state in cfg with a route
// along the switch path (see InstallPath for the path contract).
func RerouteClass(cfg *Config, topo *topology.Topology, cl Class, path []int, priority int) error {
	RemoveClassRules(cfg, cl)
	return InstallPath(cfg, topo, cl, path, priority)
}

// StreamHeader is the first JSON value of a scenario stream: the fixed
// topology, and every traffic class with its initial route and LTL
// specification.
//
//	{"name":"line","topology":{"switches":4,"links":[[0,1],[1,2],[2,3]],
//	 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},
//	 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,2,3],
//	             "spec":"sw=0 -> F sw=3"}]}
type StreamHeader struct {
	Name     string        `json:"name"`
	Topology TopologyFile  `json:"topology"`
	Classes  []StreamClass `json:"classes"`
}

// StreamClass declares one traffic class of a stream.
type StreamClass struct {
	Name string `json:"name"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Path []int  `json:"path"`
	Spec string `json:"spec"`
}

// StreamDelta is one subsequent JSON value of a scenario stream: the
// classes to reroute relative to the previous target, each at most once.
//
//	{"reroute":[{"class":"c","path":[0,2,3]}]}
type StreamDelta struct {
	Reroute []Reroute `json:"reroute"`
}

// Reroute moves one class onto a new path.
type Reroute struct {
	Class string `json:"class"`
	Path  []int  `json:"path"`
}

// ErrBadDelta marks a semantically invalid stream delta (unknown class, a
// class named twice, uninstallable or non-delivering path). The delta
// decoded cleanly, so the stream is still in sync: callers may report the
// bad delta and keep consuming. Raw decode errors are not wrapped — after
// a syntax error the stream position is unreliable and the stream must be
// abandoned.
var ErrBadDelta = errors.New("config: invalid stream delta")

// StreamBase is a validated stream header: the fixed topology, the
// initial configuration the class paths install, the per-class
// specifications, and the class name index deltas resolve against. It is
// the shared (de)serialized form of a synthesis scenario stream — the
// ScenarioStream decoder applies deltas to it locally, and the server
// pool stores one per tenant and applies request deltas to the tenant's
// current configuration on the service side.
type StreamBase struct {
	Name  string
	Topo  *topology.Topology
	Init  *Config
	Specs []ClassSpec

	byName map[string]int // index into Specs
	prio   int
}

// MaxClassPorts bounds a stream header's class count times its port
// count (two per link, one per host). A serving session keeps, per class,
// a word for each port of the network (kripke.Arena), so that product is
// what a registration costs, and the header's length does not bound it:
// a 222 KB header of 1 000 one-hop classes over 10 000 links took 104 MB.
// The cap is 28 times the benchmark's largest tenant (26 classes over
// 5 650 ports), and a tenant at the cap keeps about 17 MB of those words.
const MaxClassPorts = 1 << 22

// Build validates the header and constructs the base: the topology, every
// class's initial route, and its parsed LTL specification. A header past
// MaxClassPorts is refused before anything is built.
func (h *StreamHeader) Build() (*StreamBase, error) {
	if ports := 2*len(h.Topology.Links) + len(h.Topology.Hosts); len(h.Classes)*ports > MaxClassPorts {
		return nil, fmt.Errorf("config: %d classes over %d ports, want a product of at most %d", len(h.Classes), ports, MaxClassPorts)
	}
	topo, err := h.Topology.Build(h.Name)
	if err != nil {
		return nil, err
	}
	b := &StreamBase{
		Name:   h.Name,
		Topo:   topo,
		Init:   NewSized(topo.NumSwitches()),
		byName: map[string]int{},
		prio:   10,
	}
	for i, cf := range h.Classes {
		cl := Class{Name: cf.Name, SrcHost: cf.Src, DstHost: cf.Dst}
		if cl.Name == "" {
			cl.Name = fmt.Sprintf("class%d", i)
		}
		if _, dup := b.byName[cl.Name]; dup {
			return nil, fmt.Errorf("config: duplicate class %q", cl.Name)
		}
		b.byName[cl.Name] = len(b.Specs)
		if err := InstallPath(b.Init, topo, cl, cf.Path, b.prio); err != nil {
			return nil, fmt.Errorf("config: class %s: %w", cl.Name, err)
		}
		spec, err := ltl.Parse(cf.Spec)
		if err != nil {
			return nil, fmt.Errorf("config: class %s spec: %w", cl.Name, err)
		}
		b.Specs = append(b.Specs, ClassSpec{Class: cl, Formula: spec})
	}
	if len(b.Specs) == 0 {
		return nil, fmt.Errorf("config: stream has no traffic classes")
	}
	return b, nil
}

// Apply builds the target configuration one delta describes: cur with
// every rerouted class moved to its new path, each validated to still
// deliver. The target shares with cur every chunk of switches the delta
// left alone (Config.Clone), so it costs the rerouted paths, the chunks
// they touch and the chunk table. A delta names each class at most once:
// one that names a class twice is refused, so a delta costs the classes it
// names, once each. Semantic failures are wrapped in ErrBadDelta and cur
// is unaffected, so the caller may report and continue.
func (b *StreamBase) Apply(cur *Config, d *StreamDelta) (*Config, error) {
	var small [4]uint64
	named := small[:]
	if words := (len(b.Specs) + 63) / 64; words > len(small) {
		named = make([]uint64, words)
	}
	var path [32]int
	next := cur.Clone()
	for _, rr := range d.Reroute {
		ci, ok := b.byName[rr.Class]
		if !ok {
			return nil, fmt.Errorf("%w: unknown class %q", ErrBadDelta, rr.Class)
		}
		if named[ci/64]&(1<<(ci%64)) != 0 {
			return nil, fmt.Errorf("%w: class %q rerouted twice", ErrBadDelta, rr.Class)
		}
		named[ci/64] |= 1 << (ci % 64)
		cl := b.Specs[ci].Class
		if err := RerouteClass(next, b.Topo, cl, rr.Path, b.prio); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
		}
		if _, err := tracePath(path[:0], next, b.Topo, cl); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
		}
	}
	return next, nil
}

// RollingOptions parameterizes the rolling-update workload generator.
type RollingOptions struct {
	Pairs    int      // diamonds carved into the topology
	Property Property // property family asserted per diamond
	Seed     int64
	// Steps is the number of targets the stream yields (default 8).
	Steps int
	// FlipsPerStep is how many distinct diamonds are rerouted onto their
	// other branch per target (default 1, capped at Pairs).
	FlipsPerStep int
	// BackgroundFlows adds identical shortest-path state to every target,
	// as in DiamondOptions.
	BackgroundFlows int
}

// RollingStream is the generated steady-state workload: a random walk of
// diamond targets over one topology. Each diamond from the standard
// evaluation workload has two internally disjoint branches; every step
// flips a few diamonds onto their other branch, producing the stream of
// small reconfigurations a long-lived controller session faces. Every
// consecutive (current, target) pair is an ordinary diamond update and
// therefore feasible at switch granularity.
type RollingStream struct {
	topo  *topology.Topology
	init  *Config
	specs []ClassSpec
	pairs []rollingPair
	r     *rand.Rand
	perm  []int
	left  int
	flips int
	cur   *Config
}

type rollingPair struct {
	cl       Class
	branches [2][]int
	onB      bool
}

// RollingUpdates carves opts.Pairs diamonds into topo (via Diamonds) and
// returns the rolling random walk over their branch choices.
func RollingUpdates(topo *topology.Topology, opts RollingOptions) (*RollingStream, error) {
	sc, err := Diamonds(topo, DiamondOptions{
		Pairs:           opts.Pairs,
		Property:        opts.Property,
		Seed:            opts.Seed,
		BackgroundFlows: opts.BackgroundFlows,
	})
	if err != nil {
		return nil, err
	}
	steps := opts.Steps
	if steps <= 0 {
		steps = 8
	}
	flips := opts.FlipsPerStep
	if flips <= 0 {
		flips = 1
	}
	if flips > opts.Pairs {
		flips = opts.Pairs
	}
	s := &RollingStream{
		topo:  topo,
		init:  sc.Init,
		specs: sc.Specs,
		r:     rand.New(rand.NewSource(opts.Seed ^ 0x5EED)),
		perm:  make([]int, 0, opts.Pairs),
		left:  steps,
		flips: flips,
		cur:   sc.Init,
	}
	for _, cs := range sc.Specs {
		if !isDiamondClass(cs.Class) {
			continue // background flow: never rerouted
		}
		a, err := PathOf(sc.Init, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		b, err := PathOf(sc.Final, topo, cs.Class)
		if err != nil {
			return nil, err
		}
		s.pairs = append(s.pairs, rollingPair{cl: cs.Class, branches: [2][]int{a, b}})
	}
	return s, nil
}

// isDiamondClass distinguishes generator-made diamond classes from the
// background flows Diamonds also installs (named bg<i>).
func isDiamondClass(cl Class) bool {
	return len(cl.Name) >= 4 && cl.Name[:4] == "pair"
}

// Topo returns the fixed topology every target routes over.
func (s *RollingStream) Topo() *topology.Topology { return s.topo }

// Init returns the configuration the stream starts from.
func (s *RollingStream) Init() *Config { return s.init }

// Specs returns the per-class specifications, fixed for the stream.
func (s *RollingStream) Specs() []ClassSpec { return s.specs }

// Next returns the next target, or io.EOF once Steps were handed out:
// flip FlipsPerStep distinct random diamonds onto their other branch.
func (s *RollingStream) Next() (*Config, error) {
	if s.left == 0 {
		return nil, io.EOF
	}
	s.left--
	next := s.cur.Clone()
	s.perm = s.perm[:0]
	for i := range s.pairs {
		s.perm = append(s.perm, i)
	}
	s.r.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	for _, pi := range s.perm[:s.flips] {
		p := &s.pairs[pi]
		p.onB = !p.onB
		branch := p.branches[0]
		if p.onB {
			branch = p.branches[1]
		}
		if err := RerouteClass(next, s.topo, p.cl, branch, 10); err != nil {
			return nil, fmt.Errorf("config: rolling flip of %v: %w", p.cl, err)
		}
	}
	s.cur = next
	return next, nil
}
