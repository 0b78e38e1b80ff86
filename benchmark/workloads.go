package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"netupdate/internal/config"
	"netupdate/internal/server"
	"netupdate/internal/topology"
)

// Workload names, in the order the suite runs them.
const (
	wlOneshot = "oneshot-large"
	wlSmall   = "serve-small"
	wlMixed   = "serve-large-mixed"
	wlChurn   = "serve-churn"
)

var workloadNames = []string{wlOneshot, wlSmall, wlMixed, wlChurn}

// Seeds. defaultSeed is the one every quoted table uses and whose input
// digests are pinned below; heldOutSeed is reserved for confirming a
// later performance claim on inputs nobody tuned against (choosing-metrics
// guide, section 6.3) and must not be used while a change is developed.
const (
	defaultSeed = 1
	heldOutSeed = 20150613
)

// pinnedDigests are the sha256 of every generated input byte (scenario
// files, tenant specs, the first digestOps delta lines per tenant; for a
// serving workload over every pass's draw, see generateChecked) at full
// scale. A run with a pinned seed whose digest differs aborts with
// "inputs changed": an edit to the internal/topology or internal/config
// generators must not silently change the traffic the baseline was
// measured on.
var pinnedDigests = map[int64]map[string]string{
	defaultSeed: {
		wlOneshot: "f5ef9a69862a70f77a2eb943fa971e5861de69de87acfc79831cc3974c876ff5",
		wlSmall:   "e6988793171c241db035c005dbe28b900bc276e7caa373dcc104dfa8d1a71567",
		wlMixed:   "4c1017300a0522fccfdf8a7b9fcc8d0d57b0bb923a59b87e83d411a1a98d1228",
		wlChurn:   "902ce61cdb624ae099ff8419410d09292b14c0d8ea2449f779aa180c1800515e",
	},
	heldOutSeed: {
		wlOneshot: "6501ceb1336350df3182af0c3142ec28c12cabe49675d8dbe00a8c40b12248ab",
		wlSmall:   "fda3fa0be5f6f9c7667d72548f2a76d98ab17a107828e58bca862a51f0a9f53f",
		wlMixed:   "09adf98064f5ff82454a5fefa015c5ff2503cb3dc7659487f06ccc6265bc7a1c",
		wlChurn:   "bfe80b3220c8620722d65b576c0f5749e965db1f9f56b5b9f68723abfb6a817e",
	},
}

// digestOps is how many leading ops of each tenant's stream the input
// digest covers. The streams are endless; this prefix pins the generator.
const digestOps = 256

// sizes is one scale of the suite: full (the benchmark) or smoke (the
// test's seconds-long pass over the same code).
type sizes struct {
	passes int // fresh-process passes per run, each on its own draw of the tenants; end-to-end timings are medians over them

	corpus []corpusSpec // oneshot-large scenario files

	small, mixed, churn serveSizes
	mixedRegions        int // diamond regions per mixed tenant (two diamonds each)

	ladderOps int // timed ops per ladder rung
	probeReps int // repetitions of each timed layer call
}

// serveSizes is one serving workload's scale.
type serveSizes struct {
	switches []int // one tenant per entry
	// warmup is the untimed ops per tenant before a timed region: enough
	// to visit both transitions of a one-diamond walk (small), one full
	// mix block (mixed), one eviction round per tenant and then some
	// (churn).
	warmup int
	// The quality sample: per tenant and pass, how many leading timed ops
	// feed plan_waits, and how many of those plans are verified prefix by
	// prefix and simulated (exec_makespan_simms). Both must be reached in
	// every pass even on a slow host for the two metrics to be exact, and
	// the deep ones must fit the driver's time cap.
	qualityOps, deepChecks int
}

var fullSizes = sizes{
	passes: 4,
	corpus: []corpusSpec{
		{"small-world", 800, config.Reachability}, {"small-world", 800, config.Waypointing}, {"small-world", 800, config.ServiceChaining},
		{"small-world", 1200, config.Reachability}, {"small-world", 1200, config.Waypointing}, {"small-world", 1200, config.ServiceChaining},
		{"small-world", 1500, config.Reachability}, {"small-world", 1500, config.Waypointing}, {"small-world", 1500, config.ServiceChaining},
		{"fat-tree", 245, config.Reachability},
		{"zoo-like", 600, config.Reachability},
		{"multi-region", 560, config.Reachability},
		{"infeasible", 200, config.Reachability}, {"infeasible", 200, config.Waypointing}, {"infeasible", 200, config.ServiceChaining},
	},
	small:        serveSizes{switches: []int{40, 40, 40, 40, 40, 40, 40, 40}, warmup: 40, qualityOps: 40, deepChecks: 2},
	mixed:        serveSizes{switches: []int{400, 500, 650, 800}, warmup: 20, qualityOps: 40, deepChecks: 2},
	mixedRegions: 8,
	churn:        serveSizes{switches: []int{200, 240, 280, 320, 360, 400}, warmup: 6, qualityOps: 16, deepChecks: 2},
	ladderOps:    120, probeReps: 20,
}

var smokeSizes = sizes{
	passes: 1,
	corpus: []corpusSpec{
		{"small-world", 60, config.Reachability},
		{"multi-region", 120, config.Reachability},
		{"infeasible", 60, config.Reachability},
	},
	small:        serveSizes{switches: []int{40, 40}, warmup: 20, qualityOps: 10, deepChecks: 2},
	mixed:        serveSizes{switches: []int{120, 120}, warmup: 20, qualityOps: 10, deepChecks: 2},
	mixedRegions: 3,
	churn:        serveSizes{switches: []int{40, 40, 40}, warmup: 4, qualityOps: 4, deepChecks: 2},
	ladderOps:    20, probeReps: 2,
}

// corpusSpec names one oneshot scenario: a topology family at a size
// with one property family asserted on every diamond.
type corpusSpec struct {
	family string
	n      int
	prop   config.Property
}

func (c corpusSpec) String() string { return fmt.Sprintf("%s-%d-%s", c.family, c.n, c.prop) }

// workload is one named set of generated inputs. The programs under test
// only ever receive the JSON held here.
type workload struct {
	name        string
	clients     int // closed-loop controllers; GOMAXPROCS of the load generator
	maxSessions int // netupdated -max-sessions; 0 keeps the default, like every other flag but -addr
	serveSizes      // warm-up and quality sample of the serving passes over tenants
	// corpus is what the one-shot CLI is run on and tenants what the
	// serving stack is driven with. Each workload owns one of the two; the
	// other is derived from it (see generate) so that every layer can be
	// probed on every workload's inputs.
	corpus  []*instance
	tenants []*tenant
	digest  string
}

// instance is one oneshot scenario file.
type instance struct {
	name     string
	file     []byte // ScenarioFile JSON handed to netupdate -f
	feasible bool   // generator's label: false expects the verdict "impossible"
}

// tenant is one serving tenant: its registration document and the static
// data its endless op stream is drawn from.
type tenant struct {
	name   string
	spec   []byte // TenantSpec JSON posted to /v1/tenants
	pairs  []flipPair
	gadget []config.Reroute // both classes of the infeasible gadget moved at once; nil when the tenant has none
	mode   streamMode
	seed   int64
}

// streamMode selects a tenant's request mix.
type streamMode int

const (
	modeOneFlip streamMode = iota // random walk, one diamond flipped per delta
	modeMixed                     // the serve-large-mixed blocks (see opStream)
	modeAllFlip                   // every diamond flipped per delta: a one-shot scenario replayed back and forth
)

// flipPair is one diamond class and its two branch paths; [0] is the
// registered route.
type flipPair struct {
	class string
	paths [2][]int
}

// subSeed derives an independent stream seed from the run seed and a
// label, so adding a tenant never shifts another tenant's inputs.
func subSeed(seed int64, label string) int64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]) >> 1)
}

// generate builds one draw of a workload's inputs from the seed alone.
// Draws of one seed are independent of each other: a serving run gives
// every pass its own (see generateChecked).
func generate(name string, seed int64, draw int, sz *sizes) (*workload, error) {
	w := &workload{name: name, clients: 1}
	var err error
	sub := func(i int) int64 { return subSeed(seed, fmt.Sprintf("%s/draw%d/%d", name, draw, i)) }
	switch name {
	case wlOneshot:
		w.warmup = 2
		for _, cs := range sz.corpus {
			inst, sf, ierr := makeInstance(cs, subSeed(seed, name+"/"+cs.String()))
			if ierr != nil {
				return nil, fmt.Errorf("%s: %s: %w", name, cs, ierr)
			}
			w.corpus = append(w.corpus, inst)
			// The serving layers are probed on the first scenario and on
			// the multi-region one, replayed init -> final -> init.
			if len(w.tenants) == 0 || cs.family == "multi-region" {
				if _, err = w.addTenant(sf, modeAllFlip, 0, nil); err != nil {
					break
				}
			}
		}
	case wlSmall:
		w.clients, w.serveSizes = 2, sz.small
		for i, n := range sz.small.switches {
			if err = w.addDiamondTenant(fmt.Sprintf("small-%d", i), n, 1, sub(i)); err != nil {
				break
			}
		}
	case wlMixed:
		w.clients, w.serveSizes = 2, sz.mixed
		for i, n := range sz.mixed.switches {
			if err = w.addRegionTenant(fmt.Sprintf("mixed-%d", i), n, sz.mixedRegions, sub(i)); err != nil {
				break
			}
		}
	case wlChurn:
		// A budget of two warm sessions against more tenants than that,
		// visited round-robin by one client: every request evicts one
		// session and restores another.
		w.serveSizes = sz.churn
		w.maxSessions = 2
		for i, n := range sz.churn.switches {
			if err = w.addDiamondTenant(fmt.Sprintf("churn-%d", i), n, pairsFor(n), sub(i)); err != nil {
				break
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err == nil && name != wlOneshot {
		// The one-shot path is probed on the first tenant's scenario with
		// every diamond flipped at once.
		err = w.addTenantInstance(w.tenants[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.digest = w.inputDigest()
	return w, nil
}

// inputDigest hashes every generated byte the programs will be fed.
func (w *workload) inputDigest() string {
	h := sha256.New()
	for _, in := range w.corpus {
		fmt.Fprintf(h, "file %s %d\n", in.name, len(in.file))
		h.Write(in.file)
	}
	for _, t := range w.tenants {
		fmt.Fprintf(h, "tenant %s %d\n", t.name, len(t.spec))
		h.Write(t.spec)
		ops := t.ops()
		for i := 0; i < digestOps; i++ {
			op := ops.next(0)
			fmt.Fprintf(h, "%s ", op.want)
			h.Write(op.line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pairsFor is the evaluation's diamond count for an n-switch topology
// (internal/bench uses the same n/30 clamp), so sizes stay comparable
// with the paper-figure harness.
func pairsFor(n int) int {
	switch p := n / 30; {
	case p < 1:
		return 1
	case p > 40:
		return 40
	default:
		return p
	}
}

// buildTopology constructs a fresh topology of the family (generators
// attach hosts to it, so every placement attempt needs its own).
func buildTopology(family string, n int, seed int64) *topology.Topology {
	switch family {
	case "fat-tree":
		t, _ := topology.FatTreeForSize(n)
		return t
	case "zoo-like":
		return topology.WAN(fmt.Sprintf("zoo-like-%d", n), n, seed)
	case "multi-region":
		return topology.SmallWorld(n, 6, 0.3, seed)
	default:
		return topology.SmallWorld(n, 4, 0.3, seed)
	}
}

// place retries a generator with fewer diamonds until the topology fits
// them: dense graphs occasionally cannot host the full count.
func place(from int, build func(k int) (*config.Scenario, error)) (*config.Scenario, error) {
	var err error
	for k := from; k >= 1; k-- {
		var sc *config.Scenario
		if sc, err = build(k); err == nil {
			return sc, nil
		}
	}
	return nil, err
}

func makeInstance(cs corpusSpec, seed int64) (*instance, *config.ScenarioFile, error) {
	var sc *config.Scenario
	var err error
	switch cs.family {
	case "multi-region":
		sc, err = typicalDraw(3, seed, func(s int64) (*config.Scenario, error) {
			return place(10, func(k int) (*config.Scenario, error) {
				return config.MultiRegion(buildTopology(cs.family, cs.n, s), config.MultiRegionOptions{
					Regions: k, PairsPerRegion: 2, Property: cs.prop, Seed: s,
				})
			})
		})
	case "infeasible":
		// One double-diamond gadget, the smallest of fifteen draws by
		// updating-switch count. Proving impossibility is exhaustive search,
		// so its time is exponential in gadget size (service chaining: 20
		// switches 23 ms, 25 switches 60 ms, 31 switches 208 ms): left to
		// one draw, or to a typical one, the seed's luck with this one file
		// moves the corpus's run time by a tenth and its tail latency by a
		// third. At the small end of the range the proof still runs and the
		// spread is a few milliseconds. Drawing a 200-switch gadget is
		// cheap, so it is drawn often.
		for try := int64(0); try < 15; try++ {
			s := subSeed(seed, fmt.Sprint("draw", try))
			cand, cerr := config.Infeasible(buildTopology(cs.family, cs.n, s), config.InfeasibleOptions{Gadgets: 1, Property: cs.prop, Seed: s})
			if cerr != nil {
				err = cerr
				continue
			}
			if sc == nil || len(cand.UpdatingSwitches()) < len(sc.UpdatingSwitches()) {
				sc = cand
			}
		}
		if sc != nil {
			err = nil
		}
	default:
		sc, err = typicalDraw(3, seed, func(s int64) (*config.Scenario, error) {
			return place(pairsFor(cs.n), func(k int) (*config.Scenario, error) {
				return config.Diamonds(buildTopology(cs.family, cs.n, s), config.DiamondOptions{
					Pairs: k, Property: cs.prop, Seed: s,
				})
			})
		})
	}
	if err != nil {
		return nil, nil, err
	}
	sf, err := scenarioFile(cs.String(), sc)
	if err != nil {
		return nil, nil, err
	}
	return &instance{name: sf.Name, file: mustJSON(sf), feasible: sc.Feasible}, sf, nil
}

// scenarioFile renders a generated scenario in the scenario-file form,
// from which both kinds of input (files and tenants) are cut.
func scenarioFile(name string, sc *config.Scenario) (*config.ScenarioFile, error) {
	sf := &config.ScenarioFile{Name: name, Topology: topologyFile(sc.Topo)}
	for _, c := range sc.Specs {
		ip, err := config.PathOf(sc.Init, sc.Topo, c.Class)
		if err != nil {
			return nil, err
		}
		fp, err := config.PathOf(sc.Final, sc.Topo, c.Class)
		if err != nil {
			return nil, err
		}
		sf.Classes = append(sf.Classes, config.ClassFile{
			Name: c.Class.Name, Src: c.Class.SrcHost, Dst: c.Class.DstHost,
			InitPath: ip, FinalPath: fp, Spec: c.Formula.String(),
		})
	}
	return sf, nil
}

// addTenant cuts a serving tenant from a scenario file: every class is
// registered on its initial path; the classes that move between the two
// configurations, and that flips accepts (nil accepts all), become flip
// pairs with the final path as the other branch.
func (w *workload) addTenant(sf *config.ScenarioFile, mode streamMode, seed int64, flips func(class string) bool) (*tenant, error) {
	t := &tenant{name: sf.Name, mode: mode, seed: seed}
	hdr := config.StreamHeader{Name: sf.Name, Topology: sf.Topology}
	for _, c := range sf.Classes {
		hdr.Classes = append(hdr.Classes, config.StreamClass{Name: c.Name, Src: c.Src, Dst: c.Dst, Path: c.InitPath, Spec: c.Spec})
		if fmt.Sprint(c.InitPath) != fmt.Sprint(c.FinalPath) && (flips == nil || flips(c.Name)) {
			t.pairs = append(t.pairs, flipPair{class: c.Name, paths: [2][]int{c.InitPath, c.FinalPath}})
		}
	}
	if len(t.pairs) == 0 {
		return nil, fmt.Errorf("tenant %s: no diamond placed", sf.Name)
	}
	t.spec = mustJSON(&server.TenantSpec{StreamHeader: hdr})
	w.tenants = append(w.tenants, t)
	return t, nil
}

// addTenantInstance derives a one-shot scenario file from a tenant: its
// registered routes as the initial configuration, every diamond on its
// other branch as the final one.
func (w *workload) addTenantInstance(t *tenant) error {
	var spec server.TenantSpec
	if err := json.Unmarshal(t.spec, &spec); err != nil {
		return err
	}
	sf := config.ScenarioFile{Name: t.name, Topology: spec.Topology}
	for _, c := range spec.Classes {
		cf := config.ClassFile{Name: c.Name, Src: c.Src, Dst: c.Dst, InitPath: c.Path, FinalPath: c.Path, Spec: c.Spec}
		for _, p := range t.pairs {
			if p.class == c.Name {
				cf.FinalPath = p.paths[1]
			}
		}
		sf.Classes = append(sf.Classes, cf)
	}
	w.corpus = append(w.corpus, &instance{name: t.name, file: mustJSON(&sf), feasible: true})
	return nil
}

// topologyFile is the wire form of a topology. Port numbers are not part
// of it; the programs reassign them deterministically on load.
func topologyFile(t *topology.Topology) config.TopologyFile {
	tf := config.TopologyFile{Switches: t.NumSwitches()}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		for _, l := range t.Neighbors(sw) {
			if l.Peer > sw {
				tf.Links = append(tf.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, h := range t.Hosts() {
		tf.Hosts = append(tf.Hosts, config.HostFile{ID: h.ID, Switch: h.Switch})
	}
	return tf
}

// typicalDraw generates a scenario k times from seeds derived from seed
// and keeps the median one by updating-switch count. Request
// cost grows with the number of switches a flip updates, and with a
// handful of tenants a single draw each leaves the workload's cost a
// property of the seed (about +-10 % between seeds) instead of the
// programs; the median is still the seed's choice but never an
// extreme one. Tenants are drawn five times; the large one-shot scenarios,
// whose generation is the workload's set-up time, three times. (The
// infeasible gadgets are not typical draws: see makeInstance.)
func typicalDraw(k int, seed int64, gen func(seed int64) (*config.Scenario, error)) (*config.Scenario, error) {
	var draws []*config.Scenario
	var err error
	for i := 0; i < k; i++ {
		sc, gerr := gen(subSeed(seed, fmt.Sprint("draw", i)))
		if gerr != nil {
			err = gerr
			continue
		}
		draws = append(draws, sc)
	}
	if len(draws) == 0 {
		return nil, err
	}
	sort.SliceStable(draws, func(i, j int) bool {
		return len(draws[i].UpdatingSwitches()) < len(draws[j].UpdatingSwitches())
	})
	return draws[len(draws)/2], nil
}

// addDiamondTenant adds a small-world tenant with up to pairs diamonds
// whose stream random-walks one flip per delta.
func (w *workload) addDiamondTenant(name string, n, pairs int, seed int64) error {
	sc, err := typicalDraw(5, seed, func(s int64) (*config.Scenario, error) {
		return place(pairs, func(k int) (*config.Scenario, error) {
			return config.Diamonds(topology.SmallWorld(n, 4, 0.3, s), config.DiamondOptions{
				Pairs: k, Property: config.Reachability, Seed: s,
			})
		})
	})
	if err != nil {
		return err
	}
	sf, err := scenarioFile(name, sc)
	if err != nil {
		return err
	}
	_, err = w.addTenant(sf, modeOneFlip, seed, nil)
	return err
}

// addRegionTenant adds a multi-region tenant: regions x 2 diamonds chained
// by link classes (so decomposition and parallel components engage), plus
// one infeasible double-diamond gadget region for the rejected intents.
func (w *workload) addRegionTenant(name string, n, regions int, seed int64) error {
	sc, err := typicalDraw(5, seed, func(s int64) (*config.Scenario, error) {
		return place(regions, func(k int) (*config.Scenario, error) {
			return config.MultiRegion(topology.SmallWorld(n, 6, 0.3, s), config.MultiRegionOptions{
				Regions: k, PairsPerRegion: 2, InfeasibleRegions: 1,
				Property: config.Reachability, Seed: s,
			})
		})
	})
	if err != nil {
		return err
	}
	// Diamond classes are r<reg>p<pair>; link classes (r<reg>link<i>) and
	// the gadget (r<reg>gA/gB) stay on their registered routes except in
	// the infeasible intent.
	isPair := func(class string) bool {
		var reg, p int
		n, _ := fmt.Sscanf(class, "r%dp%d", &reg, &p)
		return n == 2
	}
	sf, err := scenarioFile(name, sc)
	if err != nil {
		return err
	}
	t, err := w.addTenant(sf, modeMixed, seed, isPair)
	if err != nil {
		return err
	}
	for _, c := range sf.Classes {
		var reg int
		var side string
		if n, _ := fmt.Sscanf(c.Name, "r%dg%s", &reg, &side); n == 2 {
			t.gadget = append(t.gadget, config.Reroute{Class: c.Name, Path: c.FinalPath})
		}
	}
	if len(t.gadget) != 2 {
		return fmt.Errorf("tenant %s: gadget region has %d classes, want 2", name, len(t.gadget))
	}
	return nil
}

// Expected result kinds (server.Result.Result values).
const (
	wantPlan       = "plan"
	wantImpossible = "impossible"
	wantRepair     = "repair"
)

// op is one request line and the answer kind the generator expects.
type op struct {
	line []byte
	want string
	// ack marks a failure report; its line depends on the preceding plan
	// (the committed prefix), so the stream builds it from lastNodes.
	ack bool
}

// opStream is one tenant's endless, deterministic request sequence.
//
// One-flip tenants random-walk: each op flips one diamond onto its other
// branch. Mixed tenants draw 20-op blocks, shuffled per block, that hold
// the request mix by construction:
//
//	7 x roll                 fresh 1-4 pair flip                  (miss)
//	3 x roll, undo, redo     the flap: back, then forth again     (miss, miss, hit)
//	1 x reject, reject       both gadget classes moved at once    (impossible by search, then by memo)
//	1 x roll, failure ack    half the plan's DAG committed        (miss, repair)
//
// which is 70 % misses, 15 % hits, 10 % rejected intents and 5 % repairs.
type opStream struct {
	t     *tenant
	r     *rand.Rand
	onB   []bool
	queue []op
}

func (t *tenant) ops() *opStream {
	return &opStream{t: t, r: rand.New(rand.NewSource(t.seed ^ 0x0b5)), onB: make([]bool, len(t.pairs))}
}

// firstReroute is the first op of the tenant's stream that has a plan, for
// the layer probes. One in twelve mixed streams opens with its rejected
// intent; that moves nothing (the tenant stays on its registered routes),
// so the reroute after it still applies to the registered configuration.
func (t *tenant) firstReroute() op {
	s := t.ops()
	o := s.next(0)
	for o.want != wantPlan {
		o = s.next(0)
	}
	return o
}

// next returns the following op. lastNodes is the DAG node count of the
// plan the tenant's previous request returned (used by failure acks).
func (s *opStream) next(lastNodes int) op {
	if len(s.queue) == 0 {
		s.refill()
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	if o.ack {
		// Plan order is a topological order of its DAG, so any index
		// prefix is dependency-closed.
		committed := make([]int, lastNodes/2)
		for i := range committed {
			committed[i] = i
		}
		o.line = mustJSON(map[string]any{"ack": server.StepAck{Failed: true, Committed: committed}})
	}
	return o
}

func (s *opStream) refill() {
	switch s.t.mode {
	case modeOneFlip:
		s.queue = append(s.queue, s.flip([]int{s.r.Intn(len(s.t.pairs))}))
		return
	case modeAllFlip:
		all := make([]int, len(s.t.pairs))
		for i := range all {
			all[i] = i
		}
		s.queue = append(s.queue, s.flip(all))
		return
	}
	const (
		evRoll = iota
		evFlap
		evReject
		evRepair
	)
	block := []int{evRoll, evRoll, evRoll, evRoll, evRoll, evRoll, evRoll, evFlap, evFlap, evFlap, evReject, evRepair}
	s.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	for _, ev := range block {
		k := 1 + s.r.Intn(4)
		if k > len(s.t.pairs) {
			k = len(s.t.pairs)
		}
		set := s.r.Perm(len(s.t.pairs))[:k]
		switch ev {
		case evRoll:
			s.queue = append(s.queue, s.flip(set))
		case evFlap:
			s.queue = append(s.queue, s.flip(set), s.flip(set), s.flip(set))
		case evReject:
			line := mustJSON(config.StreamDelta{Reroute: s.t.gadget})
			s.queue = append(s.queue, op{line: line, want: wantImpossible}, op{line: line, want: wantImpossible})
		case evRepair:
			s.queue = append(s.queue, s.flip(set), op{want: wantRepair, ack: true})
		}
	}
}

// flip moves every pair in set onto its other branch.
func (s *opStream) flip(set []int) op {
	d := config.StreamDelta{}
	for _, i := range set {
		s.onB[i] = !s.onB[i]
		p := s.t.pairs[i]
		path := p.paths[0]
		if s.onB[i] {
			path = p.paths[1]
		}
		d.Reroute = append(d.Reroute, config.Reroute{Class: p.class, Path: path})
	}
	return op{line: mustJSON(d), want: wantPlan}
}

// mustJSON encodes a value that cannot fail to encode, newline-terminated
// (one JSONL request line).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
