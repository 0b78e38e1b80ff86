package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"netupdate/internal/obs"
	"netupdate/internal/server"
)

// The serving pass: one netupdated subprocess, driven closed-loop over
// HTTP. A controller waits for a tenant's plan before sending that
// tenant's next delta (sessions are single-flight, and a real controller
// cannot issue the next reroute before it knows the last one's plan), so
// load is a fixed number of clients, each owning a fixed share of the
// tenants, on one keep-alive connection each, one POST per delta.
//
// The timed load does not cross netupdatelb. The router truncates a few
// in every thousand proxied responses (its ReverseProxy transport probes
// the inbound request body after the backend has already answered and the
// inbound server has closed that body: "http: invalid Read on closed
// Body", then "unexpected EOF" at the client), and a workload must not
// contain failing operations. The router is measured by the ladder's lb
// rung instead, which counts the truncations it meets (see ladder.go).

// control is the client for registration, health and metric scrapes; it
// holds no connections open, so the only persistent connections a daemon
// sees are the load clients'.
var control = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: opDeadline}

// record is one request as the client saw it.
type record struct {
	op      op
	body    []byte         // raw response (one Result line on success)
	res     *server.Result // decoded body; nil until judge ran
	latMS   float64
	startNS int64  // offset from the stack's epoch (client spans of the traced pass)
	reqID   string // client-minted request id of a traced request
	fail    string // non-empty: why this op counts as failed
}

// judge decodes the response and compares its kind with the generator's
// label. Idempotent.
func (r *record) judge() {
	if r.fail != "" || r.res != nil {
		return
	}
	r.res = new(server.Result)
	if err := json.Unmarshal(r.body, r.res); err != nil {
		r.fail = "undecodable result line: " + err.Error()
	} else if r.res.Result != r.op.want {
		r.fail = fmt.Sprintf("result %q (%s), generator expected %q", r.res.Result, r.res.Error, r.op.want)
	}
}

// stack is one pass's running programs.
type stack struct {
	daemon, lb       *child // lb is nil unless the stack was started with the router
	daemonURL, lbURL string
	url              string   // where clients connect: the router when there is one
	ids              []string // tenant ids, parallel to workload.tenants
	epoch            time.Time
}

// startStack spawns the daemon (default flags except -addr and the
// workload's own) and optionally the router in front of it, and
// registers every tenant through the front door.
func startStack(e *env, w *workload, tag string, withLB bool) (*stack, error) {
	s := &stack{epoch: time.Now()}
	var err error
	s.daemon, s.daemonURL, err = startServer(filepath.Join(e.out, tag+"-netupdated.log"), e.program("netupdated"),
		func(addr string) []string {
			args := []string{"-addr", addr}
			if w.maxSessions != 0 {
				args = append(args, "-max-sessions", fmt.Sprint(w.maxSessions))
			}
			return args
		})
	if err != nil {
		return nil, err
	}
	s.url = s.daemonURL
	if withLB {
		s.lb, s.lbURL, err = startServer(filepath.Join(e.out, tag+"-netupdatelb.log"), e.program("netupdatelb"),
			func(addr string) []string { return []string{"-addr", addr, "-replicas", s.daemonURL} })
		if err != nil {
			s.stop()
			return nil, err
		}
		s.url = s.lbURL
	}
	for _, t := range w.tenants {
		id, err := register(s.url, t.spec)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("registering %s: %w", t.name, err)
		}
		s.ids = append(s.ids, id)
	}
	return s, nil
}

func (s *stack) stop() {
	if s.lb != nil {
		s.lb.stop()
	}
	s.daemon.stop()
}

func register(base string, spec []byte) (string, error) {
	resp, err := control.Post(base+"/v1/tenants", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	var info server.TenantInfo
	if resp.StatusCode >= 300 || json.Unmarshal(body, &info) != nil || info.ID == "" {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return info.ID, nil
}

// driver is one closed-loop load run against a base URL: clients own
// tenants statically (tenant i belongs to client i mod clients) and visit
// their tenants round-robin, so every tenant's request sequence is the
// same whatever the timing.
type driver struct {
	w       *workload
	base    string
	ids     []string
	streams []*opStream
	nodes   []int // per tenant: DAG nodes of its last plan (failure acks commit a prefix)
	cursor  []int // per client: where in its tenants its next run resumes
	traced  bool  // ?trace=1 with a client-minted request id
	epoch   time.Time
	records [][]record // per tenant, in request order
}

func newDriver(w *workload, s *stack) *driver {
	d := &driver{w: w, base: s.url, ids: s.ids, epoch: s.epoch,
		streams: make([]*opStream, len(w.tenants)),
		nodes:   make([]int, len(w.tenants)),
		records: make([][]record, len(w.tenants)),
	}
	for i, t := range w.tenants {
		d.streams[i] = t.ops()
	}
	return d
}

// conn is one client's keep-alive HTTP/1.1 connection. The load generator
// shares the host's cores with the programs it measures, so it speaks the
// protocol over one socket directly (a request write, a response read)
// instead of through net/http's Transport, whose per-connection reader
// and writer goroutines cost about as much CPU per request as the daemon
// spends serving a plan-cache hit.
type conn struct {
	host string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// post sends one request line and returns the response status and body.
// Any transport error drops the connection; the next post redials.
func (k *conn) post(path, reqID string, line []byte) (int, []byte, error) {
	if k.c == nil {
		c, err := net.DialTimeout("tcp", k.host, opDeadline)
		if err != nil {
			return 0, nil, err
		}
		k.c, k.br, k.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	status, body, err := k.roundTrip(path, reqID, line)
	if err != nil {
		k.close()
	}
	return status, body, err
}

func (k *conn) roundTrip(path, reqID string, line []byte) (int, []byte, error) {
	if err := k.c.SetDeadline(time.Now().Add(opDeadline)); err != nil {
		return 0, nil, err
	}
	fmt.Fprintf(k.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n", path, k.host, len(line))
	if reqID != "" {
		fmt.Fprintf(k.bw, "%s: %s\r\n", obs.RequestIDHeader, reqID)
	}
	k.bw.WriteString("\r\n")
	k.bw.Write(line)
	if err := k.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		k.close()
	}
	return resp.StatusCode, body, err
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// run drives the load until every client has sent at least perTenant ops
// to each of its tenants and the duration has elapsed, and returns the wall
// time from the common start to the last client's finish. A warm-up or a
// ladder rung is a count (no duration); a timed region is a duration with
// the quality sample as its floor, so that a slow host cannot cut the
// sample short. Earlier records are kept; run appends.
func (d *driver) run(clients, perTenant int, dur time.Duration) time.Duration {
	if len(d.cursor) != clients {
		d.cursor = make([]int, clients)
	}
	var wg sync.WaitGroup
	begin := time.Now()
	ends := make([]time.Time, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := &conn{host: strings.TrimPrefix(d.base, "http://")}
			defer k.close()
			var mine []int
			for i := range d.ids {
				if i%clients == c {
					mine = append(mine, i)
				}
			}
			// The round-robin resumes where this client's last run left it,
			// so a region cut into several runs visits the tenants in the
			// order one long run would (serve-churn's evictions depend on it).
			for n := 0; len(mine) > 0; n++ {
				if n >= perTenant*len(mine) && time.Since(begin) >= dur {
					d.cursor[c] = (d.cursor[c] + n) % len(mine)
					break
				}
				d.send(k, mine[(d.cursor[c]+n)%len(mine)])
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	last := begin
	for _, t := range ends {
		if t.After(last) {
			last = t
		}
	}
	return last.Sub(begin)
}

// send issues tenant ti's next op and records the outcome.
func (d *driver) send(k *conn, ti int) {
	rec := record{op: d.streams[ti].next(d.nodes[ti])}
	path := "/v1/tenants/" + d.ids[ti] + "/synthesize"
	if d.traced {
		path += "?trace=1"
		rec.reqID = obs.NewRequestID()
	}
	t0 := time.Now()
	status, body, err := k.post(path, rec.reqID, rec.op.line)
	rec.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.startNS = t0.Sub(d.epoch).Nanoseconds()
	rec.body = body
	switch {
	case err != nil:
		rec.fail = "transport: " + err.Error()
		d.nodes[ti] = 0 // the plan, if any, was lost: a following failure ack commits nothing
	case status != http.StatusOK:
		rec.fail = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	case d.w.tenants[ti].mode == modeMixed:
		// Only the mixed stream needs the answer before the next request
		// (a failure ack commits a prefix of the plan just returned);
		// every other answer is decoded after the timed region, off the
		// load generator's clock.
		if rec.judge(); rec.res.DAG != nil {
			d.nodes[ti] = len(rec.res.DAG.Preds)
		}
	}
	d.records[ti] = append(d.records[ti], rec)
}

// servePass is what one fresh-process pass of a serving workload measured.
type servePass struct {
	setupS, wallS float64
	ops           int       // timed ops
	attempted     int       // all ops, warm-up included
	failed        int       // of attempted; counted by check
	lat           []float64 // ms, timed ops only
	daemonCPU     float64   // seconds inside the timed region
	clientCPU     float64
	daemonRSS     float64    // MB, VmHWM at teardown
	records       [][]record // per tenant: warm-up then timed
	warmup        []int      // per tenant: how many leading records are warm-up
	daemonM       promMetrics
	epoch         time.Time
	firstFail     string
	// Host-speed index (see calib.go) around set-up and around the timed
	// region.
	setupIndex, index float64
}

// timedSegments is how many stretches a pass's timed region is cut into,
// with the reference work timed between them.
const timedSegments = 3

// runServePass runs spawn -> /healthz -> register -> warm-up -> timed ops
// -> scrape -> SIGTERM. Warm-up is a fixed op count per tenant, so the
// plans it asks for (and the caches it fills) are the same every pass;
// the timed region is a duration.
func runServePass(e *env, w *workload, tag string, dur time.Duration, traced bool) (*servePass, error) {
	prev := runtime.GOMAXPROCS(w.clients)
	defer runtime.GOMAXPROCS(prev)

	c0 := hostIndex()
	t0 := time.Now()
	s, err := startStack(e, w, tag, false)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	d := newDriver(w, s)
	d.run(w.clients, w.warmup, 0)
	p := &servePass{setupS: time.Since(t0).Seconds(), epoch: s.epoch}
	c1 := hostIndex()
	p.setupIndex = (c0 + c1) / 2
	for _, recs := range d.records {
		p.warmup = append(p.warmup, len(recs))
	}

	d.traced = traced
	cpu0, err := procCPUSeconds(s.daemon.pid())
	if err != nil {
		return nil, err
	}
	// The timed region runs in segments with the reference work timed
	// between them: the pass's index is the median of the readings around
	// and inside the region, so that a reading which catches a burst of a
	// few hundred milliseconds on the host does not rescale the whole pass.
	// The quality sample is the first segment's floor.
	indexes := []float64{c1}
	var wall time.Duration
	for seg, floor := 0, w.qualityOps; seg < timedSegments; seg, floor = seg+1, 0 {
		self0 := selfCPUSeconds()
		wall += d.run(w.clients, floor, dur/timedSegments)
		p.clientCPU += selfCPUSeconds() - self0
		indexes = append(indexes, hostIndex())
	}
	cpu1, err := procCPUSeconds(s.daemon.pid())
	if err != nil {
		return nil, err
	}
	p.wallS, p.daemonCPU, p.index = wall.Seconds(), cpu1-cpu0, median(indexes)

	if p.daemonM, err = scrape(s.daemonURL); err != nil {
		return nil, err
	}
	if p.daemonRSS, err = procPeakRSSMB(s.daemon.pid()); err != nil {
		return nil, err
	}
	p.records = d.records
	for ti, recs := range p.records {
		for i := range recs {
			recs[i].judge()
			p.attempted++
			if i >= p.warmup[ti] {
				p.ops++
				p.lat = append(p.lat, recs[i].latMS)
			}
		}
	}
	return p, nil
}

// promMetrics is one scrape of a Prometheus text endpoint: every
// unlabelled sample (histogram _sum and _count series included).
type promMetrics map[string]float64

func scrape(base string) (promMetrics, error) {
	resp, err := control.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := promMetrics{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, nil
}
