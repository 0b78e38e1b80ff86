package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

// testSpec is a minimal diamond tenant: one class with two internally
// disjoint paths between switch 0 and 3.
func testSpec(name string) *TenantSpec {
	return &TenantSpec{
		StreamHeader: config.StreamHeader{
			Name: name,
			Topology: config.TopologyFile{
				Switches: 4,
				Links:    [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}},
				Hosts:    []config.HostFile{{ID: 100, Switch: 0}, {ID: 101, Switch: 3}},
			},
			Classes: []config.StreamClass{{
				Name: "c", Src: 100, Dst: 101,
				Path: []int{0, 1, 3}, Spec: "sw=0 -> F sw=3",
			}},
		},
	}
}

func flipDelta() *config.StreamDelta {
	return &config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 2, 3}}}}
}

// TestQueueFullLoadShedding drives the admission controller through its
// bound deterministically: with a queue depth of 2, one request parked
// inside the engine (via the test seam) and one queued behind the tenant
// gate, the third admission attempt must shed with ErrQueueFull — and
// the parked requests must complete untouched once released.
func TestQueueFullLoadShedding(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 2})
	entered := make(chan string)
	release := make(chan struct{})
	p.beforeSynthesize = func(id string) {
		entered <- id
		<-release
	}
	info, err := p.Register(testSpec("shed"))
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		plan *core.Plan
		err  error
	}
	results := make(chan outcome, 2)
	issue := func() {
		plan, err := p.Synthesize(context.Background(), info.ID, flipDelta())
		results <- outcome{plan, err}
	}
	go issue() // A: admitted, holds gate+slot, parks in the seam
	<-entered
	go issue() // B: admitted, queued on the tenant gate
	waitPending(t, p, info.ID, 2)

	// C: the queue is at its bound; admission must shed without queuing.
	_, serr := p.Synthesize(context.Background(), info.ID, flipDelta())
	if !errors.Is(serr, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", serr)
	}
	if !Retryable(serr) {
		t.Fatal("queue-full must be retryable")
	}

	close(release) // A finishes; B takes the gate, parks, finds release closed
	<-entered
	for i := 0; i < 2; i++ {
		if out := <-results; out.err != nil {
			t.Fatalf("parked request %d failed: %v", i, out.err)
		}
	}
	if shed, plans := p.Metric("rejected_queue_full_total"), p.Metric("plans_total"); shed != 1 || plans != 2 {
		t.Fatalf("shed = %g, plans = %g", shed, plans)
	}
}

// waitPending polls the tenant's admitted-request counter (internal test:
// there is no external signal for "queued behind the gate").
func waitPending(t *testing.T, p *Pool, id string, want int32) {
	t.Helper()
	p.mu.Lock()
	tn := p.tenants[id]
	p.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for tn.pending.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want %d", tn.pending.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueWaitHonorsDeadline: a request expiring while queued behind the
// tenant gate reports core.ErrTimeout without ever running.
func TestQueueWaitHonorsDeadline(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 4})
	entered := make(chan string)
	release := make(chan struct{})
	p.beforeSynthesize = func(id string) {
		entered <- id
		<-release
	}
	info, err := p.Register(testSpec("expire"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Synthesize(context.Background(), info.ID, flipDelta())
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, serr := p.Synthesize(ctx, info.ID, flipDelta())
	if !errors.Is(serr, core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", serr)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
	if exp := p.Metric("deadline_expired_total"); exp != 1 {
		t.Fatalf("deadline_expired_total = %g", exp)
	}
}

// TestEveryOptionReachesTheSession is "adding an option is one edit": by
// reflection, every core.Options field — whatever fields there are — must
// carry a wire name and a plan-shaping/speed-only classification, appear
// in the spec's JSON when set, and survive JSON -> Register into the
// options the tenant's session is built with.
func TestEveryOptionReachesTheSession(t *testing.T) {
	var want core.Options
	typ, val := reflect.TypeOf(want), reflect.ValueOf(&want).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" || name == "-" {
			t.Errorf("core.Options.%s has no wire name (json tag)", f.Name)
		}
		if f.Tag.Get("plan") == "" {
			t.Errorf("core.Options.%s is not classified plan-shaping or speed-only (plan tag)", f.Name)
		}
		switch v := val.Field(i); v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		default:
			v.SetInt(3) // a sub-millisecond timeout
		}
	}
	spec := testSpec("every-option")
	spec.Options = OptionsSpec(want)
	wire := specJSON(t, spec)
	var keys struct {
		Options map[string]any `json:"options"`
	}
	if err := json.Unmarshal(wire, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys.Options) != typ.NumField() {
		t.Fatalf("%d options set, %d on the wire: %s", typ.NumField(), len(keys.Options), wire)
	}

	var decoded TenantSpec
	dec := json.NewDecoder(bytes.NewReader(wire))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolOptions{Workers: 1})
	info, err := p.Register(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.tenants[info.ID].opts; got != want {
		t.Fatalf("options lost between the wire and the session:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFingerprintCanonicalAndGolden: a spec that spells a default option
// (what netupdate -stream -connect used to send) and one that leaves it
// out (what every HTTP client sends) are the same tenant; and the ids of
// the default specs as JSON clients spell them are the ones computed at
// commit 9bc8855, so registered tenants and -learn-file stores keep their
// keys. The every-option row sets all seven keys; its ids are the ones
// that spec had while the option set still held the ablation switches
// and the completion-time tie-break.
// Every removed key — "checker", "parallel", "firstPlan", and
// "minCompletion" with the three ablation switches — is a 400 like any
// unknown key, even spelling the old default, and the error names the
// key.
func TestFingerprintCanonicalAndGolden(t *testing.T) {
	const header = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]`
	const everyOption = `,"options":{"rules":true,"twoSimple":true,"noWaitRemoval":true,"noDecompose":true,"noPlanCache":true,"trace":true,"timeoutNs":1500}}`
	p := NewPool(PoolOptions{Workers: 1})
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()
	for _, c := range []struct {
		spec, id, learnID string
		created           bool
	}{
		{header + `}`, "tdcca0df5fef64525", "tfabcc6aa29dfd747", true},
		{header + `,"options":{}}`, "tdcca0df5fef64525", "tfabcc6aa29dfd747", false},
		{header + `,"options":{"twoSimple":false,"rules":false}}`, "tdcca0df5fef64525", "tfabcc6aa29dfd747", false},
		{header + everyOption, "t391d5448b2a0c960", "t1f01912990683ed1", true},
	} {
		resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		var info TenantInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != c.id || info.Created != c.created {
			t.Errorf("%s:\nregistered as %s (created %v), want %s (created %v)", c.spec, info.ID, info.Created, c.id, c.created)
		}
		var spec TenantSpec
		if err := json.Unmarshal([]byte(c.spec), &spec); err != nil {
			t.Fatal(err)
		}
		if learnID, err := spec.LearnFingerprint(); err != nil || learnID != c.learnID {
			t.Errorf("%s:\nlearn fingerprint %s (%v), want %s", c.spec, learnID, err, c.learnID)
		}
	}
	for key, value := range map[string]string{
		"checker": `"incremental"`, "parallel": "0", "firstPlan": "false",
		"minCompletion": "true", "noCexLearning": "true", "noEarlyTermination": "true", "noHeuristicOrder": "true",
	} {
		options := `,"options":{"` + key + `":` + value + `}}`
		resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(header+options))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `\"`+key+`\"`) {
			t.Errorf("%s: status %d, body %s; want 400 and the key by name", options, resp.StatusCode, body)
		}
	}
	if n := p.Metric("pool_tenants"); n != 2 {
		t.Fatalf("%g tenants registered, want 2", n)
	}
}

// TestFingerprintStability: equal specs share an id, different specs do
// not.
func TestFingerprintStability(t *testing.T) {
	a, err := testSpec("fp").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec("fp").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal specs fingerprint differently: %s vs %s", a, b)
	}
	other := testSpec("fp")
	other.Options.TwoSimple = true
	c, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different options must fingerprint differently")
	}
}

// TestHTTPQueueFull429: over the daemon surface, a shed request carries
// an in-band retryable error line; the HTTP pre-flight errors (unknown
// tenant) got their status codes in http_test.go. Queue-full inside a
// streaming response cannot change the status line — the Result line's
// retryable flag is the contract.
func TestHTTPQueueFull429(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	entered := make(chan string)
	release := make(chan struct{})
	p.beforeSynthesize = func(id string) {
		entered <- id
		<-release
	}
	info, err := p.Register(testSpec("h429"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	parked := make(chan error, 1)
	go func() {
		_, err := p.Synthesize(context.Background(), info.ID, flipDelta())
		parked <- err
	}()
	<-entered

	resp, err := http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize",
		"application/x-ndjson", strings.NewReader(`{"reroute":[{"class":"c","path":[0,2,3]}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Result != "error" || !res.Retryable || !strings.Contains(res.Error, "queue full") {
		t.Fatalf("shed result = %+v", res)
	}
	close(release) // the shed request never reached the seam; only A parks
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}
