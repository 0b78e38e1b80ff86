package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netupdate/internal/ltl"
	"netupdate/internal/server"
)

const lineSpec = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`

func startDaemon(t *testing.T, opts server.PoolOptions) (*httptest.Server, *server.Pool) {
	t.Helper()
	p := server.NewPool(opts)
	ts := httptest.NewServer(server.NewHandler(p))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = p.Close(context.Background()) })
	return ts, p
}

func register(t *testing.T, ts *httptest.Server, spec string) server.TenantInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: %s: %s", resp.Status, body)
	}
	var info server.TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestHTTPSynthesizeStreams: the full daemon round trip — register,
// stream three deltas (the middle one semantically bad), read three
// positioned result lines, check stats and metrics.
func TestHTTPSynthesizeStreams(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	info := register(t, ts, lineSpec)
	if !info.Created || info.Classes != 1 {
		t.Fatalf("info = %+v", info)
	}

	body := strings.Join([]string{
		`{"reroute":[{"class":"c","path":[0,2,3]}]}`,
		`{"reroute":[{"class":"ghost","path":[0,2,3]}]}`,
		`{"reroute":[{"class":"c","path":[0,1,3]}]}`,
	}, "\n") + "\n"
	resp, err := http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize?timeout=10s",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []server.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r server.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Result != "plan" || len(results[0].Steps) == 0 || results[0].Stats == nil {
		t.Fatalf("first result = %+v", results[0])
	}
	if results[1].Result != "error" || results[1].Line != 2 ||
		!strings.Contains(results[1].Error, info.ID) ||
		!strings.Contains(results[1].Error, "ghost") {
		t.Fatalf("bad delta must report tenant id and line 2: %+v", results[1])
	}
	if results[2].Result != "plan" || results[2].Seq != 3 {
		t.Fatalf("third result = %+v", results[2])
	}

	// Stats: two plans, one failure, tenant warm.
	sresp, err := http.Get(ts.URL + "/v1/tenants/" + info.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st server.TenantStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Plans != 2 || !st.Warm || st.ID != info.ID {
		t.Fatalf("stats = %+v", st)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"netupdate_pool_tenants 1",
		"netupdate_pool_warm_sessions 1",
		"netupdate_plans_total 2",
		"netupdate_bad_requests_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPRegisterRejectsDeepSpec: a registration whose class
// specification nests one level deeper than the parser takes is a 400
// naming the offset — it once recursed once per level, and a deep enough
// spec overflowed the daemon's stack — and the pool registers and serves
// the next tenant.
func TestHTTPRegisterRejectsDeepSpec(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	deep := strings.Replace(lineSpec, `"sw=0 -> F sw=3"`, `"`+strings.Repeat("X ", ltl.MaxNesting+1)+`sw=3"`, 1)
	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(deep))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "nested deeper than") ||
		!strings.Contains(string(body), "offset") {
		t.Fatalf("register: %s: %s, want 400 and the nesting error", resp.Status, body)
	}
	info := register(t, ts, lineSpec)
	resp, err = http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize", "application/x-ndjson",
		strings.NewReader(`{"reroute":[{"class":"c","path":[0,2,3]}]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r server.Result
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Result != "plan" {
		t.Fatalf("next request: %+v", r)
	}
}

// TestHTTPDecodeErrorsArePositioned: a syntactically broken request body
// yields an in-band error line naming the tenant and the body line.
func TestHTTPDecodeErrorsArePositioned(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	info := register(t, ts, lineSpec)
	body := `{"reroute":[{"class":"c","path":[0,2,3]}]}` + "\n" + `{"reroute": garbage` + "\n"
	resp, err := http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %q", raw)
	}
	var last server.Result
	if err := json.Unmarshal(lines[1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Result != "error" || last.Line != 2 || !strings.Contains(last.Error, info.ID) {
		t.Fatalf("decode error must carry tenant id and line 2: %+v", last)
	}
}

// TestHTTPStatusMapping: 404 for unknown tenants and malformed specs are
// 400 with a line position.
func TestHTTPStatusMapping(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	resp, err := http.Get(ts.URL + "/v1/tenants/tdeadbeef/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/tenants/tdeadbeef/synthesize", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("synthesize status = %d, want 404", resp.StatusCode)
	}
	bad := strings.Replace(lineSpec, `"classes"`, `"classez"`, 1)
	resp, err = http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Line == 0 || e.Error == "" {
		t.Fatalf("spec error must be positioned: %+v", e)
	}
	// Bad per-request timeout.
	info := register(t, ts, lineSpec)
	resp, err = http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize?timeout=yesplease", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout status = %d, want 400", resp.StatusCode)
	}
}

// The queue-full → in-band retryable error path over HTTP lives in
// admission_test.go (package server), where the test seam required to
// park a request deterministically is accessible.
