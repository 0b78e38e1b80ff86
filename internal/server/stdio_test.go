package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/server"
)

const stdioStream = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},
 "classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}
{"reroute":[{"class":"c","path":[0,2,3]}]}
{"reroute":[{"class":"missing","path":[0,2,3]}]}
{"reroute":[{"class":"c","path":[0,1,3]}]}
`

// lockedBuffer lets the test poll output written from ServeStdio's
// goroutine without a race.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// TestServeStdioEndToEnd: the -stream serving surface over a pool — one
// result line per delta, bad deltas positioned and skipped, stream
// summary on errw.
func TestServeStdioEndToEnd(t *testing.T) {
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 1, QueueDepth: 1})
	var out, errw lockedBuffer
	err := server.ServeStdio(context.Background(), strings.NewReader(stdioStream),
		&out, &errw, p, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	lines := out.lines()
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	var results []server.Result
	for _, l := range lines {
		var r server.Result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		results = append(results, r)
	}
	if results[0].Result != "plan" || results[0].Seq != 1 || results[0].Tenant == "" {
		t.Fatalf("first = %+v", results[0])
	}
	if results[1].Result != "error" || results[1].Line != 5 ||
		!strings.Contains(results[1].Error, results[1].Tenant) {
		t.Fatalf("bad delta must carry tenant and line 5 (header spans 3 lines): %+v", results[1])
	}
	if results[2].Result != "plan" {
		t.Fatalf("third = %+v", results[2])
	}
	if elog := strings.Join(errw.lines(), "\n"); !strings.Contains(elog, "3 syntheses served") {
		t.Fatalf("summary missing: %q", elog)
	}
}

// TestServeStdioGracefulCancel: canceling the context (the CLI's signal
// path) stops intake — the already-served result lines stand, ServeStdio
// returns nil, and the input is never read to EOF.
func TestServeStdioGracefulCancel(t *testing.T) {
	pr, pw := io.Pipe()
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out, errw lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- server.ServeStdio(ctx, pr, &out, &errw, p, core.Options{}, true)
	}()
	header := `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`
	if _, err := io.WriteString(pw, header+"\n"+`{"reroute":[{"class":"c","path":[0,2,3]}]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	// Wait for the in-flight delta's plan line to flush, then "send the
	// signal" while the reader is blocked on a silent stdin.
	deadline := time.Now().Add(10 * time.Second)
	for len(out.lines()) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no result line; out = %q", out.lines())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown must not error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeStdio did not return after cancel")
	}
	if lines := out.lines(); len(lines) != 1 {
		t.Fatalf("flushed lines = %q, want the one in-flight result", lines)
	}
	pw.Close()
}

// TestServeStdioHeaderRefusesRetiredKeys: a -stream header that spells a
// key of a removed option is refused before any tenant registers, and the
// error names the key — as the HTTP registration refuses it.
func TestServeStdioHeaderRefusesRetiredKeys(t *testing.T) {
	const classes = `"spec":"sw=0 -> F sw=3"}]`
	for _, key := range []string{"minCompletion", "noCexLearning", "noEarlyTermination", "noHeuristicOrder"} {
		in := strings.Replace(stdioStream, classes, classes+`,"`+key+`":true`, 1)
		p := server.NewPool(server.PoolOptions{Workers: 1})
		var out, errw lockedBuffer
		err := server.ServeStdio(context.Background(), strings.NewReader(in), &out, &errw, p, core.Options{}, true)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: err = %v, want a header error naming the key", key, err)
		}
		if n := p.Metric("pool_tenants"); n != 0 || len(out.lines()) != 0 {
			t.Errorf("%s: %g tenants registered, %d lines out; want none", key, n, len(out.lines()))
		}
	}
}

// TestServeStdioDecodeErrorTerminal: a syntax error mid-stream emits a
// positioned error line and then fails the stream.
func TestServeStdioDecodeErrorTerminal(t *testing.T) {
	in := strings.ReplaceAll(stdioStream, `{"reroute":[{"class":"missing","path":[0,2,3]}]}`, `{"reroute": broken`)
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 1, QueueDepth: 1})
	var out, errw lockedBuffer
	err := server.ServeStdio(context.Background(), strings.NewReader(in), &out, &errw, p, core.Options{}, true)
	if err == nil {
		t.Fatal("syntax error must be terminal")
	}
	lines := out.lines()
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	var last server.Result
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Result != "error" || last.Line != 5 {
		t.Fatalf("decode error must be positioned on line 5: %+v", last)
	}
}

// TestStdioAndHTTPAnswerAlike: both surfaces run the one line-serving
// loop, so the same request lines — deltas, a bad delta, a commit ack, a
// failure ack, a syntax error — must draw the same Result lines from
// each, modulo timings and request ids.
func TestStdioAndHTTPAnswerAlike(t *testing.T) {
	header := strings.ReplaceAll(lineSpec, "\n", "")
	requests := strings.Join([]string{
		`{"reroute":[{"class":"c","path":[0,2,3]}]}`,
		`{"reroute":[{"class":"ghost","path":[0,2,3]}]}`,
		`{"ack":{"step":0}}`,
		`{"ack":{"failed":true,"committed":[]}}`,
		`{"reroute":[{"class":"c","path":[0,1,3]}]}`,
		`{"reroute": broken`,
	}, "\n") + "\n"

	var out, errw lockedBuffer
	p := server.NewPool(server.PoolOptions{Workers: 1})
	err := server.ServeStdio(context.Background(), strings.NewReader(header+"\n"+requests), &out, &errw, p, core.Options{}, true)
	if err == nil {
		t.Fatal("the syntax error must end the stdio stream with an error")
	}

	ts, _ := startDaemon(t, server.PoolOptions{Workers: 1})
	info := register(t, ts, header)
	// The blank first line stands in for the header, so positions agree.
	resp, err := http.Post(ts.URL+"/v1/tenants/"+info.ID+"/synthesize", "application/x-ndjson", strings.NewReader("\n"+requests))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// normalize decodes result lines and blanks what legitimately differs.
	normalize := func(lines []string) []server.Result {
		var results []server.Result
		for _, l := range lines {
			var r server.Result
			if err := json.Unmarshal([]byte(l), &r); err != nil {
				t.Fatalf("%q: %v", l, err)
			}
			if st := r.Stats; st != nil {
				st.ElapsedMS, st.RebindMS, st.SearchMS, st.WaitRemovalMS, st.VerifyMS, st.CacheVerifyMS = 0, 0, 0, 0, 0, 0
				st.RequestID = ""
			}
			results = append(results, r)
		}
		return results
	}
	viaStdio := normalize(out.lines())
	viaHTTP := normalize(strings.Split(strings.TrimSpace(string(body)), "\n"))
	var kinds []string
	for _, r := range viaStdio {
		kinds = append(kinds, r.Result)
	}
	if want := "plan error acked repair plan error"; strings.Join(kinds, " ") != want {
		t.Fatalf("stdio answered %q, want %q", kinds, want)
	}
	if !reflect.DeepEqual(viaStdio, viaHTTP) {
		a, _ := json.MarshalIndent(viaStdio, "", " ")
		b, _ := json.MarshalIndent(viaHTTP, "", " ")
		t.Fatalf("the surfaces answered differently\nstdio: %s\nhttp: %s", a, b)
	}
	if last := viaHTTP[len(viaHTTP)-1]; last.Line != 7 || viaHTTP[1].Line != 3 {
		t.Fatalf("bad delta on line %d (want 3), syntax error on line %d (want 7)", viaHTTP[1].Line, last.Line)
	}
}
