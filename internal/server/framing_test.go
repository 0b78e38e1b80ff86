package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/lb"
	"netupdate/internal/server"
)

// The framing rule of the synthesize endpoint: a Result line is flushed as
// it is produced unless it is the last one a fixed-length request can
// produce; that line ends the response, which net/http then frames with
// Content-Length and sends in one write.

const (
	flipDelta = `{"reroute":[{"class":"c","path":[0,2,3]}]}`
	backDelta = `{"reroute":[{"class":"c","path":[0,1,3]}]}`
	// ghostDelta names no class of lineSpec: its answer is an error line
	// with no timings in it, so its bytes are fixed.
	ghostDelta = `{"reroute":[{"class":"ghost","path":[0,2,3]}]}`
)

// postOne sends a one-line body with a declared length and returns the
// response with its body read.
func postOne(t *testing.T, base, id, line string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/tenants/"+id+"/synthesize", "application/x-ndjson", strings.NewReader(line+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// checkLengthFramed asserts that a one-line answer came framed by
// Content-Length, not chunked, and that its body is exactly one Result
// line as the encoder writes it.
func checkLengthFramed(t *testing.T, resp *http.Response, body []byte, want string) server.Result {
	t.Helper()
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) || len(body) == 0 {
		t.Fatalf("one-line answer framed by Transfer-Encoding %q, Content-Length %d, for %d body bytes; want Content-Length only",
			resp.TransferEncoding, resp.ContentLength, len(body))
	}
	var r server.Result
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again.Bytes()) {
		t.Fatalf("body %q is not one encoded Result line %q", body, again.Bytes())
	}
	if r.Result != want {
		t.Fatalf("answer %+v, want %q", r, want)
	}
	return r
}

// ghostAnswer is the error line the ghost delta draws as the first request
// of a lineSpec tenant, byte for byte as the chunked responses carried it.
func ghostAnswer(id string) string {
	return `{"seq":1,"tenant":"` + id + `","result":"error","error":"server: tenant ` + id +
		`: config: invalid stream delta: unknown class \"ghost\"","line":1}` + "\n"
}

// TestHTTPOneLineAnswerIsLengthFramed: a one-line POST — what every request
// of the serving benchmark is — is answered with Content-Length and no
// chunking, and the body bytes are those of the chunked answer. A longer
// body is answered as before.
func TestHTTPOneLineAnswerIsLengthFramed(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	info := register(t, ts, lineSpec)

	resp, body := postOne(t, ts.URL, info.ID, ghostDelta)
	checkLengthFramed(t, resp, body, "error")
	if want := ghostAnswer(info.ID); string(body) != want {
		t.Fatalf("body\n%s\nwant\n%s", body, want)
	}
	resp, body = postOne(t, ts.URL, info.ID, flipDelta)
	if r := checkLengthFramed(t, resp, body, "plan"); len(r.Steps) == 0 || r.Stats == nil || r.DAG == nil {
		t.Fatalf("plan line lost a field: %+v", r)
	}
	// A body of two lines, sent whole, still has its first line flushed
	// before the second is served: the response is chunked.
	resp, body = postOne(t, ts.URL, info.ID, backDelta+"\n"+flipDelta)
	if len(resp.TransferEncoding) == 0 || bytes.Count(body, []byte("\n")) != 2 {
		t.Fatalf("two-line answer framed by Transfer-Encoding %q, Content-Length %d: %q",
			resp.TransferEncoding, resp.ContentLength, body)
	}
}

// rawExchange is one synthesize request written by hand on a raw
// connection, so the test controls when each body line is sent.
type rawExchange struct {
	t    *testing.T
	conn net.Conn
	body *bufio.Reader
}

// openExchange writes the request head with the given body framing header
// and the first body part, and reads the response head.
func openExchange(t *testing.T, addr, id, framing, first string) *rawExchange {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	x := &rawExchange{t: t, conn: conn}
	x.send(fmt.Sprintf("POST /v1/tenants/%s/synthesize HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\n%s\r\n\r\n%s",
		id, addr, framing, first))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response head before the body was complete: %v", err)
	}
	x.body = bufio.NewReader(resp.Body)
	return x
}

func (x *rawExchange) send(s string) {
	x.t.Helper()
	if _, err := io.WriteString(x.conn, s); err != nil {
		x.t.Fatal(err)
	}
}

// line reads the next Result line of the response body.
func (x *rawExchange) line() server.Result {
	x.t.Helper()
	b, err := x.body.ReadBytes('\n')
	if err != nil {
		x.t.Fatalf("no result line (%q so far): %v", b, err)
	}
	var r server.Result
	if err := json.Unmarshal(b, &r); err != nil {
		x.t.Fatalf("bad result line %q: %v", b, err)
	}
	return r
}

// streamTwoLines sends a two-line body in two parts over a raw connection
// and requires result 1 before part 2 is sent: a client that acks the plan
// it was just given cannot send its ack earlier. The body declares its
// length, or is chunked.
func streamTwoLines(t *testing.T, addr, id string, chunked bool) {
	t.Helper()
	l1, l2 := flipDelta+"\n", backDelta+"\n"
	framing := fmt.Sprintf("Content-Length: %d", len(l1)+len(l2))
	part1, part2 := l1, l2
	if chunked {
		framing = "Transfer-Encoding: chunked"
		part1 = fmt.Sprintf("%x\r\n%s\r\n", len(l1), l1)
		part2 = fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(l2), l2)
	}
	x := openExchange(t, addr, id, framing, part1)
	if r := x.line(); r.Seq != 1 || r.Result != "plan" {
		t.Fatalf("result 1 = %+v", r)
	}
	x.send(part2)
	if r := x.line(); r.Seq != 2 || r.Result != "plan" {
		t.Fatalf("result 2 = %+v", r)
	}
	if rest, err := io.ReadAll(x.body); err != nil || len(rest) != 0 {
		t.Fatalf("after two results: %q, %v", rest, err)
	}
}

// TestHTTPStreamedBodyFlushesEachLine: a client still sending its body —
// whether it declared the body's length or chunks it — reads each result
// before it sends the next line.
func TestHTTPStreamedBodyFlushesEachLine(t *testing.T) {
	ts, _ := startDaemon(t, server.PoolOptions{})
	info := register(t, ts, lineSpec)
	t.Run("content-length", func(t *testing.T) { streamTwoLines(t, ts.Listener.Addr().String(), info.ID, false) })
	t.Run("chunked", func(t *testing.T) { streamTwoLines(t, ts.Listener.Addr().String(), info.ID, true) })
}

// TestLBKeepsTheFraming: netupdatelb relays a Content-Length answer as it
// came, bytes and framing, and still relays each result of a body that is
// still being sent before the client sends its next line.
func TestLBKeepsTheFraming(t *testing.T) {
	backend, _ := startDaemon(t, server.PoolOptions{})
	lb, err := lb.New([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(lb.Handler())
	t.Cleanup(front.Close) // after the raw connections close: it waits for their requests
	info := register(t, front, lineSpec)

	resp, body := postOne(t, front.URL, info.ID, ghostDelta)
	checkLengthFramed(t, resp, body, "error")
	if want := ghostAnswer(info.ID); string(body) != want {
		t.Fatalf("body through the router\n%s\nwant\n%s", body, want)
	}
	resp, body = postOne(t, front.URL, info.ID, flipDelta)
	checkLengthFramed(t, resp, body, "plan")
	for _, chunked := range []bool{false, true} {
		streamTwoLines(t, front.Listener.Addr().String(), info.ID, chunked)
	}
}

// TestServeStdioFlushesEachLine: netupdate -stream hands ServeStdio a
// buffered stdout. A client that keeps stdin open after a delta — to ack
// the plan it is given — must read the plan line before its input ends.
func TestServeStdioFlushesEachLine(t *testing.T) {
	in, inw := io.Pipe()
	outr, outw := io.Pipe()
	p := server.NewPool(server.PoolOptions{Workers: 1, MaxSessions: 1, QueueDepth: 1})
	t.Cleanup(func() { _ = p.Close(context.Background()) })
	done := make(chan error, 1)
	go func() {
		buffered := bufio.NewWriter(outw)
		err := server.ServeStdio(context.Background(), in, buffered, io.Discard, p, core.Options{}, true)
		if ferr := buffered.Flush(); err == nil {
			err = ferr
		}
		outw.Close()
		done <- err
	}()
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(outr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	header := strings.ReplaceAll(lineSpec, "\n", "")
	if _, err := io.WriteString(inw, header+"\n"+flipDelta+"\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case l := <-lines:
		var r server.Result
		if err := json.Unmarshal([]byte(l), &r); err != nil || r.Seq != 1 || r.Result != "plan" {
			t.Fatalf("first line %q (%v), want the plan", l, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no result line while the input stayed open")
	}
	inw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if l, ok := <-lines; ok {
		t.Fatalf("extra output %q", l)
	}
}

// countingListener counts the Write calls on the connections it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// BenchmarkHTTPSynthesize: one op is a one-line POST with a declared length,
// on one kept-alive loopback connection, to a warm tenant whose answer is a
// plan-cache hit — what a serve-small request of the serving benchmark is.
// writes/op counts the server's Write calls on the connection: one, when the
// answer leaves with the end of the response.
//
// A request draws its buffers from sync.Pools (the engine's scratch, the
// wire's buffers), and a pool keeps an object per P that no other P can
// take: on two Ps a one-iteration run whose request lands on the other P
// than the priming's read 18 KB instead of 7.4 KB about one time in five.
// So this op runs on one P, where it reads what a warm daemon's requests
// allocate, and BenchmarkHTTPSynthesizeColdPools reads what a request
// allocates when it finds its pools empty.
func BenchmarkHTTPSynthesize(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchHTTPSynthesize(b, false)
}

// BenchmarkHTTPSynthesizeColdPools is BenchmarkHTTPSynthesize with every
// sync.Pool emptied before each op (two collections, the timer stopped):
// the cost of a request served on a P whose pools are cold.
func BenchmarkHTTPSynthesizeColdPools(b *testing.B) {
	benchHTTPSynthesize(b, true)
}

func benchHTTPSynthesize(b *testing.B, emptyPools bool) {
	p := server.NewPool(server.PoolOptions{})
	defer p.Close(context.Background())
	var spec server.TenantSpec
	if err := json.Unmarshal([]byte(lineSpec), &spec); err != nil {
		b.Fatal(err)
	}
	info, err := p.Register(&spec)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	srv := &http.Server{Handler: server.NewHandler(p)}
	go srv.Serve(counted)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var reqs [2][]byte
	for i, delta := range []string{flipDelta, backDelta} {
		reqs[i] = []byte(fmt.Sprintf("POST /v1/tenants/%s/synthesize HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n%s\n",
			info.ID, ln.Addr(), len(delta)+1, delta))
	}
	var body []byte
	post := func(req []byte) {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			b.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v: %s", resp.StatusCode, err, body)
		}
	}
	// The flip and its way back fill the plan cache; from then on every
	// request replays a cached plan.
	post(reqs[0])
	post(reqs[1])
	before := counted.writes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if emptyPools {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
		}
		post(reqs[i%2])
	}
	b.StopTimer()
	b.ReportMetric(float64(counted.writes.Load()-before)/float64(b.N), "writes/op")
	if !bytes.Contains(body, []byte(`"cacheHit":true`)) {
		b.Fatalf("not a plan-cache hit: %s", body)
	}
}
