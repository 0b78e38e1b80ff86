package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netupdate/internal/server"
)

const (
	connectHeader = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`
	connectDelta  = `{"reroute":[{"class":"c","path":[0,2,3]}]}`
	// swapScenario has two classes swap the arms of a diamond in opposite
	// directions: each arm's switches must change in an order that the
	// other class forbids, so no switch-granularity order exists.
	swapScenario = `{"name":"swap","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],
 "hosts":[{"id":100,"switch":0},{"id":101,"switch":3},{"id":102,"switch":3},{"id":103,"switch":0}]},
 "classes":[{"name":"a","src":100,"dst":101,"initPath":[0,1,3],"finalPath":[0,2,3],"spec":"sw=0 -> F sw=3"},
            {"name":"b","src":102,"dst":103,"initPath":[3,2,0],"finalPath":[3,1,0],"spec":"sw=3 -> F sw=0"}]}`
)

// TestMain runs the command itself when a test starts this binary with
// NETUPDATE_RUN_MAIN set (netupdate below).
func TestMain(m *testing.M) {
	if os.Getenv("NETUPDATE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// netupdate runs the command in a child process with args and stdin, and
// returns what it wrote and how it exited.
func netupdate(t *testing.T, stdin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NETUPDATE_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestTimeoutBoundsOneShot: -timeout is the deadline of a one-shot
// search. The swap scenario is proved impossible within the default, and
// a 1 ns deadline reports a timeout instead of an answer.
func TestTimeoutBoundsOneShot(t *testing.T) {
	file := filepath.Join(t.TempDir(), "swap.json")
	if err := os.WriteFile(file, []byte(swapScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, errOut, err := netupdate(t, "", "-f", file, "-q"); err != nil || !strings.Contains(out, "IMPOSSIBLE") {
		t.Fatalf("default timeout: %v\n%s%s", err, out, errOut)
	}
	out, errOut, err := netupdate(t, "", "-f", file, "-q", "-timeout", "1ns")
	if err == nil || !strings.Contains(errOut, "timed out") || strings.Contains(out, "result:") {
		t.Fatalf("-timeout 1ns: %v\nstdout %s\nstderr %s", err, out, errOut)
	}
}

// TestTimeoutBoundsStream: in -stream mode -timeout bounds each delta's
// search, and a delta it cuts short is answered with an error line; the
// stream itself goes on.
func TestTimeoutBoundsStream(t *testing.T) {
	out, errOut, err := netupdate(t, connectHeader+"\n"+connectDelta+"\n", "-stream", "-q", "-timeout", "1ns")
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut)
	}
	var res server.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil || res.Seq != 1 || res.Result != "error" || !strings.Contains(res.Error, "timed out") {
		t.Fatalf("output %q (%v), want one error line reporting the timeout", out, err)
	}
}

// TestConnectDecodesHeaderStrictly: -stream -connect refuses a header key
// it does not know, naming it, before anything reaches the replica — as
// local -stream refuses it — and streams a header it knows as before.
func TestConnectDecodesHeaderStrictly(t *testing.T) {
	p := server.NewPool(server.PoolOptions{Workers: 1})
	t.Cleanup(func() { _ = p.Close(context.Background()) })
	replica := httptest.NewServer(server.NewHandler(p))
	t.Cleanup(replica.Close)
	f := &flags{connect: replica.URL + "/", quiet: true}

	const classes = `"spec":"sw=0 -> F sw=3"}]`
	for _, key := range []string{"minCompletion", "noCexLearning", "checker"} {
		in := strings.Replace(connectHeader, classes, classes+`,"`+key+`":true`, 1) + "\n" + connectDelta + "\n"
		var out bytes.Buffer
		err := runStreamRemote(f, strings.NewReader(in), &out)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: err = %v, want a header error naming the key", key, err)
		}
		if n := p.Metrics().Value("netupdate_pool_tenants"); n != 0 || out.Len() != 0 {
			t.Errorf("%s: %g tenants registered, output %q; want none", key, n, out.String())
		}
	}

	var out bytes.Buffer
	if err := runStreamRemote(f, strings.NewReader(connectHeader+"\n"+connectDelta+"\n"), &out); err != nil {
		t.Fatal(err)
	}
	var res server.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil || res.Seq != 1 || res.Result != "plan" {
		t.Fatalf("output %q (%v), want one plan line", out.String(), err)
	}
}
