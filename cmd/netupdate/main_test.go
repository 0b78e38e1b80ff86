package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"netupdate/internal/server"
)

const (
	connectHeader = `{"name":"line","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`
	connectDelta  = `{"reroute":[{"class":"c","path":[0,2,3]}]}`
)

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
