package lb_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"netupdate/internal/lb"
	"netupdate/internal/server"
	"netupdate/internal/tenantspec"
)

// specNamed is a valid one-class registration named name.
func specNamed(name string) string {
	return `{"name":"` + name + `","topology":{"switches":4,"links":[[0,1],[1,3],[0,2],[2,3]],"hosts":[{"id":100,"switch":0},{"id":101,"switch":3}]},"classes":[{"name":"c","src":100,"dst":101,"path":[0,1,3],"spec":"sw=0 -> F sw=3"}]}`
}

// replicaHandler is one in-process netupdated; registrations counts the
// registrations it is sent.
func replicaHandler(t *testing.T, registrations *atomic.Int64) http.Handler {
	t.Helper()
	p := server.NewPool(server.PoolOptions{Workers: 1})
	t.Cleanup(func() { _ = p.Close(context.Background()) })
	h := server.NewHandler(p)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/tenants" {
			registrations.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// TestRegistrationParity: a registration is decoded alike whether it
// comes in through the router or straight to a replica — one bound, one
// strict decoder, one fingerprint — and what the replica would refuse the
// router refuses without forwarding it.
func TestRegistrationParity(t *testing.T) {
	var forwarded, direct atomic.Int64
	behind := httptest.NewServer(replicaHandler(t, &forwarded))
	t.Cleanup(behind.Close)
	router, err := lb.New([]string{behind.URL})
	if err != nil {
		t.Fatal(err)
	}
	front, replica := router.Handler(), replicaHandler(t, &direct)
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(body)))
		return rec
	}

	overBound := `{"name":"` + strings.Repeat("a", tenantspec.MaxBytes) + `"}`
	retiredKey := strings.TrimSuffix(specNamed("retired"), "}") + `,"options":{"checker":"incremental"}}`
	for _, c := range []struct {
		name, body, names string
		status            int
		forwards          int64
	}{
		{"over-bound body", overBound, "", http.StatusRequestEntityTooLarge, 0},
		{"retired option key", retiredKey, `\"checker\"`, http.StatusBadRequest, 0},
		{"second JSON value", specNamed("second") + "\n" + specNamed("ignored"), "", http.StatusCreated, 1},
		{"valid spec", specNamed("valid"), "", http.StatusCreated, 1},
	} {
		before := forwarded.Load()
		via, straight := post(front, c.body), post(replica, c.body)
		if via.Code != c.status || straight.Code != c.status {
			t.Errorf("%s: router %d %s, replica %d %s; want %d from both",
				c.name, via.Code, via.Body, straight.Code, straight.Body, c.status)
			continue
		}
		if got := forwarded.Load() - before; got != c.forwards {
			t.Errorf("%s: the router forwarded %d registrations, want %d", c.name, got, c.forwards)
		}
		if c.names != "" && (!strings.Contains(via.Body.String(), c.names) || !strings.Contains(straight.Body.String(), c.names)) {
			t.Errorf("%s: router %s, replica %s; want both to name %s", c.name, via.Body, straight.Body, c.names)
		}
		if c.status != http.StatusCreated {
			continue
		}
		var viaInfo, straightInfo server.TenantInfo
		if err := json.Unmarshal(via.Body.Bytes(), &viaInfo); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(straight.Body.Bytes(), &straightInfo); err != nil {
			t.Fatal(err)
		}
		var spec tenantspec.TenantSpec
		if _, _, err := tenantspec.Decode(strings.NewReader(c.body), &spec); err != nil {
			t.Fatal(err)
		}
		if id, err := spec.Fingerprint(); err != nil || viaInfo.ID != id || straightInfo.ID != id {
			t.Errorf("%s: router id %s, replica id %s, fingerprint %s (%v)", c.name, viaInfo.ID, straightInfo.ID, id, err)
		}
	}
}

// TestReplicaAddBodyIsBounded: POST /lb/replicas reads a bounded body, so
// an oversized {"url":...} is refused without being buffered whole and
// leaves the ring as it was.
func TestReplicaAddBodyIsBounded(t *testing.T) {
	var forwarded atomic.Int64
	behind := httptest.NewServer(replicaHandler(t, &forwarded))
	t.Cleanup(behind.Close)
	router, err := lb.New([]string{behind.URL})
	if err != nil {
		t.Fatal(err)
	}
	h := router.Handler()
	body := `{"url":"http://` + strings.Repeat("a", 1<<20) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/lb/replicas", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized replica body: status %d %s, want %d", rec.Code, rec.Body, http.StatusRequestEntityTooLarge)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lb/replicas", nil))
	var view struct {
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Replicas) != 1 || view.Replicas[0] != behind.URL {
		t.Fatalf("ring after the refused add = %v, want [%s]", view.Replicas, behind.URL)
	}
}
