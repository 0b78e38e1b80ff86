package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"netupdate/internal/tenantspec"
)

// hugeSwitches is a 196-byte registration declaring 4 194 304 switches, of
// which its one link and two hosts name two: before the count was capped
// (config.MaxSwitches) registering it allocated 337 MB, and the tenant
// kept them.
const hugeSwitches = `{"name":"oversized","topology":{"switches":4194304,"links":[[0,1]],"hosts":[{"id":1,"switch":0},{"id":2,"switch":1}]},"classes":[{"name":"c","src":1,"dst":2,"path":[0,1],"spec":"sw=0 -> F sw=1"}]}`

// TestRegistrationSwitchCountIsBounded: a switch count past
// config.MaxSwitches is a 400 naming the count, and refusing it allocates
// next to nothing.
func TestRegistrationSwitchCountIsBounded(t *testing.T) {
	if len(hugeSwitches) != 196 {
		t.Fatalf("the body is %d bytes", len(hugeSwitches))
	}
	h := NewHandler(NewPool(PoolOptions{Workers: 1}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(hugeSwitches)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "4194304 switches") {
		t.Fatalf("status %d, body %s; want 400 naming the count", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the registration allocated %d bytes", grew)
	}
}

// TestRegistrationClassPortsAreBounded: the committed seed many-class-ports
// is a 222 KB registration of 1 000 one-hop classes over 10 000 links
// (21 001 ports) on 16 384 switches. Before config.MaxClassPorts a pool
// built every class over every port: the registration was a 201 after
// 104 MB. Now it is a 400 naming the product, refused after decoding the
// body (1.5 MB).
func TestRegistrationClassPortsAreBounded(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRegistration", "many-class-ports"))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(NewPool(PoolOptions{Workers: 1}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1000 classes over 21001 ports") {
		t.Fatalf("status %d, body %s; want 400 naming the classes and ports", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Fatalf("refusing the registration allocated %d bytes", grew)
	}
}

// FuzzRegistration: the bytes of a registration, decoded as every surface
// decodes them (tenantspec.Decode) and registered on a pool — which builds
// the stream header (config.StreamHeader.Build) and the tenant's session —
// are an error or a tenant registered with the switches and classes they
// declare, never a panic, and allocate no more than 2 MB (a network of
// config.MaxSwitches switches takes 1.3 MB) plus 1 KB per input byte. A
// class's structure holds a word per port of the network, so classes ×
// ports grows faster than the input; config.MaxClassPorts caps it (430
// one-hop classes over 9 531 ports, a 97 KB body, allocated 24 MB), under
// the bound of any body long enough to reach the cap (some 55 KB at the
// least). The committed seeds (testdata/fuzz/FuzzRegistration) are a
// valid registration with every option set, hugeSwitches,
// many-class-ports, and one registration per removed option key:
// noPlanCache, trace and timeoutNs.
func FuzzRegistration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPool(PoolOptions{Workers: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var spec TenantSpec
		_, _, err := tenantspec.Decode(bytes.NewReader(data), &spec)
		var info *TenantInfo
		if err == nil {
			info, err = p.Register(&spec)
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+1<<10*len(data)); grew > bound {
			t.Fatalf("%d input bytes registered in %d bytes, over %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if !info.Created || info.Switches != spec.Topology.Switches || info.Classes != len(spec.Classes) {
			t.Fatalf("%q registered as %+v", data, info)
		}
	})
}
