package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/network"
	"netupdate/internal/tenantspec"
)

// TestRefusedTargetStatus: a target the engine refuses — its class
// dropped, looped or rewritten on the way — maps to the status, retry hint
// and wire line a refusal always had: 500, not retryable, "error".
func TestRefusedTargetStatus(t *testing.T) {
	sc := config.Fig1RedBlue()
	cl := sc.Specs[0].Class
	path, err := config.PathOf(sc.Final, sc.Topo, cl)
	if err != nil || len(path) < 3 {
		t.Fatalf("path %v (%v)", path, err)
	}
	at := func(sw int, actions ...network.Action) *config.Config {
		out := sc.Final.Clone()
		var tbl network.Table
		for _, r := range sc.Final.Table(sw) {
			if r.Match != cl.Pattern() {
				tbl = append(tbl, r)
			}
		}
		if actions != nil {
			tbl = append(tbl, network.Rule{Priority: 10, Match: cl.Pattern(), Actions: actions})
		}
		out.SetTable(sw, tbl)
		return out
	}
	back, _ := sc.Topo.PortToward(path[1], path[0])
	on, _ := sc.Topo.PortToward(path[1], path[2])
	for name, bad := range map[string]*config.Config{
		"violating": at(path[0]),
		"cyclic":    at(path[1], network.Forward(back)),
		"rewriting": at(path[1], network.SetField(network.FieldTyp, 9), network.Forward(on)),
	} {
		_, err := core.Synthesize(&config.Scenario{Topo: sc.Topo, Init: sc.Init, Final: bad, Specs: sc.Specs}, core.Options{})
		if !errors.Is(err, core.ErrFinalViolation) {
			t.Fatalf("%s: err = %v, want ErrFinalViolation", name, err)
		}
		if got := statusOf(err); got != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want %d", name, got, http.StatusInternalServerError)
		}
		if Retryable(err) {
			t.Errorf("%s: a refusal reads as retryable", name)
		}
		if res := NewResult(1, "t", nil, err); res.Result != "error" || res.Error != err.Error() {
			t.Errorf("%s: wire line %+v", name, res)
		}
	}
}

// TestRegisterBodyLimit: a registration body past tenantspec.MaxBytes is cut
// off there and answered 413, and the pool registers the next tenant.
func TestRegisterBodyLimit(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	t.Cleanup(func() { _ = p.Close(context.Background()) })
	h := NewHandler(p)
	body := io.MultiReader(strings.NewReader(`{"name":"`),
		io.LimitReader(repeatByte('a'), tenantspec.MaxBytes), strings.NewReader(`"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit registration: %d %s, want 413", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(string(specJSON(t, testSpec("next"))))))
	if rec.Code != http.StatusCreated {
		t.Fatalf("next registration: %d %s", rec.Code, rec.Body)
	}
}

// repeatByte reads as an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
