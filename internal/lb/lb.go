// Package lb is the sharding router in front of netupdated replicas and
// the hash ring it places tenants on, which netupdate -connect shares. It
// moves registrations and snapshot bytes and imports no engine package.
package lb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"

	"netupdate/internal/obs"
	"netupdate/internal/tenantspec"
)

// LB is the sharding router (cmd/netupdatelb): it spreads tenants across
// netupdated replicas with a consistent-hash ring, proxies each tenant's
// streaming traffic to its owner, and — when the ring changes — migrates
// affected tenants by exporting their session snapshot from the old
// owner and installing it on the new one, so warm state (and its learned
// caches) moves with the tenant instead of being re-earned cold.
//
// The LB records every registration it forwards (the raw spec document),
// which is what lets it re-register a tenant on the receiving replica
// during migration. Tenants registered directly with a replica, behind
// the LB's back, are still routable (ownership falls back to the ring)
// but cannot be migrated.
type LB struct {
	mu      sync.Mutex
	ring    *Ring
	specs   map[string][]byte // tenant id -> raw registration document
	owners  map[string]string // tenant id -> current owner replica
	proxies map[string]*httputil.ReverseProxy

	reg                                    *obs.Registry
	proxied, migrations, migrationFailures *obs.Counter
}

// New builds a router over an initial replica list.
func New(replicas []string) (*LB, error) {
	lb := &LB{
		ring:    NewRing(),
		specs:   map[string][]byte{},
		owners:  map[string]string{},
		proxies: map[string]*httputil.ReverseProxy{},
	}
	lb.reg = obs.NewRegistry()
	lb.reg.Gauge("netupdate_lb_replicas", "Replicas on the hash ring.", func() float64 {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return float64(lb.ring.Size())
	})
	lb.reg.Gauge("netupdate_lb_tenants", "Tenants with recorded placement.", func() float64 {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return float64(len(lb.owners))
	})
	lb.proxied = lb.reg.Counter("netupdate_lb_proxied_requests_total", "Tenant requests proxied to a replica.")
	lb.migrations = lb.reg.Counter("netupdate_lb_migrations_total", "Tenants migrated with their snapshot.")
	lb.migrationFailures = lb.reg.Counter("netupdate_lb_migration_failures_total", "Migrations that fell back to cold placement.")
	for _, r := range replicas {
		if err := lb.addReplicaLocked(r); err != nil {
			return nil, err
		}
	}
	return lb, nil
}

func (lb *LB) addReplicaLocked(replica string) error {
	target, err := url.Parse(replica)
	if err != nil || target.Scheme == "" || target.Host == "" {
		return fmt.Errorf("lb: bad replica url %q", replica)
	}
	lb.ring.Add(replica)
	if _, ok := lb.proxies[replica]; !ok {
		lb.proxies[replica] = &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.SetXForwarded()
				// The LB is where requests enter the serving stack, so it
				// mints the request id clients did not supply; the daemon
				// echoes it back and stamps it on the run's stats and trace.
				if pr.Out.Header.Get(obs.RequestIDHeader) == "" {
					pr.Out.Header.Set(obs.RequestIDHeader, obs.NewRequestID())
				}
			},
			// The synthesize endpoint is duplex JSONL: plans must reach
			// the client as they are produced, not when the exchange
			// ends. -1 flushes every write through immediately.
			FlushInterval: -1,
		}
	}
	return nil
}

// Handler is the LB's HTTP surface: the replica API proxied by tenant
// ownership, plus the ring-administration endpoints.
//
//	POST   /v1/tenants             register (routed by spec fingerprint)
//	*      /v1/tenants/{id}/...    proxied to the tenant's owner
//	GET    /lb/replicas            ring membership + placement
//	POST   /lb/replicas            add a replica {"url":...}; rebalances
//	DELETE /lb/replicas?url=U      drain U's tenants away, then remove it
//	GET    /metrics                router counters (Prometheus text)
//	GET    /healthz                liveness
func (lb *LB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", lb.handleRegister)
	mux.HandleFunc("/v1/tenants/{id}/{rest...}", lb.handleProxy)
	mux.HandleFunc("GET /lb/replicas", lb.handleReplicasGet)
	mux.HandleFunc("POST /lb/replicas", lb.handleReplicaAdd)
	mux.HandleFunc("DELETE /lb/replicas", lb.handleReplicaRemove)
	mux.Handle("GET /metrics", lb.reg)
	mux.HandleFunc("GET /healthz", obs.Healthz)
	return mux
}

// handleRegister routes a registration: it bounds and decodes the body
// and fingerprints the spec exactly as the replica does, so it refuses
// what the replica would and knows the owner before forwarding the raw
// body (which migration replays).
func (lb *LB) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, tenantspec.MaxBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("lb: register body: %w", err))
		return
	}
	var spec tenantspec.TenantSpec
	if _, _, err := tenantspec.Decode(bytes.NewReader(body), &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lb: tenant spec: %w", err))
		return
	}
	id, err := spec.Fingerprint()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	lb.mu.Lock()
	owner, ok := lb.owners[id]
	if !ok {
		owner, ok = lb.ring.Owner(id)
	}
	lb.mu.Unlock()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lb: no replicas"))
		return
	}

	resp, err := http.Post(owner+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("lb: replica %s: %w", owner, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 {
		lb.mu.Lock()
		lb.specs[id] = body
		lb.owners[id] = owner
		lb.mu.Unlock()
	}
	relay(w, resp)
}

// handleProxy forwards a tenant request to its owner, streaming both
// directions.
func (lb *LB) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	lb.mu.Lock()
	owner, ok := lb.owners[id]
	if !ok {
		owner, ok = lb.ring.Owner(id)
	}
	proxy := lb.proxies[owner]
	lb.mu.Unlock()
	if !ok || proxy == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("lb: no replica owns tenant %s", id))
		return
	}
	lb.proxied.Inc()
	// The daemon's synthesize endpoint answers before it has drained the
	// request body. Without full duplex, HTTP/1.x closes the inbound body
	// at the first response write, the outbound transport's next read of it
	// fails, and the transport drops the backend connection under the
	// response still being copied. (HTTP/2 is duplex natively and reports
	// ErrNotSupported, ignored.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	proxy.ServeHTTP(w, r)
}

func (lb *LB) handleReplicasGet(w http.ResponseWriter, _ *http.Request) {
	lb.mu.Lock()
	view := struct {
		Replicas []string          `json:"replicas"`
		Tenants  map[string]string `json:"tenants"` // id -> owner
	}{lb.ring.Replicas(), map[string]string{}}
	for id, owner := range lb.owners {
		view.Tenants[id] = owner
	}
	lb.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// maxReplicaBytes bounds a POST /lb/replicas body, {"url":...}: far above
// any replica URL, but finite.
const maxReplicaBytes = 4 << 10

func (lb *LB) handleReplicaAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBytes)).Decode(&req); err != nil || req.URL == "" {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("lb: replica body: %w", err))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("lb: want {\"url\": ...}"))
		return
	}
	lb.mu.Lock()
	err := lb.addReplicaLocked(req.URL)
	lb.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"migrated": lb.rebalance()})
}

// handleReplicaRemove drains a replica: its tenants are migrated to
// their new ring owners (snapshots included) before the member is
// dropped, so a planned scale-down loses no warm state.
func (lb *LB) handleReplicaRemove(w http.ResponseWriter, r *http.Request) {
	replica := r.URL.Query().Get("url")
	if replica == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("lb: want ?url=replica"))
		return
	}
	lb.mu.Lock()
	if !lb.ring.replicas[replica] {
		lb.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("lb: unknown replica %s", replica))
		return
	}
	if lb.ring.Size() == 1 && len(lb.owners) > 0 {
		lb.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("lb: cannot drain the last replica with tenants placed"))
		return
	}
	lb.ring.Remove(replica)
	lb.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"migrated": lb.rebalance()})
}

// rebalance realigns tenant placement with the current ring, migrating
// every tenant whose owner changed. Returns the number migrated (a
// failed migration still counts the tenant as moved: ownership follows
// the ring and the new owner serves from the re-registered spec, cold).
func (lb *LB) rebalance() int {
	type move struct {
		id, src, dst string
		spec         []byte
	}
	lb.mu.Lock()
	var moves []move
	for id, src := range lb.owners {
		dst, ok := lb.ring.Owner(id)
		if ok && dst != src {
			moves = append(moves, move{id: id, src: src, dst: dst, spec: lb.specs[id]})
		}
	}
	lb.mu.Unlock()

	for _, m := range moves {
		if err := lb.migrate(m.id, m.src, m.dst, m.spec); err != nil {
			lb.migrationFailures.Inc()
		} else {
			lb.migrations.Inc()
		}
		lb.mu.Lock()
		lb.owners[m.id] = m.dst
		lb.mu.Unlock()
	}
	return len(moves)
}

// migrate moves one tenant: export the snapshot from the source, re-
// register the spec on the destination (idempotent there), install the
// snapshot. A source that cannot produce a snapshot degrades to a cold
// re-registration — correct, just slower for the first requests.
func (lb *LB) migrate(id, src, dst string, spec []byte) error {
	if spec == nil {
		return fmt.Errorf("lb: tenant %s has no recorded spec", id)
	}
	var img []byte
	if resp, err := http.Get(src + "/v1/tenants/" + id + "/snapshot"); err == nil {
		if resp.StatusCode == http.StatusOK {
			img, _ = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
	}

	// send delivers one step of the move to the destination.
	send := func(step, method, path, contentType string, body []byte) error {
		req, err := http.NewRequest(method, dst+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("lb: migrate %s: %s on %s: %w", id, step, dst, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("lb: migrate %s: %s on %s: status %d", id, step, dst, resp.StatusCode)
		}
		return nil
	}
	if err := send("register", http.MethodPost, "/v1/tenants", "application/json", spec); err != nil || len(img) == 0 {
		return err // without an image the migration is cold: spec only
	}
	return send("install", http.MethodPut, "/v1/tenants/"+id+"/snapshot", "application/octet-stream", img)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the daemon's {"error": ...} envelope; no router
// error is retryable.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// relay copies a proxied response verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
