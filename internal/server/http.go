package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/tenantspec"
)

// NewHandler builds the daemon's HTTP surface over a pool:
//
//	POST /v1/tenants                   register a scenario, returns {id}
//	POST /v1/tenants/{id}/synthesize   JSONL deltas in, JSONL plan lines out
//	GET  /v1/tenants/{id}/stats        per-tenant serving summary
//	GET  /metrics                      pool/queue/latency counters (Prometheus text)
//	GET  /healthz                      liveness
//
// The synthesize endpoint streams: each request-body line is one
// StreamDelta, answered in order by one Result line, flushed as it is
// produced — a controller can hold the connection open and read plans as
// they land. An optional ?timeout=DURATION caps each delta's synthesis
// (the request context still bounds the whole exchange).
func NewHandler(p *Pool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", p.handleRegister)
	mux.HandleFunc("POST /v1/tenants/{id}/synthesize", p.handleSynthesize)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", p.handleStats)
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", p.handleSnapshotGet)
	mux.HandleFunc("PUT /v1/tenants/{id}/snapshot", p.handleSnapshotPut)
	mux.Handle("GET /metrics", p.Metrics())
	mux.HandleFunc("GET /healthz", obs.Healthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError is the uniform JSON error envelope for non-streaming
// failures.
type httpError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
	// Line positions request-body decode errors.
	Line int `json:"line,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error, line int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, httpError{Error: err.Error(), Retryable: Retryable(err), Line: line})
}

// statusOf maps pool errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrTimeout), errors.Is(err, core.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, config.ErrBadDelta), errors.As(err, new(badSpecError)):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (p *Pool) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if _, line, err := tenantspec.Decode(http.MaxBytesReader(w, r.Body, tenantspec.MaxBytes), &spec); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status, line = http.StatusRequestEntityTooLarge, 0
		}
		writeError(w, status, fmt.Errorf("server: tenant spec: %w", err), line)
		return
	}
	info, err := p.Register(&spec)
	if err != nil {
		writeError(w, statusOf(err), err, 0)
		return
	}
	status := http.StatusOK
	if info.Created {
		status = http.StatusCreated
	}
	writeJSON(w, status, info)
}

func (p *Pool) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := p.ConfigOf(id); err != nil {
		writeError(w, statusOf(err), err, 0)
		return
	}
	query := r.URL.Query()
	var perDelta time.Duration
	if q := query.Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("server: bad timeout %q (want a positive Go duration)", q), 0)
			return
		}
		perDelta = d
	}

	// Every synthesize exchange carries a request id: the client's (or the
	// LB's) X-Netupdate-Request-Id if present, a freshly minted one
	// otherwise. It is echoed on the response before the first write and
	// propagated through the pool into each run's stats and trace.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	// The endpoint interleaves request-body reads with response writes;
	// HTTP/1.x closes the body on the first write unless full duplex is
	// enabled (HTTP/2 is duplex natively and reports ErrNotSupported —
	// ignored, like the handler-doesn't-support case).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	ctx := obs.WithRequestID(r.Context(), reqID)
	// ?trace=1 attaches a per-request span recorder to each synthesis in
	// the stream; the exported span tree rides back on the Result line.
	if query.Get("trace") == "1" {
		ctx = obs.WithTracing(ctx)
	}
	// A terminal decode error has been reported in band, and a failed write
	// means the client went away: either way the connection stays usable
	// and the results already emitted stand.
	_, _ = serveLines(r.Context(), ctx, perDelta, p, id, r.Body, 1, flushWriter{w, rc})
}

// flushWriter is the response as serveLines sees it: a writer with a
// Flush, which serveLines calls after each Result line a client could be
// waiting for. The last line of a body read to its end is left in the
// response buffer, so net/http ends the response with it — framed by
// Content-Length when the whole answer fits its 2 KB pre-chunking buffer.
type flushWriter struct {
	io.Writer
	rc *http.ResponseController
}

// Flush sends what the response holds. A connection that cannot flush
// delivers the lines when the response ends.
func (f flushWriter) Flush() error {
	if err := f.rc.Flush(); !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// handleSnapshotGet exports a tenant's warm state as a portable binary
// session snapshot (the tenant-migration wire format; see DESIGN.md
// "Snapshots, shared arenas & sharding").
func (p *Pool) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	img, err := p.SnapshotTenant(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err, 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(img)))
	_, _ = w.Write(img)
}

// handleSnapshotPut installs a snapshot over a registered tenant —
// rejected images (corrupt, version-skewed, or from a different spec)
// leave the tenant untouched and report 409.
func (p *Pool) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	img, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: snapshot body: %w", err), 0)
		return
	}
	if err := p.InstallSnapshot(r.Context(), r.PathValue("id"), img); err != nil {
		status := statusOf(err)
		if errors.Is(err, core.ErrBadSnapshot) || errors.Is(err, core.ErrSnapshotVersion) ||
			errors.Is(err, core.ErrSnapshotMismatch) {
			status = http.StatusConflict
		}
		writeError(w, status, err, 0)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxSnapshotBytes bounds an uploaded snapshot body (1 GiB — far above
// any real session, but finite).
const maxSnapshotBytes = 1 << 30

func (p *Pool) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := p.TenantStats(r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err, 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
