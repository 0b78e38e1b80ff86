package server

import (
	"errors"

	"netupdate/internal/core"
)

// Admission and lifecycle failures. These are the typed errors the
// serving layer adds on top of the engine's own failure modes
// (core.ErrNoOrdering, core.ErrTimeout, core.ErrCanceled,
// core.ErrFinalViolation, ...), which pass through Pool.Synthesize
// unwrapped-detectable via errors.Is.
var (
	// ErrUnknownTenant reports a request for a tenant id the pool has
	// never seen (or that was registered on another daemon instance).
	ErrUnknownTenant = errors.New("server: unknown tenant")
	// ErrQueueFull is the load-shedding answer: the tenant already has
	// its full budget of outstanding requests. The request was not
	// admitted and performed no work; it is safe — and expected — to
	// retry after a short backoff.
	ErrQueueFull = errors.New("server: tenant queue full, retry later")
	// ErrPoolClosed reports that the pool is draining or closed and
	// admits no new work.
	ErrPoolClosed = errors.New("server: pool is shut down")
)

// badSpecError is a registration the client must fix: its header does
// not build (a malformed topology, path or specification). It reads as
// its cause.
type badSpecError struct{ error }

func (e badSpecError) Unwrap() error { return e.error }

// Retryable reports whether a Pool.Synthesize failure is transient
// load-shedding: the request was rejected without side effects and a
// retry (against this or another replica) may succeed. Engine verdicts
// (infeasible, violating target) and bad requests are not retryable;
// deadline expiry is — the caller chose the budget, a roomier retry can
// succeed.
func Retryable(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, core.ErrTimeout)
}
