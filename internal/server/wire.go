package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/obs"
)

// The JSONL wire format shared by the daemon's synthesize endpoint and
// the netupdate -stream CLI: one Result line per requested delta or
// plan-step acknowledgement.

// StepAck is a plan-execution acknowledgement posted into the synthesize
// stream. A commit ack (Failed false) reports that the plan update at
// index Step (a Result.DAG node) committed in the network; it is
// bookkeeping only and is answered with an "acked" line. A failure
// report (Failed true) says the plan stalled — a switch died or installs
// timed out — with exactly the updates in Committed applied; the pool
// repairs the tenant's session from that state (core.Session.Repair) and
// answers with a "repair" plan line from it to the stranded target.
type StepAck struct {
	Step   int  `json:"step,omitempty"`
	Failed bool `json:"failed,omitempty"`
	// Committed lists every plan update index that committed before the
	// stall (must be dependency-closed under the plan DAG).
	Committed []int `json:"committed,omitempty"`
}

// streamRequest is one synthesize-stream input line: either a reroute
// delta (the common case) or a plan-step ack.
type streamRequest struct {
	config.StreamDelta
	Ack *StepAck `json:"ack,omitempty"`
}

// serveLines is the request loop of both serving surfaces: one
// streamRequest per input value of dec (which reads through lines), served
// through the pool under reqCtx — narrowed to perLine when positive — and
// answered with one Result line on out, numbered from one. Semantically
// invalid deltas (config.ErrBadDelta) are reported with their input line
// and skipped. A decode error leaves the stream position unreliable, so it
// is terminal: reported as a positioned Result line, and returned. End of
// input, or intake being done once the request in hand is answered, ends
// the loop with a nil error. The count is of requests answered.
//
// If out has a Flush method, each Result line is flushed as it is
// produced, unless the input is known to be used up
// (config.LineCountingReader.UsedUp): then no client can be waiting for
// the line before it sends more, and the caller's end of the output
// carries it. Over HTTP that end is the end of the response, so the
// answer to a request body read to its declared length leaves in one
// write, framed by Content-Length. A line after which the decoder could
// still block on its input is always flushed first.
func serveLines(intake, reqCtx context.Context, perLine time.Duration, p *Pool, id string,
	lines *config.LineCountingReader, dec *json.Decoder, out io.Writer) (int, error) {
	enc := json.NewEncoder(out)
	flusher, _ := out.(interface{ Flush() error })
	seq := 0
	for intake.Err() == nil {
		var req streamRequest
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF || intake.Err() != nil {
				return seq, nil
			}
			seq++
			line := lines.DecodeErrorLine(err, dec)
			res := Result{Seq: seq, Tenant: id, Result: "error", Line: line,
				Error: fmt.Sprintf("tenant %s: stream: %v", id, err)}
			if encErr := enc.Encode(res); encErr != nil {
				return seq, encErr
			}
			return seq, fmt.Errorf("server: tenant %s: stream delta %d (line %d): %w", id, seq, line, err)
		}
		seq++
		line := lines.LineAt(dec.InputOffset() - 1)
		lines.Prune(dec.InputOffset())
		ctx, cancel := reqCtx, context.CancelFunc(func() {})
		if perLine > 0 {
			ctx, cancel = context.WithTimeout(reqCtx, perLine)
		}
		var res Result
		if req.Ack != nil {
			plan, err := p.Ack(ctx, id, req.Ack)
			res = NewAckResult(seq, id, plan, err)
		} else {
			plan, err := p.Synthesize(ctx, id, &req.StreamDelta)
			res = NewResult(seq, id, plan, err)
			if errors.Is(err, config.ErrBadDelta) {
				res.Line = line
			}
		}
		cancel()
		if err := enc.Encode(res); err != nil {
			return seq, err
		}
		if flusher != nil && !lines.UsedUp(dec) {
			if err := flusher.Flush(); err != nil {
				return seq, err
			}
		}
	}
	return seq, nil
}

// Result is one output line.
type Result struct {
	// Seq is the 1-based request ordinal within the stream or request
	// body.
	Seq    int    `json:"seq"`
	Tenant string `json:"tenant,omitempty"`
	// Result is "plan", "impossible" (no correct ordering exists at this
	// granularity), "acked" (a commit ack was recorded), "repair" (a
	// failure ack was answered with a resynthesized plan), or "error".
	Result string       `json:"result"`
	Steps  []ResultStep `json:"steps,omitempty"`
	Error  string       `json:"error,omitempty"`
	// Retryable marks transient load-shedding errors (queue full,
	// deadline expired): the identical request may be retried.
	Retryable bool `json:"retryable,omitempty"`
	// Line is the input line of a decode or validation failure (JSONL
	// position in the stream or request body).
	Line  int          `json:"line,omitempty"`
	Stats *ResultStats `json:"stats,omitempty"`
	// Trace is the run's exported span tree, present when the request
	// asked for tracing (?trace=1 or a tenant registered with
	// options.trace). Its root span carries the request id.
	Trace *obs.TraceData `json:"trace,omitempty"`
	// DAG is the dependency-DAG form of the plan: one node per non-wait
	// step of Steps, predecessor edges by node index, drain-marked edges
	// listed separately. Clients may execute the plan decentralized from
	// it — any commit order respecting the edges (plus drain quiescence)
	// is trace-equivalent to the sequential Steps.
	DAG *ResultDAG `json:"dag,omitempty"`
}

// ResultDAG mirrors core.PlanDAG on the wire.
type ResultDAG struct {
	Preds [][]int `json:"preds"`
	Drain [][]int `json:"drain,omitempty"`
	Depth int     `json:"depth"`
	Width int     `json:"width"`
}

// ResultStep is one plan element. Switch is a pointer so switch 0 is
// emitted while wait barriers carry no switch at all.
type ResultStep struct {
	Op     string `json:"op"` // "update" | "wait" | "add" | "del"
	Switch *int   `json:"switch,omitempty"`
	Rule   string `json:"rule,omitempty"`
}

// ResultStats is the per-synthesis work summary.
type ResultStats struct {
	Units      int `json:"units"`
	Components int `json:"components"`
	Checks     int `json:"checks"`
	// ClassSkips counts the (step, class) probes that found the step
	// invisible to the class. Only the classes some changed rule of the
	// request matches are probed at all, so a cache hit, an undecomposed
	// search and a one-unit diff report fewer than they did while every
	// class was probed at every step — fewer by exactly the (step,
	// unaffected class) pairs; Checks is unchanged.
	ClassSkips int     `json:"classSkips"`
	Waits      int     `json:"waits"`
	DAGDepth   int     `json:"dagDepth,omitempty"`
	DAGWidth   int     `json:"dagWidth,omitempty"`
	ElapsedMS  float64 `json:"elapsedMs"`
	// Per-phase engine durations (subsets of ElapsedMS, not a partition):
	// rebind of warm structures, component search, wait removal, final
	// verification, and cache replay verification.
	RebindMS      float64 `json:"rebindMs,omitempty"`
	SearchMS      float64 `json:"searchMs,omitempty"`
	WaitRemovalMS float64 `json:"waitRemovalMs,omitempty"`
	VerifyMS      float64 `json:"verifyMs,omitempty"`
	CacheVerifyMS float64 `json:"cacheVerifyMs,omitempty"`
	// RequestID is the X-Netupdate-Request-Id the run executed under.
	RequestID string `json:"requestId,omitempty"`
	// CacheHit marks a plan served from the verification-first plan cache
	// (replayed through the tenant's warm checkers, no search run).
	CacheHit bool `json:"cacheHit,omitempty"`
}

// NewResult converts one Pool.Synthesize outcome into its wire line.
func NewResult(seq int, tenantID string, plan *core.Plan, err error) Result {
	res := Result{Seq: seq, Tenant: tenantID}
	switch {
	case err == nil:
		res.Result = "plan"
		if n := len(plan.Steps); n > 0 {
			// One slice of the plan's length, and the switch numbers the
			// steps point at from one block.
			res.Steps = make([]ResultStep, n)
			sws := make([]int, n)
			for i, st := range plan.Steps {
				res.Steps[i] = stepOf(st, &sws[i])
			}
		}
		res.Stats = &ResultStats{
			Units:         plan.Stats.Units,
			Components:    plan.Stats.Components,
			Checks:        plan.Stats.Checks,
			ClassSkips:    plan.Stats.ClassSkips,
			Waits:         plan.Stats.WaitsAfter,
			DAGDepth:      plan.Stats.DAGDepth,
			DAGWidth:      plan.Stats.DAGWidth,
			ElapsedMS:     wireMS(plan.Stats.Elapsed),
			RebindMS:      wireMS(plan.Stats.RebindElapsed),
			SearchMS:      wireMS(plan.Stats.SearchElapsed),
			WaitRemovalMS: wireMS(plan.Stats.WaitRemovalElapsed),
			VerifyMS:      wireMS(plan.Stats.VerifyElapsed),
			CacheVerifyMS: wireMS(plan.Stats.CacheVerifyElapsed),
			RequestID:     plan.Stats.RequestID,
			CacheHit:      plan.Stats.CacheHit,
		}
		res.Trace = plan.Trace
		if d := plan.DAG; d != nil {
			res.DAG = &ResultDAG{
				Preds: edgeLists(d.Preds), Drain: edgeLists(d.Drain),
				Depth: d.Depth, Width: d.Width,
			}
		}
	case errors.Is(err, core.ErrNoOrdering):
		res.Result = "impossible"
	default:
		res.Result = "error"
		res.Error = err.Error()
		res.Retryable = Retryable(err)
	}
	return res
}

// NewAckResult converts one Pool.Ack outcome into its wire line: commit
// acks answer "acked", failure reports answer with the repair plan.
func NewAckResult(seq int, tenantID string, plan *core.Plan, err error) Result {
	if err == nil && plan == nil {
		return Result{Seq: seq, Tenant: tenantID, Result: "acked"}
	}
	res := NewResult(seq, tenantID, plan, err)
	if err == nil {
		res.Result = "repair"
	}
	return res
}

// wireMS renders a duration as milliseconds with microsecond precision.
func wireMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// edgeLists copies per-node edge lists, replacing nil entries with empty
// slices so roots encode as [] rather than null on the wire.
func edgeLists(in [][]int) [][]int {
	out := make([][]int, len(in))
	for i, es := range in {
		if es == nil {
			es = []int{}
		}
		out[i] = es
	}
	return out
}

// stepOf converts one plan step, storing an update's switch number in
// *sw for the wire step to point at.
func stepOf(s core.Step, sw *int) ResultStep {
	if s.Wait {
		return ResultStep{Op: "wait"}
	}
	*sw = s.Switch
	switch {
	case s.IsRule && s.RuleAdd:
		return ResultStep{Op: "add", Switch: sw, Rule: s.Rule.String()}
	case s.IsRule:
		return ResultStep{Op: "del", Switch: sw, Rule: s.Rule.String()}
	default:
		return ResultStep{Op: "update", Switch: sw}
	}
}
