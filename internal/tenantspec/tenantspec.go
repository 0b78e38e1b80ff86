// Package tenantspec is what a tenant registers with the serving stack —
// the stream header its session is built from and the engine options it
// chooses — and the ids derived from it. It imports no engine package, so
// the router (internal/lb) names a tenant as the daemon does without
// linking the synthesizer.
package tenantspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"

	"netupdate/internal/config"
)

// Options configures synthesis: it is the option set a tenant may choose.
// The zero value is the paper's default configuration — switch
// granularity, with counterexample learning, early termination, and wait
// removal all enabled. The switches that turn the Section 4.2
// optimizations off are not options; see core.Ablation.
//
// This struct is the one description of the option set; its tags say
// what each consumer needs to know:
//
//   - json: the wire name in a tenant spec (TenantSpec), in field
//     order. A zero value is the default and is omitted, so spelling a
//     default and leaving it out encode — and fingerprint — identically.
//   - flag, help: the netupdate command-line flag.
//   - plan: its bit number in core.ContextFingerprint's flag word, for
//     every option can change which plan the search returns. How a
//     request runs — its deadline, its trace, the plan cache — is not an
//     option: the request's context and the session's holder decide it.
//     The digest is stored in NUSS images and keys plan-cache entries:
//     never renumber a bit; a new option takes the next one never used
//     (7). Bits 4 to 6 are retired and never reused: bit 4 was the
//     heuristic-order ablation switch, now core.Ablation's; bit 5 the
//     first-plan-wins tie-break of the deleted intra-component worker
//     pool; bit 6 the deleted completion-time tie-break.
type Options struct {
	// RuleGranularity updates individual rules instead of whole switch
	// tables (Section 3.1, Figure 8i).
	RuleGranularity bool `json:"rules,omitempty" flag:"rules" help:"use rule granularity" plan:"0"`
	// TwoSimple searches 2-simple sequences (the paper's k-simple
	// generalization, Section 4.1, for k = 2): each switch may be updated
	// twice — first to the merged union of both rule generations, then to
	// the final table. This solves many scenarios that are impossible for
	// plain (1-simple) switch-granularity orderings, at the cost of
	// transient table growth on the merged switches. Ignored when
	// RuleGranularity is set.
	TwoSimple bool `json:"twoSimple,omitempty" flag:"2simple" help:"allow two updates per switch (merge then finalize)" plan:"1"`
	// NoWaitRemoval disables the wait-removal post-pass (Section 4.2.C).
	NoWaitRemoval bool `json:"noWaitRemoval,omitempty" flag:"no-wait-removal" help:"keep all waits" plan:"2"`
	// NoDecomposition disables interference-partitioned search (see
	// internal/engine/decompose.go): the diff is always solved as one joint ORDERUPDATE
	// search, as in the paper. By default the engine splits the update
	// units into independent subproblems — connected components of the
	// unit-interference graph, where two units interfere when they touch
	// the same switch or affect a common traffic class — solves each with
	// its own sub-search, and composes the sub-plans in deterministic
	// order. Used as the joint baseline of the decomposition comparison
	// and by the repair ladder.
	NoDecomposition bool `json:"noDecompose,omitempty" flag:"no-decompose" help:"always run one joint search instead of partitioning independent update regions" plan:"3"`
}

// RegisterFlags declares on fs the command-line flag of every option,
// bound to o's fields; o's values at the call are the defaults.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	v := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		p := v.Field(i).Addr().Interface().(*bool)
		fs.BoolVar(p, tag.Get("flag"), *p, tag.Get("help"))
	}
}

// TenantSpec is the registration document for one tenant: a scenario
// stream header (topology, traffic classes with initial routes and LTL
// specifications — exactly the first line of a netupdate -stream input)
// plus the engine options the tenant's session is built with. The spec is
// retained by the pool: it is the durable form a tenant's session is
// rebuilt from after cold eviction.
type TenantSpec struct {
	config.StreamHeader
	Options OptionsSpec `json:"options,omitempty"`
}

// OptionsSpec is a tenant's engine options on the wire: Options itself,
// encoded by its own json tags, so the JSON form, the netupdate flags,
// and the engine cannot drift apart. Defaults are never spelled (Options'
// zero values are omitted), which keeps Fingerprint canonical:
// {"options":{}} and {"options":{"rules":false}} are one tenant. The
// worker budget and queue bounds are pool-level policy, not per-tenant.
type OptionsSpec Options

// Build returns the engine options, which are the spec itself, and a nil
// error. The serving code converts with Options(o); Build stays only
// because benchmark/ calls it with two results.
func (o OptionsSpec) Build() (Options, error) {
	return Options(o), nil
}

// Fingerprint derives the tenant id from the canonical JSON encoding of
// the spec: two registrations of the same topology, classes, and engine
// options land on the same warm session, which is what makes the pool a
// cache rather than a leak. Struct field order makes the encoding
// canonical without explicit sorting.
func (s *TenantSpec) Fingerprint() (string, error) {
	return fingerprint("t", s)
}

// LearnFingerprint is the cross-tenant learning key: the fingerprint of
// the spec with its display name cleared, so tenants that differ only in
// name — the common shape of fleet rollouts, where every region registers
// the same scenario under its own label — share one plan cache.
func (s *TenantSpec) LearnFingerprint() (string, error) {
	clone := *s
	clone.Name = ""
	return clone.Fingerprint()
}

// TopologyFingerprint keys the pool's shared arena registry: the hash of
// the canonical JSON encoding of the topology alone, so tenants whose
// specs differ in classes, options, or name — but describe the same
// network — share one state arena and one label-table cache.
func (s *TenantSpec) TopologyFingerprint() (string, error) {
	return fingerprint("a", &s.Topology)
}

// fingerprint is prefix and the SHA-256 of v's JSON encoding, 8 bytes in hex.
func fingerprint(prefix string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("tenantspec: fingerprinting %T: %w", v, err)
	}
	sum := sha256.Sum256(b)
	return prefix + hex.EncodeToString(sum[:8]), nil
}

// MaxBytes bounds a registration body: far above any real spec, but finite.
const MaxBytes = 16 << 20

// Decode reads a registration — a TenantSpec, or a stream's first line —
// from r into v as every surface reads it: an unknown key is refused by
// name, and only the first JSON value is read (dec.Buffered holds what
// follows). A failed decode reports the input line it stopped on.
func Decode(r io.Reader, v any) (dec *json.Decoder, line int, err error) {
	lines := config.NewLineCountingReader(r)
	dec = json.NewDecoder(lines)
	dec.DisallowUnknownFields()
	if err = dec.Decode(v); err != nil {
		line = lines.DecodeErrorLine(err, dec)
	}
	return dec, line, err
}
