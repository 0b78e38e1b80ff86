// Package server is the multi-tenant synthesis service layer: a pool of
// warm core.Session instances keyed by a tenant fingerprint (topology +
// class specifications + engine options), an admission controller that
// keeps cross-tenant synthesis concurrent under a global worker budget
// while serializing each tenant's single-flight session, and two serving
// surfaces over the same pool — the HTTP/JSONL daemon (cmd/netupdated)
// and the stdin/stdout stream client (netupdate -stream). See DESIGN.md
// "Service layer".
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"netupdate/internal/config"
	"netupdate/internal/core"
)

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

// OptionsSpec is a tenant's engine options on the wire: core.Options
// itself, encoded by its own json tags, so the JSON form, the netupdate
// flags, and the engine cannot drift apart. Defaults are never spelled
// (core.Options' zero values are omitted), which keeps Fingerprint
// canonical: {"options":{}} and {"options":{"rules":false}} are one
// tenant. The worker budget and queue bounds are pool-level policy, not
// per-tenant.
type OptionsSpec core.Options

// Build returns the engine options, which are the spec itself: every
// decodable spec is valid, so the error is always nil. The serving code
// converts with core.Options(o); Build and its error stay only because
// benchmark/ calls it with two results and is not edited by engine
// changes.
func (o OptionsSpec) Build() (core.Options, error) {
	return core.Options(o), nil
}

// Fingerprint derives the tenant id from the canonical JSON encoding of
// the spec: two registrations of the same topology, classes, and engine
// options land on the same warm session, which is what makes the pool a
// cache rather than a leak. Struct field order makes the encoding
// canonical without explicit sorting.
func (s *TenantSpec) Fingerprint() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("server: fingerprinting tenant spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return "t" + hex.EncodeToString(sum[:8]), nil
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

// TenantInfo is Register's answer.
type TenantInfo struct {
	ID string `json:"id"`
	// Created is false when the spec fingerprint was already registered
	// (the existing tenant — and its warm state — is shared).
	Created  bool   `json:"created"`
	Name     string `json:"name,omitempty"`
	Classes  int    `json:"classes"`
	Switches int    `json:"switches"`
}

// TenantStats is the per-tenant serving summary.
type TenantStats struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Classes  int    `json:"classes"`
	Switches int    `json:"switches"`
	// Warm reports whether the tenant currently holds a built session
	// (false after cold eviction; the next request rebuilds it).
	Warm bool `json:"warm"`
	// Pending is the number of admitted requests (queued + running).
	Pending  int   `json:"pending"`
	Runs     int64 `json:"runs"`
	Plans    int64 `json:"plans"`
	Failures int64 `json:"failures"`
	// Acks counts recorded plan-step commit acks; Repairs counts failure
	// reports answered with a repair plan.
	Acks    int64 `json:"acks"`
	Repairs int64 `json:"repairs"`
	// Rebuilds counts session constructions beyond the first (evict →
	// rebuild round trips); SnapshotRestores are those served by restoring
	// the eviction-time snapshot, ColdRebuilds the rest. SnapshotBytes is
	// the size of the snapshot currently held for this tenant (zero while
	// warm).
	Rebuilds         int64 `json:"rebuilds"`
	SnapshotRestores int64 `json:"snapshotRestores"`
	ColdRebuilds     int64 `json:"coldRebuilds"`
	SnapshotBytes    int   `json:"snapshotBytes"`

	LastSynthMS float64 `json:"lastSynthMs"`
	MeanSynthMS float64 `json:"meanSynthMs"`
	// CacheHits counts syntheses served from the verification-first plan
	// cache (replayed plan or memoized infeasibility); CacheMisses counts
	// those that ran the full search with the cache attached. Both stay
	// zero for tenants registered with noPlanCache.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}
