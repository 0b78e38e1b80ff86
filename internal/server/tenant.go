// Package server is the multi-tenant synthesis service layer: a pool of
// warm core.Session instances keyed by a tenant fingerprint (topology +
// class specifications + engine options), an admission controller that
// keeps cross-tenant synthesis concurrent under a global worker budget
// while serializing each tenant's single-flight session, and two serving
// surfaces over the same pool — the HTTP/JSONL daemon (cmd/netupdated)
// and the stdin/stdout stream client (netupdate -stream). See DESIGN.md
// "Service layer".
package server

import "netupdate/internal/tenantspec"

// TenantSpec is the registration document for one tenant and OptionsSpec
// its engine options on the wire, defined where the router shares them.
type TenantSpec = tenantspec.TenantSpec
type OptionsSpec = tenantspec.OptionsSpec

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
	// rebuild round trips); SnapshotRestores are those served by resuming
	// a parked session or installing an image, ColdRebuilds the rest.
	Rebuilds         int64 `json:"rebuilds"`
	SnapshotRestores int64 `json:"snapshotRestores"`
	ColdRebuilds     int64 `json:"coldRebuilds"`

	LastSynthMS float64 `json:"lastSynthMs"`
	MeanSynthMS float64 `json:"meanSynthMs"`
	// CacheHits counts syntheses served from the verification-first plan
	// cache (replayed plan or memoized infeasibility); CacheMisses counts
	// those that ran the full search with the cache attached.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}
