package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
)

// DefaultMaxArenaStores bounds the shared arena entries a pool holds.
// Entries are keyed by topology fingerprint, so the bound is on distinct
// network shapes, not tenants.
const DefaultMaxArenaStores = 256

// sessionResources returns what a session of tenant t is built or restored
// over. Every tenant with t's topology fingerprint shares one immutable
// kripke.Arena (state ids, port/host maps, sinkhole states) and one
// mc.Warmth cache (LTL closures and interned label tables). Both are
// copy-on-write from the session's point of view — sessions layer their
// own mutable transition relations and label arrays on top — so
// identically-shaped tenants deduplicate the class-independent state space
// instead of rebuilding it per session. The context fingerprint is the
// tenant's own.
func (p *Pool) sessionResources(t *tenant) core.SessionResources {
	res := p.arenas.get(t.arenaFP, func() core.SessionResources {
		return core.SessionResources{Arena: kripke.NewArena(t.base.Topo), Warmth: mc.NewWarmth()}
	})
	res.ContextFP = t.ctxFP
	return res
}

// TopologyFingerprint keys the pool's shared arena registry: the hash of
// the canonical JSON encoding of the topology alone, so tenants whose
// specs differ in classes, options, or name — but describe the same
// network — share one state arena and one label-table cache.
func (s *TenantSpec) TopologyFingerprint() (string, error) {
	b, err := json.Marshal(&s.Topology)
	if err != nil {
		return "", fmt.Errorf("server: fingerprinting topology: %w", err)
	}
	sum := sha256.Sum256(b)
	return "a" + hex.EncodeToString(sum[:8]), nil
}
