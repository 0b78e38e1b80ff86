package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"netupdate/internal/core"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
	"netupdate/internal/topology"
)

// DefaultMaxArenaStores bounds the shared arena entries a pool holds.
// Entries are keyed by topology fingerprint, so the bound is on distinct
// network shapes, not tenants.
const DefaultMaxArenaStores = 256

// sessionResources returns the session resources every tenant with this
// topology fingerprint shares: one immutable kripke.Arena (state ids,
// port/host maps, sinkhole states) and one mc.Warmth cache (LTL closures
// and interned label tables). Both are copy-on-write from the session's
// point of view — sessions layer their own mutable transition relations
// and label arrays on top — so identically-shaped tenants deduplicate the
// class-independent state space instead of rebuilding it per session.
func (p *Pool) sessionResources(fp string, topo *topology.Topology) core.SessionResources {
	return p.arenas.get(fp, func() core.SessionResources {
		return core.SessionResources{Arena: kripke.NewArena(topo), Warmth: mc.NewWarmth()}
	})
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
