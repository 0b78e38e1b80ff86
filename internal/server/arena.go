package server

import (
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
