package core

import (
	"netupdate/internal/config"
	"netupdate/internal/topology"
)

// Parked is what a holder keeps of a session it lets go while the tenant
// stays in the process — a pool evicting a tenant under its session
// budget. Every class structure and label is a function of the
// configuration (§5), so the session is the configuration it is at and its
// run counter; the configuration carries its own digest. A handle holds
// no bytes and no class structure; it is trusted by identity (see the
// trust rule in snapshot.go), so it never leaves the process: a holder
// that ships a tenant elsewhere writes an image (Session.Snapshot)
// instead.
//
// A handle carries no repair state: a failure report for a plan issued
// before the park finds no plan to repair (ErrNoPlan).
type Parked struct {
	cur  *config.Config
	runs int
}

// Park returns the handle Resume makes the session again from. The session
// must be quiescent (no Synthesize in flight); its holder drops it
// afterwards.
func (s *Session) Park() *Parked {
	return &Parked{cur: s.cur, runs: s.runs}
}

// Cur returns the configuration the parked session is at: the very object
// the session held, so whether a handle is where its tenant stands is an
// identity test.
func (p *Parked) Cur() *config.Config { return p.cur }

// Resume makes a parked session again over res, which must be built for
// the topology, specifications and options the session had: bound to the
// handle's configuration with every class slot empty — a request builds,
// at that configuration, the classes its diff touches — and with the run
// counter put back. Nothing is decoded, checked or copied. The plan cache
// is its holder's to attach again.
func Resume(topo *topology.Topology, specs []config.ClassSpec, opts Options, p *Parked, res SessionResources) *Session {
	s := newSessionShell(topo, p.cur, specs, opts, res)
	s.runs = p.runs
	return s
}
