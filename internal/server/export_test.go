package server

import (
	"fmt"

	"netupdate/internal/core"
)

// Metric reads one /metrics family by its name less the netupdate_ prefix
// — the single reader the tests share with the scrape endpoint.
func (p *Pool) Metric(name string) float64 { return p.m.reg.Value("netupdate_" + name) }

// LastStats returns the statistics of the last request a warm tenant's
// session served, successful or not; an error line carries none.
func (p *Pool) LastStats(id string) (core.Stats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tenants[id]
	if t == nil || t.sess == nil {
		return core.Stats{}, false
	}
	return t.sess.LastStats(), true
}

// CheckAtRest verifies what must hold whenever no request is in flight:
// the warm-session budget, no admitted request left behind, the LRU list
// holding exactly the warm tenants, no warm tenant still holding a parked
// handle, every warm session at its tenant's configuration with
// its class slots consistent (core.Session.CheckAtRest), and the pool-wide
// /metrics families agreeing with the tenants' own stats — none negative,
// each the sum of its tenants' rows.
func (p *Pool) CheckAtRest() error {
	p.mu.Lock()
	ids := make([]string, 0, len(p.tenants))
	var rejects int64 // on no tenant's stats row: read off the counters
	for id, t := range p.tenants {
		ids = append(ids, id)
		rejects += t.snapRejects.Load()
	}
	p.mu.Unlock()
	var sum TenantStats
	warm := 0
	for _, id := range ids {
		st, err := p.TenantStats(id)
		if err != nil {
			return err
		}
		if st.Pending != 0 {
			return fmt.Errorf("tenant %s: %d requests still pending", id, st.Pending)
		}
		if st.Warm {
			warm++
		}
		sum.Plans += st.Plans
		sum.Acks += st.Acks
		sum.Repairs += st.Repairs
		sum.Rebuilds += st.Rebuilds
		sum.SnapshotRestores += st.SnapshotRestores
		sum.ColdRebuilds += st.ColdRebuilds
	}
	for _, c := range []struct {
		family string
		want   int64
	}{
		{"pool_warm_sessions", int64(warm)},
		{"plans_total", sum.Plans},
		{"step_acks_total", sum.Acks},
		{"repairs_total", sum.Repairs},
		{"session_rebuilds_total", sum.Rebuilds},
		{"snapshot_restores_total", sum.SnapshotRestores},
		{"cold_rebuilds_total", sum.ColdRebuilds},
		{"snapshot_rejects_total", rejects},
	} {
		if got := p.Metric(c.family); got < 0 || got != float64(c.want) {
			return fmt.Errorf("netupdate_%s = %g, the tenants' stats sum to %d", c.family, got, c.want)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tenants {
		if (t.sess != nil) != (t.elem != nil) {
			return fmt.Errorf("tenant %s: session %v but on the LRU %v", t.id, t.sess != nil, t.elem != nil)
		}
		if t.sess == nil {
			continue
		}
		if t.parked != nil {
			return fmt.Errorf("tenant %s: warm, yet still holds a parked handle", t.id)
		}
		if t.sess.Current() != t.cur {
			return fmt.Errorf("tenant %s: its session is at another configuration", t.id)
		}
		if err := t.sess.CheckAtRest(); err != nil {
			return fmt.Errorf("tenant %s: %w", t.id, err)
		}
	}
	if p.lru.Len() != warm {
		return fmt.Errorf("LRU holds %d tenants, %d are warm", p.lru.Len(), warm)
	}
	if budget := p.opts.MaxSessions; warm > budget {
		return fmt.Errorf("%d warm sessions against a budget of %d", warm, budget)
	}
	return nil
}
