package server

import "netupdate/internal/core"

// DefaultMaxLearnStores bounds the shared learning stores a pool holds.
// Stores are keyed by learning fingerprint (topology + classes + engine
// options, tenant name excluded), so the bound is on distinct *scenario
// shapes*, not tenants; the least-recently-used store past it is dropped
// wholesale.
const DefaultMaxLearnStores = 256

// planCache returns the shared plan cache for a learning fingerprint:
// every tenant whose spec hashes to it is attached to the same
// core.PlanCache, so one tenant's synthesized plans and infeasibility
// memos serve every tenant running the identical scenario shape. A session
// holding a store the registry has since evicted keeps a working private
// cache until it is rebuilt.
func (p *Pool) planCache(fp string) *core.PlanCache {
	return p.learn.get(fp, func() *core.PlanCache { return core.NewPlanCache(0) })
}

// learnTotals sums every store's counters.
func (p *Pool) learnTotals() (sum core.PlanCacheStats) {
	p.learn.each(func(_ string, c *core.PlanCache) {
		st := c.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.VerifyFailures += st.VerifyFailures
		sum.Evictions += st.Evictions
		sum.Entries += st.Entries
	})
	return sum
}
