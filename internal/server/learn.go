package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"netupdate/internal/atomicio"
	"netupdate/internal/core"
)

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

// LearnSnapshot is the JSON image of a pool's shared learning state (the
// -learn-file format): every store's plan cache, keyed by learning
// fingerprint, so a restarted process resumes with the full fast path of
// its predecessor.
type LearnSnapshot struct {
	Version int                  `json:"version"`
	Stores  []LearnStoreSnapshot `json:"stores"`
}

// LearnStoreSnapshot is one persisted shared store.
type LearnStoreSnapshot struct {
	Fingerprint string                  `json:"fingerprint"`
	Cache       *core.PlanCacheSnapshot `json:"cache"`
}

// learnSnapshotVersion is the current LearnSnapshot format version.
const learnSnapshotVersion = 1

// SaveLearning writes the pool's shared learning state as JSON (most
// recently used store first). Counters are not persisted; a restored pool
// starts cold on stats but warm on plans.
func (p *Pool) SaveLearning(w io.Writer) error {
	snap := LearnSnapshot{Version: learnSnapshotVersion}
	p.learn.each(func(fp string, c *core.PlanCache) {
		snap.Stores = append(snap.Stores, LearnStoreSnapshot{Fingerprint: fp, Cache: c.Snapshot()})
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("server: saving learning state: %w", err)
	}
	return nil
}

// LoadLearning merges a saved learning snapshot into the pool's shared
// stores. Entries already present win (they are fresher); stores are
// created as needed, so loading may run before or after tenants register
// — a tenant attaching later shares the restored cache by fingerprint.
func (p *Pool) LoadLearning(r io.Reader) error {
	var snap LearnSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("server: loading learning state: %w", err)
	}
	if snap.Version != learnSnapshotVersion {
		return fmt.Errorf("server: learning snapshot version %d, want %d", snap.Version, learnSnapshotVersion)
	}
	for i := range snap.Stores {
		st := &snap.Stores[i]
		if st.Fingerprint == "" || st.Cache == nil {
			continue
		}
		if err := p.planCache(st.Fingerprint).Restore(st.Cache); err != nil {
			return fmt.Errorf("server: store %s: %w", st.Fingerprint, err)
		}
	}
	return nil
}

// LoadLearningFile is LoadLearning from a -learn-file path; a missing
// file is a cold start, not an error.
func (p *Pool) LoadLearningFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return p.LoadLearning(f)
}

// SaveLearningFile is SaveLearning to a -learn-file path, written
// atomically so an interrupted save never truncates the previous state.
func (p *Pool) SaveLearningFile(path string) error {
	return atomicio.WriteFile(path, p.SaveLearning)
}
