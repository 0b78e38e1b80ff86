package server

import "fmt"

// CheckAtRest verifies what must hold whenever no request is in flight:
// the warm-session budget, no admitted request left behind, the LRU list
// holding exactly the warm tenants, no warm tenant still holding an
// eviction image, and SnapshotBytesHeld accounting for every held image.
func (p *Pool) CheckAtRest() error {
	st := p.Stats()
	p.mu.Lock()
	defer p.mu.Unlock()
	warm := 0
	var held int64
	for _, t := range p.tenants {
		if n := t.pending.Load(); n != 0 {
			return fmt.Errorf("tenant %s: %d requests still pending", t.id, n)
		}
		if (t.sess != nil) != (t.elem != nil) {
			return fmt.Errorf("tenant %s: session %v but on the LRU %v", t.id, t.sess != nil, t.elem != nil)
		}
		if t.sess != nil {
			warm++
			if t.snap != nil {
				return fmt.Errorf("tenant %s: warm, yet still holds a %d-byte eviction image", t.id, len(t.snap))
			}
		}
		held += int64(len(t.snap))
	}
	if p.lru.Len() != warm {
		return fmt.Errorf("LRU holds %d tenants, %d are warm", p.lru.Len(), warm)
	}
	if budget := p.opts.maxSessions(); warm > budget {
		return fmt.Errorf("%d warm sessions against a budget of %d", warm, budget)
	}
	if st.WarmSessions != warm || st.SnapshotBytesHeld != held {
		return fmt.Errorf("stats report %d warm sessions and %d snapshot bytes, pool holds %d and %d",
			st.WarmSessions, st.SnapshotBytesHeld, warm, held)
	}
	return nil
}
