package server

import (
	"container/list"
	"sync"
)

// lruMap is a bounded string-keyed map with least-recently-used eviction,
// safe for concurrent use. The pool keeps two: the shared plan caches by
// learning fingerprint (learn.go) and the shared session resources by
// topology fingerprint (arena.go). Both hold values that are themselves
// concurrency-safe, so the lock covers only the map and the recency list,
// and evicting an entry never detaches holders of its value — it only
// stops new ones from sharing it.
type lruMap[V any] struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // of lruEntry[V], front = most recently used
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUMap[V any](max int) *lruMap[V] {
	return &lruMap[V]{max: max, items: map[string]*list.Element{}, order: list.New()}
}

// get returns key's value, making it with build on first use and evicting
// the coldest entry past the bound.
func (m *lruMap[V]) get(key string, build func() V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.order.MoveToFront(el)
		return el.Value.(lruEntry[V]).val
	}
	val := build()
	m.items[key] = m.order.PushFront(lruEntry[V]{key, val})
	for m.order.Len() > m.max {
		tail := m.order.Back()
		m.order.Remove(tail)
		delete(m.items, tail.Value.(lruEntry[V]).key)
	}
	return val
}

// each calls fn on every entry, most recently used first.
func (m *lruMap[V]) each(fn func(key string, val V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for el := m.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(lruEntry[V])
		fn(e.key, e.val)
	}
}

func (m *lruMap[V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
