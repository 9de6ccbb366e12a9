package identity

import (
	"container/list"
	"sync"
)

// lru is a bounded least-recently-used map with hit/miss counters: the one
// LRU behind both the signature cache (VerifyCache) and the MSP's identity
// cache. All methods are safe for concurrent use.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used; values are *lruEntry
	hits    uint64
	misses  uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		entries: make(map[K]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns k's value and refreshes its recency.
func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*lruEntry[K, V]).val, true
}

// remove drops k's entry, if any.
func (c *lru[K, V]) remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.Remove(el)
		delete(c.entries, k)
	}
}

// put stores v under k as the most recently used entry, evicting the least
// recently used one when over capacity.
func (c *lru[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// stats returns a snapshot of the hit/miss counters and current size.
func (c *lru[K, V]) stats() VerifyCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return VerifyCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
}
