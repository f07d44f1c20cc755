// Package lru is the one bounded least-recently-used map the serving
// stack shares: the per-stage artifact LRUs (internal/store.Memory, the
// engine's one cache) and gpad's kernel front cache are both instances
// of it. It sits beside the Figure 2
// pipeline, never inside it: an LRU decides only whether a stage's
// output is still in memory, and every consumer keys it by a content
// digest, so eviction can cost a recompute but never change a byte.
//
// A Cache does no locking; each owner already serializes access under
// its own mutex.
package lru

import "container/list"

// Cache maps keys to values, bounded by entry count and, optionally, by
// the summed cost the caller assigns each entry (bytes, typically).
type Cache[K comparable, V any] struct {
	maxEntries int
	maxCost    int64 // 0 = entries are the only bound
	cost       int64
	order      *list.List // front = most recently used; values are *entry[K, V]
	entries    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key   K
	value V
	cost  int64
}

// New builds a cache holding at most maxEntries entries whose costs sum
// to at most maxCost (0 = no cost bound). maxEntries must be positive.
func New[K comparable, V any](maxEntries int, maxCost int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		order:      list.New(),
		entries:    make(map[K]*list.Element),
	}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).value, true
}

// Add inserts or replaces key as the most recently used entry, then
// evicts from the least recently used end until both bounds hold again,
// and returns the number of evictions. A value whose cost alone exceeds
// the cost bound is not retained (and evicts nothing).
func (c *Cache[K, V]) Add(key K, value V, cost int64) (evicted int) {
	if c.maxCost > 0 && cost > c.maxCost {
		return 0
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.value, e.cost = value, cost
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, value: value, cost: cost})
		c.cost += cost
	}
	for c.order.Len() > c.maxEntries || (c.maxCost > 0 && c.cost > c.maxCost) {
		oldest := c.order.Back()
		e := oldest.Value.(*entry[K, V])
		c.order.Remove(oldest)
		delete(c.entries, e.key)
		c.cost -= e.cost
		evicted++
	}
	return evicted
}

// Len reports the number of entries (0 for a nil cache).
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	return c.order.Len()
}
