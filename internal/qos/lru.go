package qos

import (
	"container/list"
	"sync"
)

// LRU is an entry-capped least-recently-used cache: an Add past the cap
// evicts the coldest entry. It bounds the cluster's caches — the
// coordinator's sharding decompositions and each worker's resident shards —
// which a long-lived daemon serving many programs would otherwise grow
// without bound.
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key   string
	value any
}

// NewLRU returns a cache holding at most maxEntries entries (at least one).
func NewLRU(maxEntries int) *LRU {
	return &LRU{max: max(maxEntries, 1), ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the entry for key, marking it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).value, true
}

// Add inserts (or replaces) key as the most recently used entry, evicting
// the coldest one when the cache is over its cap.
func (c *LRU) Add(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).value = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, value: value})
	if c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*lruItem).key)
	}
}

// Len reports the entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
