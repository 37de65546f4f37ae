package qos

import (
	"container/list"
	"sync"
)

// LRU is a byte-accounted least-recently-used cache: every entry carries
// an accounted size, and inserts evict from the cold end until the total
// is back under the configured cap. It backs pytfhed's compiled-plan
// cache, which previously grew without bound. The accounting is the
// caller's estimate (a plan's instruction footprint); the invariant the
// cache maintains is Bytes() <= Cap() after every mutation — an entry
// larger than the whole cap is evicted immediately and simply never
// cached.
type LRU struct {
	mu        sync.Mutex
	capBytes  int64 // <= 0: unbounded
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// LRUEntry is one evicted cache entry, returned so the caller can run
// release hooks on the value.
type LRUEntry struct {
	Key   string
	Value any
	Bytes int64
}

// LRUStats is a counters snapshot.
type LRUStats struct {
	Entries   int
	Bytes     int64
	CapBytes  int64 // 0: unbounded
	Hits      int64
	Misses    int64
	Evictions int64
}

type lruItem struct {
	key   string
	value any
	bytes int64
}

// NewLRU returns a cache bounded at capBytes accounted bytes (<= 0:
// unbounded — nothing is ever evicted).
func NewLRU(capBytes int64) *LRU {
	if capBytes < 0 {
		capBytes = 0
	}
	return &LRU{capBytes: capBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the entry for key, marking it most recently used. Hit and
// miss counters feed the telemetry cache series.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).value, true
}

// Add inserts (or replaces) key with the given accounted size and
// returns the entries evicted to restore the byte cap. The new entry is
// itself evictable when it alone exceeds the cap.
func (c *LRU) Add(key string, value any, bytes int64) []LRUEntry {
	if bytes < 0 {
		bytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		c.bytes += bytes - it.bytes
		it.value, it.bytes = value, bytes
		c.ll.MoveToFront(el)
		return c.evictLocked()
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, value: value, bytes: bytes})
	c.bytes += bytes
	return c.evictLocked()
}

// evictLocked trims cold entries until bytes <= cap.
func (c *LRU) evictLocked() []LRUEntry {
	if c.capBytes <= 0 {
		return nil
	}
	var out []LRUEntry
	for c.bytes > c.capBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		it := el.Value.(*lruItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.bytes
		c.evictions++
		out = append(out, LRUEntry{Key: it.key, Value: it.value, Bytes: it.bytes})
	}
	return out
}

// Bytes reports the accounted total.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Cap reports the configured byte cap (0: unbounded).
func (c *LRU) Cap() int64 { return c.capBytes }

// Len reports the entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the cache counters.
func (c *LRU) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{
		Entries:   len(c.items),
		Bytes:     c.bytes,
		CapBytes:  c.capBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
