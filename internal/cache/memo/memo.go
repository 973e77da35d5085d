// Package memo provides a small, bounded, concurrency-safe memoization
// cache with LRU eviction — the repo's one LRU. Hot-path memo tables (such
// as the SMT quantifier-elimination memo) use it directly for a hard
// footprint bound and deterministic eviction; internal/cache builds its
// singleflight, tags and counters on top of it. It never computes values
// itself: the caller decides what is safe to store, which matters when a
// computation can be aborted mid-way (a cancelled elimination must not
// poison the table).
package memo

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from K to V. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache bounded to capacity entries. capacity must be
// positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("memo: capacity must be positive")
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value stored under k and reports whether it was present,
// marking the entry as most recently used.
// memo: the cache is semantically transparent — Get returns only what Add
// stored under the same key; locking and LRU bookkeeping are invisible to
// results.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores v under k, making it the most recently used entry. When an
// older entry was evicted to make room, Add returns it with evicted set.
// Adding an existing key overwrites its value without eviction.
// memo: the cache is semantically transparent — storing a deterministic
// result under its key cannot change any future answer, only whether it
// is recomputed; locking and LRU bookkeeping are invisible to results.
func (c *Cache[K, V]) Add(k K, v V) (oldK K, oldV V, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return oldK, oldV, false
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.items, oldest.key)
		oldK, oldV, evicted = oldest.key, oldest.val, true
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	return oldK, oldV, evicted
}

// Remove deletes k's entry and returns its value, reporting whether it was
// present.
func (c *Cache[K, V]) Remove(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		delete(c.items, k)
		return c.ll.Remove(el).(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Range calls fn on every entry, most recently used first, without
// changing the recency order. fn must not call back into the cache.
func (c *Cache[K, V]) Range(fn func(k K, v V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val)
	}
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge empties the cache.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
