// Package lru is the bounded least-recently-used map behind every
// cache in the service: the serve warm cache, the core artifact store,
// the engine-fallback table and the tenant table.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values and holds at most its capacity of them,
// evicting the least recently used entry when a new key would exceed
// it. Get and Put each count as a use. Safe for concurrent
// use; the lock is held only for the map and list update, never across
// caller code.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // of *entry[K, V]; front = most recently used
	m   map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries
// (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1), ll: list.New(), m: map[K]*list.Element{}}
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k, replacing any value already there, and marks
// it most recently used. A new key may evict the least recently used
// entry.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*entry[K, V]).key)
	}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Each calls fn for every entry, most recently used first, without
// marking any as used. It visits a snapshot taken under the lock, so
// fn may call back into the cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	snap := make([]entry[K, V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*entry[K, V]))
	}
	c.mu.Unlock()
	for _, e := range snap {
		fn(e.key, e.val)
	}
}
