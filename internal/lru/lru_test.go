package lru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// keys lists the cache's keys, most recently used first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	c.Each(func(k K, _ V) { out = append(out, k) })
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest key survived an insert past capacity")
	}
	if got, want := keys(c), []string{"d", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestGetTouches(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("d", 4) // evicts b, the least recently used after the touch
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived: Get did not mark a as used")
	}
	if got, want := keys(c), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestPutReplaceKeepsEntry: a Put on a resident key replaces its value
// in place — one entry per key, no eviction, the other entries keep
// their relative order — and counts as a use.
func TestPutReplaceKeepsEntry(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Put("b", 20)
	if c.Len() != 3 {
		t.Fatalf("Len = %d after replace, want 3", c.Len())
	}
	if v, _ := c.Get("b"); v != 20 {
		t.Fatalf("Get(b) = %d, want the replacement 20", v)
	}
	if got, want := keys(c), []string{"b", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestCapacityOne(t *testing.T) {
	for _, capacity := range []int{1, 0, -5} {
		c := New[int, int](capacity)
		c.Put(1, 1)
		c.Put(2, 2)
		if c.Len() != 1 {
			t.Fatalf("capacity %d: Len = %d, want 1", capacity, c.Len())
		}
		if _, ok := c.Get(1); ok {
			t.Fatalf("capacity %d: evicted key still resident", capacity)
		}
		if v, ok := c.Get(2); !ok || v != 2 {
			t.Fatalf("capacity %d: Get(2) = %d, %v", capacity, v, ok)
		}
		c.Put(2, 3)
		if v, _ := c.Get(2); v != 3 || c.Len() != 1 {
			t.Fatalf("capacity %d: replace gave %d with Len %d", capacity, v, c.Len())
		}
	}
}

// TestEachMayReenter: the visitor runs outside the lock, so it can
// touch the cache it is visiting.
func TestEachMayReenter(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Put(i, i)
	}
	n := 0
	c.Each(func(k, _ int) {
		c.Get(k)
		n++
	})
	if n != 4 {
		t.Fatalf("visited %d entries, want 4", n)
	}
}

// TestConcurrentEviction hammers one cache from many goroutines with a
// working set four times its capacity, so hits, touches, inserts and
// evictions all race. Under -race it is the data-race proof; it
// also asserts a hit never returns another key's value and the cache
// never exceeds its capacity.
func TestConcurrentEviction(t *testing.T) {
	const capacity = 4
	c := New[int, string](capacity)
	val := func(k int) string { return fmt.Sprint("v", k) }

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*31 + i) % (4 * capacity)
				if v, ok := c.Get(k); !ok {
					c.Put(k, val(k))
				} else if v != val(k) {
					t.Errorf("stale entry: key %d holds %q", k, v)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("cache grew past capacity: %d > %d", n, capacity)
				}
				if i%50 == 0 {
					c.Each(func(k int, v string) {
						if v != val(k) {
							t.Errorf("visitor saw key %d holding %q", k, v)
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n == 0 || n > capacity {
		t.Fatalf("Len = %d after soak, want 1..%d", n, capacity)
	}
}
