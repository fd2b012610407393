package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestCacheConcurrentEviction hammers the warm-compilation LRU from
// many goroutines with a working set far larger than its capacity, so
// inserts, hits, LRU moves, and evictions all race. Under -race this is
// the data-race proof for cache.go; functionally it asserts the cache
// never serves a stale entry (a hit for key K must return exactly the
// compilation that was stored under K) and never exceeds capacity.
func TestCacheConcurrentEviction(t *testing.T) {
	const capacity = 4
	c := newCompCache(capacity)

	// Sixteen distinct programs, compiled once up front; the cache holds
	// at most four, so the workers below continuously evict each other.
	type entry struct {
		key  artifactKey
		comp *core.Compilation
	}
	var entries []entry
	for i := 0; i < 16; i++ {
		fs := files("p.v", fmt.Sprintf("def main() -> int { return %d; }", i))
		comp, err := core.Compile(fs[0].Name, fs[0].Source, core.Compiled())
		if err != nil {
			t.Fatal(err)
		}
		key := artifactKey{config: core.Compiled().Fingerprint(), sources: core.HashFiles(coreFiles(fs)), tier: 1}
		entries = append(entries, entry{key: key, comp: comp})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e := entries[(w*31+i)%len(entries)]
				if got, ok := c.get(e.key); ok {
					if got.comp.Load() != e.comp {
						select {
						case errs <- fmt.Errorf("stale cache entry: key %x returned the wrong compilation", e.key.sources[:4]):
						default:
						}
					}
				} else {
					c.put(e.key, e.comp)
				}
				if n := c.len(); n > capacity {
					select {
					case errs <- fmt.Errorf("cache grew past capacity: %d > %d", n, capacity):
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := c.len(); n == 0 || n > capacity {
		t.Fatalf("cache len = %d after soak, want 1..%d", n, capacity)
	}
}

// TestTierKeysSeparate: the tier in the key keeps a profile-guided
// recompile from aliasing the plain artifact of the same program and
// config — both are resident at once, each under its own key.
func TestTierKeysSeparate(t *testing.T) {
	c := newCompCache(4)
	tier1 := artifactKey{config: core.Compiled().Fingerprint(), sources: core.HashFiles(coreFiles(files("ok.v", okProg))), tier: 1}
	tier2 := tier1
	tier2.tier = 2
	plain, tiered := &core.Compilation{}, &core.Compilation{}
	c.put(tier1, plain)
	c.put(tier2, tiered)
	if e, ok := c.get(tier1); !ok || e.comp.Load() != plain {
		t.Fatal("tier-1 key does not serve the plain artifact")
	}
	if e, ok := c.get(tier2); !ok || e.comp.Load() != tiered {
		t.Fatal("tier-2 key does not serve the profile-guided artifact")
	}
	if c.len() != 2 || c.tiered() != 1 {
		t.Fatalf("len=%d tiered=%d, want 2/1", c.len(), c.tiered())
	}
}

// TestCacheEvictionThroughServer drives eviction end to end: with a
// two-entry cache, a third distinct program evicts the least recently
// used one, which then misses again — and the evicted program still
// compiles and runs correctly (eviction loses only warmth, never
// correctness).
func TestCacheEvictionThroughServer(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	prog := func(i int) Request {
		return Request{Files: files("p.v", fmt.Sprintf(`def main() { System.puti(%d); System.ln(); }`, i))}
	}
	for i := 0; i < 3; i++ {
		status, resp := post(t, ts.URL+"/run", prog(i))
		if status != http.StatusOK || !resp.OK || resp.Cached {
			t.Fatalf("cold run %d: status=%d resp=%+v", i, status, resp)
		}
	}
	// prog(0) was LRU when prog(2) arrived: it must re-miss, and re-run
	// with the right output.
	status, resp := post(t, ts.URL+"/run", prog(0))
	if status != http.StatusOK || !resp.OK || resp.Cached || resp.Output != "0\n" {
		t.Fatalf("evicted program rerun: status=%d resp=%+v", status, resp)
	}
	st := s.Snapshot()
	if st.CacheEntries > 2 {
		t.Fatalf("cache_entries = %d, want <= 2", st.CacheEntries)
	}
	if st.CacheMisses != 4 || st.CacheHits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/4", st.CacheHits, st.CacheMisses)
	}
}
