package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/profile"
)

// compCache is the warm-compilation cache: an LRU over successful
// *core.Compilation values keyed by artifactKey. A Compilation is
// immutable after a successful compile — its module, type cache, and
// once-translated bytecode program are all shared, read-only state —
// so one cached entry can serve concurrent requests on either engine;
// each request still gets a fresh evaluator (with its own globals,
// inline caches, and stats) via RunWith, which takes the engine from
// the request. This is what makes the service's steady state cheap: a
// repeated /run pays only execution, not parse/check/lower or bytecode
// translation.
//
// Entries also carry the tier-up state feeding feedback-directed
// re-optimization: a tier-1 entry accumulates the profiles of its runs
// until the server's TierAfter threshold, at which point the merged
// profile drives a recompile stored under the program's tier-2 key.
// A nil *compCache is a disabled cache.
type compCache struct {
	lru *lru.Cache[artifactKey, *cacheEntry]
}

// artifactKey names one warm-cache slot. core decides what identifies
// a compiled module — the config fingerprint and the source hash — so
// a bytecode compile warms a switch request and the other way round.
// The tier keeps a profile-guided recompile from aliasing the plain
// artifact of the same program; both tiers share the tier-1 config's
// fingerprint.
type artifactKey struct {
	config  [32]byte
	sources [32]byte
	tier    int
}

type cacheEntry struct {
	// comp is replaced when put refreshes the key, while requests that
	// got the entry earlier read it outside the cache lock.
	comp atomic.Pointer[core.Compilation]

	// Tier-up accumulator (tier-1 entries only). Guarded by mu, which
	// is per entry so profile merging never blocks unrelated cache
	// traffic. tiering latches while one request's recompile is in
	// flight so concurrent threshold crossings trigger exactly one.
	mu      sync.Mutex
	runs    int64
	prof    *profile.Profile
	tiering bool
}

// recordRun folds one profiled execution into the entry. When the run
// crosses the tier-up threshold (and no recompile is already in
// flight) it returns a snapshot of the merged profile for the caller
// to recompile with; otherwise nil.
func (e *cacheEntry) recordRun(p *profile.Profile, tierAfter int) *profile.Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runs++
	if e.prof == nil {
		e.prof = profile.New()
	}
	e.prof.Merge(p)
	if e.runs < int64(tierAfter) || e.tiering {
		return nil
	}
	e.tiering = true
	// Snapshot under the lock: the optimizer reads the returned profile
	// while later runs keep merging into e.prof.
	snap := profile.New()
	snap.Merge(e.prof)
	return snap
}

// tierDone re-arms the entry after a tier-up attempt (successful or
// not): the counters restart, so if the tier-2 artifact is later
// evicted — or the recompile failed — the program earns another
// tier-up the same way it earned the first.
func (e *cacheEntry) tierDone() {
	e.mu.Lock()
	e.runs = 0
	e.tiering = false
	e.mu.Unlock()
}

func newCompCache(capacity int) *compCache {
	if capacity <= 0 {
		return nil
	}
	return &compCache{lru: lru.New[artifactKey, *cacheEntry](capacity)}
}

// newArtifactStore sizes the content-addressed artifact store from the
// server's cache capacity. The store holds one base per config
// fingerprint, not per program, so it needs far fewer slots than the
// warm cache; a small floor keeps function-granular reuse alive even
// for tiny caches. A non-positive capacity disables caching entirely,
// and core.CompileFilesIncremental degrades to plain compilation on a
// nil store.
func newArtifactStore(capacity int) *core.Store {
	if capacity <= 0 {
		return nil
	}
	n := capacity
	if n < 8 {
		n = 8
	}
	return core.NewStore(n)
}

func (c *compCache) get(key artifactKey) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	return c.lru.Get(key)
}

// put inserts (or refreshes) an entry and returns it; nil when caching
// is disabled. Refreshing an existing key replaces the compilation but
// keeps the entry's accumulated tier state — same sources, same
// program, the profile is still true. Two racing first puts of one key
// both insert; the later wins and the earlier, still empty, is dropped.
func (c *compCache) put(key artifactKey, comp *core.Compilation) *cacheEntry {
	if c == nil {
		return nil
	}
	if e, ok := c.lru.Get(key); ok {
		e.comp.Store(comp)
		return e
	}
	e := &cacheEntry{}
	e.comp.Store(comp)
	c.lru.Put(key, e)
	return e
}

func (c *compCache) len() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// tiered counts the tier-2 artifacts currently resident, for /stats.
func (c *compCache) tiered() int {
	if c == nil {
		return 0
	}
	n := 0
	c.lru.Each(func(k artifactKey, _ *cacheEntry) {
		if k.tier >= 2 {
			n++
		}
	})
	return n
}
