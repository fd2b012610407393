package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/profile"
)

// compCache is the warm-compilation cache: an LRU over successful
// *core.Compilation values keyed by (config, engine, sources, tier). A Compilation is immutable after a successful compile — its
// module, type cache, and once-translated bytecode program are all
// shared, read-only state — so one cached entry can serve concurrent
// requests; each request still gets a fresh evaluator (with its own
// globals, inline caches, and stats) via RunToContext. This is what
// makes the service's steady state cheap: a repeated /run pays only
// execution, not parse/check/lower or bytecode translation.
//
// Entries also carry the tier-up state feeding feedback-directed
// re-optimization: a tier-1 entry accumulates the profiles of its runs
// until the server's TierAfter threshold, at which point the merged
// profile drives a recompile stored under the program's tier-2 key
// (the tier byte in cacheKey keeps the artifacts from aliasing).
type compCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[[sha256.Size]byte]*list.Element
}

type cacheEntry struct {
	key [sha256.Size]byte
	// comp is replaced when put refreshes the key, while requests that
	// got the entry earlier read it outside the cache lock.
	comp atomic.Pointer[core.Compilation]
	// tier is 1 for a plain compilation, 2 for a profile-guided
	// recompile. Immutable after insert.
	tier int

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
	return &compCache{cap: capacity, ll: list.New(), m: map[[sha256.Size]byte]*list.Element{}}
}

// newArtifactStore sizes the content-addressed artifact store from the
// server's cache capacity. The store is keyed by config fingerprint
// (engine-independent), so it needs far fewer slots than the warm
// cache; a small floor keeps function-granular reuse alive even for
// tiny caches. A non-positive capacity disables caching entirely, and
// core.CompileFilesIncremental degrades to plain compilation on a nil
// store.
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

// cacheKey digests everything a compilation's identity depends on.
// Pure run-time knobs (MaxSteps, Timeout) are deliberately excluded:
// they are applied per request at execution time, not baked into the
// compilation. MaxErrors and MaxHeap are included — both ride on the
// cached Compilation's Config (MaxErrors shapes the diagnostic list, a
// Compilation's MaxHeap is its default run budget), so two requests
// differing there must not alias one artifact. The tier is included so
// a profile-guided recompile never aliases the plain artifact of the
// same sources. TestCacheKeyCoversConfig enumerates every core.Config
// field and fails when a new field is neither hashed here nor
// explicitly proven output-irrelevant.
func cacheKey(cfg core.Config, files []FileJSON, tier int) [sha256.Size]byte {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	writeStr(cfg.Name())
	writeStr(cfg.Engine)
	// A compilation with analysis-driven passes (and its cached
	// analysis facts) is a different artifact from one without.
	if cfg.Analyze {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	writeInt(int64(cfg.MaxErrors))
	writeInt(cfg.MaxHeap)
	h.Write([]byte{byte(tier)})
	for _, f := range files {
		writeStr(f.Name)
		writeStr(f.Source)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

func (c *compCache) get(key [sha256.Size]byte) (*cacheEntry, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts (or refreshes) an entry and returns it; nil when caching
// is disabled. Refreshing an existing key replaces the compilation but
// keeps the entry's accumulated tier state — same sources, same
// program, the profile is still true.
func (c *compCache) put(key [sha256.Size]byte, comp *core.Compilation, tier int) *cacheEntry {
	if c == nil || c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.comp.Store(comp)
		return e
	}
	e := &cacheEntry{key: key, tier: tier}
	e.comp.Store(comp)
	c.m[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
	return e
}

func (c *compCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// tiered counts the tier-2 artifacts currently resident, for /stats.
func (c *compCache) tiered() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).tier >= 2 {
			n++
		}
	}
	return n
}
