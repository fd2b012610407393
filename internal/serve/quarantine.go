package serve

import (
	"encoding/hex"
	"sync"

	"repro/internal/core"
	"repro/internal/lru"
)

// ProgramHash identifies a program by its source files alone (name +
// content), independent of config or engine: the quarantine decision
// is about the program, not about one configuration of it, and the
// cluster tier routes a program to its consistent-hash owner by the
// same identity. It is the short hex form of core.HashFiles, the
// source half of the warm-cache key, so routing, caching and
// quarantine all identify a program by one digest. The short form is
// what /stats exposes.
func ProgramHash(files []FileJSON) string {
	return shortHash(core.HashFiles(coreFiles(files)))
}

func shortHash(h [32]byte) string { return hex.EncodeToString(h[:8]) }

func coreFiles(files []FileJSON) []core.File {
	out := make([]core.File, len(files))
	for i, f := range files {
		out[i] = core.File{Name: f.Name, Source: f.Source}
	}
	return out
}

// maxRecentFallbacks bounds the fallback_hashes list in /stats.
const maxRecentFallbacks = 8

// fallbackTable is the engine-fallback watchdog's memory: an LRU of
// per-program fallback counts. A program whose bytecode execution has
// faulted (ICE or injected engine fault) `after` times is quarantined
// — pinned to the reference switch interpreter — until its entry ages
// out of the LRU. The table is per-daemon state, deliberately not
// persisted: a restart gives every program a fresh chance on the fast
// engine.
type fallbackTable struct {
	mu     sync.Mutex // orders record's count update and recent
	after  int        // fallbacks before quarantine; <0 disables quarantine
	counts *lru.Cache[string, int]
	recent []string // most recent offender hashes, newest first
}

func newFallbackTable(capacity, after int) *fallbackTable {
	return &fallbackTable{after: after, counts: lru.New[string, int](capacity)}
}

// record notes one bytecode-engine fallback for hash and returns the
// program's updated fallback count.
func (t *fallbackTable) record(hash string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, _ := t.counts.Get(hash)
	n++
	t.counts.Put(hash, n)

	t.recent = append([]string{hash}, deleteStr(t.recent, hash)...)
	if len(t.recent) > maxRecentFallbacks {
		t.recent = t.recent[:maxRecentFallbacks]
	}
	return n
}

// quarantined reports whether hash has accumulated enough fallbacks to
// be pinned to the switch interpreter.
func (t *fallbackTable) quarantined(hash string) bool {
	if t.after < 0 {
		return false
	}
	n, ok := t.counts.Get(hash)
	return ok && n >= t.after
}

// snapshot returns the number of quarantined programs and the recent
// offender hashes for /stats.
func (t *fallbackTable) snapshot() (quarantined int, recent []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.after >= 0 {
		t.counts.Each(func(_ string, n int) {
			if n >= t.after {
				quarantined++
			}
		})
	}
	return quarantined, append([]string(nil), t.recent...)
}

func deleteStr(ss []string, s string) []string {
	out := ss[:0]
	for _, v := range ss {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}
