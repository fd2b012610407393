package serve

import (
	"context"
	"sync"

	"repro/internal/core"
)

// Single-flight compile coalescing: when N requests race for the same
// cache key while none of them is warm yet — the classic warm-miss
// stampede after a deploy or an eviction — exactly one (the leader)
// runs the compile; the others (followers) block on its result and
// share the finished Compilation, which is immutable and safe to serve
// concurrently.
//
// Failures are not shared: a leader's error may be specific to its own
// request (client disconnect, per-request deadline), so followers of a
// failed flight fall back to compiling independently rather than
// inheriting an error they didn't cause. Sharing is an optimization
// for the success path only.
type flightGroup struct {
	mu sync.Mutex
	m  map[artifactKey]*flight
}

type flight struct {
	done chan struct{}
	comp *core.Compilation
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[artifactKey]*flight{}}
}

// do runs fn under single-flight for key. It reports coalesced=true
// when the result came from another request's in-flight compile. A
// follower whose ctx ends while waiting returns ctx.Err(); a follower
// whose leader failed runs fn itself.
func (g *flightGroup) do(ctx context.Context, key artifactKey, fn func() (*core.Compilation, error)) (comp *core.Compilation, coalesced bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			return f.comp, true, nil
		}
		// Leader failed; compile independently (uncoalesced).
		c, e := fn()
		return c, false, e
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.comp, f.err = fn()
	return f.comp, false, f.err
}
