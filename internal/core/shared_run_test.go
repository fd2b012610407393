package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/testprogs"
)

// TestConcurrentRunsShareTypeCache pins the reason types.Cache is
// locked: the engines intern types at run time, and serve runs one
// cached Compilation — one type cache — on concurrent requests. Eight
// goroutines start together on a fresh reference (unmonomorphized)
// compilation of each generic corpus program, so their first runs race
// to intern the same dynamic types. Every run must match a
// single-threaded run of a separate compilation of the same source.
// Run under -race to check the locking itself.
func TestConcurrentRunsShareTypeCache(t *testing.T) {
	const workers = 8
	for _, p := range testprogs.All() {
		switch p.Name {
		case "generic_list_d", "hashmap_i", "matcher_km", "variance_o", "sort_functional":
		default:
			continue
		}
		for _, engine := range []string{EngineSwitch, EngineBytecode} {
			t.Run(p.Name+"/"+engine, func(t *testing.T) {
				compile := func() *Compilation {
					comp, err := Compile(p.Name+".v", p.Source, Reference())
					if err != nil {
						t.Fatal(err)
					}
					return comp
				}
				type outcome struct {
					out, err string
					stats    interp.Stats
				}
				run := func(comp *Compilation) outcome {
					var out strings.Builder
					stats, err := comp.RunWith(context.Background(), &out, RunOpts{Engine: engine})
					o := outcome{out: out.String(), stats: stats}
					if err != nil {
						o.err = err.Error()
					}
					return o
				}
				want := run(compile())
				if want.err != "" || want.out != p.Want {
					t.Fatalf("single-threaded run: out %q err %q, want %q", want.out, want.err, p.Want)
				}

				shared := compile()
				got := make([]outcome, workers)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[w] = run(shared)
					}()
				}
				close(start)
				wg.Wait()
				for w, g := range got {
					if g != want {
						t.Errorf("worker %d: %+v, want %+v", w, g, want)
					}
				}
			})
		}
	}
}
