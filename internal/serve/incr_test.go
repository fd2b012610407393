package serve

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// TestSingleFlightCoalescing races N goroutines at the same cold cache
// key. Exactly one request (the leader) may compile; everyone else
// must either coalesce onto the leader's in-flight compile or, if it
// arrived after the leader finished, hit the warm cache. A faultinject
// delay at the check stage holds the leader's compile open long enough
// that the race is real, not scheduling luck. Run with -race: the
// shared *core.Compilation must be safe to serve concurrently.
func TestSingleFlightCoalescing(t *testing.T) {
	reg, err := faultinject.Parse("check:delay:0+:200")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()

	const n = 8
	// Admit all N at once: the point is to race the compile pipeline,
	// not the admission queue.
	_, ts := newTestServer(t, Config{MaxConcurrent: n})
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		resps [n]Response
		stats [n]int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, resp, err := postCtx(t.Context(), ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
			if err != nil {
				t.Error(err)
				return
			}
			stats[i], resps[i] = status, resp
		}(i)
	}
	close(start)
	wg.Wait()

	leaders, coalesced, cached := 0, 0, 0
	for i, resp := range resps {
		if stats[i] != http.StatusOK || !resp.OK {
			t.Fatalf("request %d: status=%d resp=%+v", i, stats[i], resp)
		}
		switch {
		case resp.Coalesced:
			coalesced++
		case resp.Cached:
			cached++
		default:
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d requests compiled (leaders), want exactly 1 (coalesced=%d cached=%d)", leaders, coalesced, cached)
	}
	if coalesced == 0 {
		t.Fatalf("no request coalesced: the race window never opened (cached=%d)", cached)
	}
	if coalesced+cached != n-1 {
		t.Fatalf("coalesced=%d cached=%d, want them to cover the %d followers", coalesced, cached, n-1)
	}
}

// TestServeIncrementalStats drives the artifact store through the
// server surface: a cold compile, then an edited re-compile that must
// reuse most functions, then the same sources under a different engine
// (a warm-cache miss but an artifact-store module hit, since the store
// key is engine-independent). /stats must account for all of it.
func TestServeIncrementalStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	prog := `
def helper(x: int) -> int { return x * 3; }
def main() {
	System.puti(helper(13));
	System.ln();
}
`
	edited := strings.Replace(prog, "x * 3", "x * 5", 1)

	// Cold compile populates the store.
	status, resp := post(t, ts.URL+"/compile", Request{Files: files("p.v", prog), Config: "opt"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("cold: status=%d resp=%+v", status, resp)
	}
	if got := s.Snapshot(); got.IncrementalHits != 0 {
		t.Fatalf("cold compile counted as incremental hit: %+v", got)
	}

	// Edit one function: function-granular reuse.
	status, resp = post(t, ts.URL+"/compile", Request{Files: files("p.v", edited), Config: "opt"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("edit: status=%d resp=%+v", status, resp)
	}
	st := s.Snapshot()
	if st.IncrementalHits != 1 {
		t.Fatalf("incremental_hits = %d after edit, want 1 (stats %+v)", st.IncrementalHits, st)
	}
	if st.IncrementalFuncsReused == 0 {
		t.Fatalf("edit recompiled everything: incremental_funcs_reused = 0 (stats %+v)", st)
	}

	// Same sources, other engine: core's artifact key leaves the engine
	// out, so a switch-engine /run is a warm hit on the compilation the
	// bytecode-engine compile made. No compile runs, so the store is
	// not consulted, and the run matches a bytecode run exactly.
	status, bc := post(t, ts.URL+"/run", Request{Files: files("p.v", edited), Config: "opt"})
	if status != http.StatusOK || !bc.OK || !bc.Cached || bc.Output != "65\n" {
		t.Fatalf("bytecode run: status=%d resp=%+v", status, bc)
	}
	status, sw := post(t, ts.URL+"/run", Request{Files: files("p.v", edited), Config: "opt", Engine: "switch"})
	if status != http.StatusOK || !sw.OK || !sw.Cached || sw.Engine != "switch" {
		t.Fatalf("engine switch: status=%d resp=%+v, want a warm hit on the switch engine", status, sw)
	}
	if sw.Output != bc.Output || sw.Steps != bc.Steps {
		t.Fatalf("engines diverged on one cached compilation: bytecode=%+v switch=%+v", bc, sw)
	}
	st = s.Snapshot()
	if st.IncrementalHits != 1 {
		t.Fatalf("incremental_hits = %d after warm hits, want 1 (stats %+v)", st.IncrementalHits, st)
	}

	// /stats must expose the counters over HTTP.
	hstatus, hresp, err := postCtx(t.Context(), ts.URL+"/compile", Request{Files: files("p.v", edited), Config: "opt"})
	if err != nil || hstatus != http.StatusOK {
		t.Fatalf("warm re-post: %v status=%d", err, hstatus)
	}
	if !hresp.Cached {
		t.Fatalf("warm re-post missed the cache: %+v", hresp)
	}
	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf [4096]byte
	n, _ := res.Body.Read(buf[:])
	body := string(buf[:n])
	for _, field := range []string{"coalesced", "incremental_hits", "incremental_funcs_reused", "incremental_fallbacks"} {
		if !strings.Contains(body, `"`+field+`"`) {
			t.Errorf("/stats body missing %q: %s", field, body)
		}
	}
}

// TestOptConfigRuns: the "opt" config (full pipeline minus analysis)
// is a first-class request config and runs programs correctly.
func TestOptConfigRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Config: "opt"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if resp.Output != "hello\n" {
		t.Fatalf("output = %q", resp.Output)
	}
	if resp.Config != "mono+norm+opt" {
		t.Fatalf("config = %q", resp.Config)
	}
}
