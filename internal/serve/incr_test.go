package serve

import (
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// TestCacheKeyCoversConfig enumerates every core.Config field by
// reflection: mutating a field must either move the warm-cache key or
// the field must be on the explicit allowlist of knobs proven not to
// change what a cached Compilation serves. A new Config field fails
// here until someone decides which side it belongs on.
func TestCacheKeyCoversConfig(t *testing.T) {
	// Why each allowlisted field cannot change a cached artifact's
	// observable behavior:
	irrelevant := map[string]string{
		"VerifyIR": "debug-only IR audit between stages; on success the module is identical",
		"Profile":  "attaches a per-run profiler; compiled code is unchanged",
		"PGO":      "tiered recompiles are keyed by the tier byte, never by profile contents",
		"MaxSteps": "run-time step budget, applied per request at RunToContext",
		"MaxDepth": "run-time call-depth budget, applied at execution",
		"Timeout":  "run-time deadline, applied per request",
		"Jobs":     "deprecated and ignored by the compiler",
	}

	base := core.Config{}
	src := files("ok.v", okProg)
	baseKey := cacheKey(base, src, 1)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		mutated := base
		mv := reflect.ValueOf(&mutated).Elem().Field(i)
		switch mv.Kind() {
		case reflect.Bool:
			mv.SetBool(true)
		case reflect.Int, reflect.Int64:
			mv.SetInt(7)
		case reflect.String:
			mv.SetString("x")
		case reflect.Pointer:
			mv.Set(reflect.New(mv.Type().Elem()))
		default:
			t.Fatalf("core.Config.%s: unhandled kind %s — extend the audit", f.Name, mv.Kind())
		}
		moved := cacheKey(mutated, src, 1) != baseKey
		why, allowed := irrelevant[f.Name]
		switch {
		case moved && allowed:
			t.Errorf("core.Config.%s moved the cache key but is allowlisted (%s)", f.Name, why)
		case !moved && !allowed:
			t.Errorf("core.Config.%s is neither hashed by cacheKey nor allowlisted as output-irrelevant", f.Name)
		}
	}

	// The tier byte must separate a PGO recompile from the plain artifact.
	if cacheKey(base, src, 1) == cacheKey(base, src, 2) {
		t.Fatalf("tier-1 and tier-2 artifacts share a cache key")
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

	// Same sources, different engine: misses the warm cache (engine is
	// in its key) but hits the store as a whole-module artifact (the
	// store key is engine-independent by design).
	status, resp = post(t, ts.URL+"/compile", Request{Files: files("p.v", edited), Config: "opt", Engine: "switch"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("engine switch: status=%d resp=%+v", status, resp)
	}
	if resp.Cached {
		t.Fatalf("engine switch unexpectedly hit the warm cache")
	}
	st = s.Snapshot()
	if st.IncrementalHits != 2 {
		t.Fatalf("incremental_hits = %d after engine switch, want 2 (module hit; stats %+v)", st.IncrementalHits, st)
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
