package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/progen"
)

// TestSoak drives the server with concurrent clients issuing a mix of
// valid, erroneous, and trapping programs while faults are armed and a
// deterministic subset of clients cancel mid-request. It asserts that
// every request produces exactly one well-formed response (or a clean
// client-side cancellation) and that no goroutines leak. Run under
// -race in CI, this is the data-race and leak soak for the service.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	before := stableGoroutines(t)

	// Arm a sprinkling of faults deep enough into the run that early
	// requests exercise the clean path too. Delays are short so the soak
	// stays fast; panics and errors prove containment under load.
	reg, err := faultinject.Parse(strings.Join([]string{
		"mono:delay:5:5",
		"check:err:7",
		"opt:panic:3",
		"parse:err:11",
		"interp:delay:9:5",
	}, ","))
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()

	s := New(Config{MaxConcurrent: 4, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	progs := []struct {
		path string
		req  Request
	}{
		{"/run", Request{Files: files("ok.v", okProg)}},
		{"/compile", Request{Files: files("ok.v", okProg), Config: "ref"}},
		{"/compile", Request{Files: files("bad.v", diagProg)}},
		{"/run", Request{Files: files("trap.v", trapProg)}},
		{"/run", Request{Files: files("loop.v", loopProg), MaxSteps: 50000}},
		{"/compile", Request{}}, // no files: 400
	}

	const (
		clients          = 8
		requestsPerCl    = 30
		cancelEveryNth   = 7 // deterministic: every 7th request per client is cancelled
		cancelAfterDelay = 2 * time.Millisecond
	)

	var wg sync.WaitGroup
	errs := make(chan error, clients*requestsPerCl)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requestsPerCl; i++ {
				p := progs[(c+i)%len(progs)]
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%cancelEveryNth == cancelEveryNth-1 {
					ctx, cancel = context.WithTimeout(ctx, cancelAfterDelay)
				}
				status, resp, err := postCtx(ctx, ts.URL+p.path, p.req)
				if cancel != nil {
					cancel()
					if err != nil {
						// Client-side cancellation is the expected outcome
						// for this request; the server-side slot release is
						// asserted after the drain below.
						continue
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					continue
				}
				// Every non-cancelled request must carry exactly one
				// well-formed response: either OK with payload, or a
				// diagnostic/error body matching its status.
				switch {
				case resp.OK:
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d req %d: OK body with status %d", c, i, status)
					}
				case len(resp.Diagnostics) > 0 || resp.Trap != nil:
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d req %d: diagnostics with status %d", c, i, status)
					}
				case resp.Error != nil:
					if resp.Error.Kind == "" || resp.Error.Msg == "" {
						errs <- fmt.Errorf("client %d req %d: empty error info %+v", c, i, resp.Error)
					}
				default:
					errs <- fmt.Errorf("client %d req %d: response carries no outcome: %+v (status %d)", c, i, resp, status)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// All slots must be free and the books must balance: every admitted
	// request is accounted for in exactly one terminal counter.
	waitFor(t, 2*time.Second, func() bool {
		st := s.Snapshot()
		return st.InFlight == 0 && st.Waiting == 0
	})
	st := s.Snapshot()
	if st.Total == 0 {
		t.Fatal("soak recorded no requests")
	}
	accounted := st.Succeeded + st.Diagnostics + st.ICEs + st.Cancelled + st.Deadlines
	if accounted > st.Total {
		t.Fatalf("counters exceed total: %+v", st)
	}

	// The server must still be healthy and serve a clean request.
	restore() // disarm faults before the final probe
	status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
		t.Fatalf("post-soak clean request: status=%d resp=%+v", status, resp)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeaks(t, before)
}

// TestChaosSoak is the self-healing soak: mixed tenants (one of them
// greedy, over its heap-bytes/sec budget; the others polite), engine
// faults armed at the bytecode-only translate/engine points, a
// memory-hungry program bounded by the modeled heap budget, and
// deterministic client cancellations — all at once, under -race in CI.
// It asserts the containment boundaries hold independently: quota 429s
// hit only the greedy tenant, every engine fault heals into a
// successful switch re-run, the hungry program always traps
// !HeapExhausted (never an ICE, never unbounded RSS), no goroutines
// leak, and the daemon's real heap stays bounded.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	before := stableGoroutines(t)

	// One-shot faults deep enough into the run that the cache is warm
	// and clean requests have succeeded first: an injected translate
	// error, an engine panic, and a short engine delay.
	reg, err := faultinject.Parse(strings.Join([]string{
		"translate:err:6",
		"engine:panic:10",
		"engine:delay:14:5",
	}, ","))
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()

	s := New(Config{
		MaxConcurrent: 4,
		QueueDepth:    32,
		MaxHeapBytes:  1 << 20, // the hungry program traps after ~2 allocations
		// The greedy tenant's hungry runs charge >1 MiB each against a
		// 2 MiB/s budget; the polite tenants' programs charge a few
		// hundred bytes and never approach it.
		TenantHeapPerSec: 2 << 20,
		QuarantineAfter:  3,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hungry := progen.Hungry()["array_growth"]

	type client struct {
		tenant string
		req    Request
	}
	clientsSpec := []client{
		{"greedy", Request{Files: files("hungry.v", hungry), Tenant: "greedy"}},
		{"polite1", Request{Files: files("ok.v", okProg), Tenant: "polite1"}},
		{"polite2", Request{Files: files("trap.v", trapProg), Tenant: "polite2"}},
		{"greedy", Request{Files: files("hungry.v", hungry), Tenant: "greedy"}},
		{"polite1", Request{Files: files("ok.v", okProg), Tenant: "polite1"}},
		{"polite2", Request{Files: files("ok.v", okProg), Tenant: "polite2"}},
	}

	const (
		requestsPerCl  = 25
		cancelEveryNth = 7
	)
	var wg sync.WaitGroup
	errs := make(chan error, len(clientsSpec)*requestsPerCl)
	var greedy429s, heapTraps atomic.Int64
	for c, spec := range clientsSpec {
		wg.Add(1)
		go func(c int, spec client) {
			defer wg.Done()
			for i := 0; i < requestsPerCl; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%cancelEveryNth == cancelEveryNth-1 {
					ctx, cancel = context.WithTimeout(ctx, 2*time.Millisecond)
				}
				status, resp, err := postCtx(ctx, ts.URL+"/run", spec.req)
				if cancel != nil {
					cancel()
					if err != nil {
						continue
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, i, err)
					continue
				}
				switch status {
				case http.StatusTooManyRequests:
					if resp.Error == nil || resp.Error.Kind != "quota" {
						errs <- fmt.Errorf("client %d req %d: 429 without a quota error: %+v", c, i, resp.Error)
						continue
					}
					if spec.tenant == "greedy" {
						greedy429s.Add(1)
					} else {
						errs <- fmt.Errorf("client %d req %d: polite tenant %s hit quota %q", c, i, spec.tenant, resp.Error.Quota)
					}
				case http.StatusOK:
					if resp.Trap != nil && resp.Trap.Name == interp.HeapExhausted {
						heapTraps.Add(1)
					}
				case http.StatusGatewayTimeout:
					// Cancelled or deadline — tolerated for cancelled clients.
				default:
					errs <- fmt.Errorf("client %d req %d: status %d resp %+v", c, i, status, resp)
				}
			}
		}(c, spec)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	waitFor(t, 2*time.Second, func() bool {
		st := s.Snapshot()
		return st.InFlight == 0 && st.Waiting == 0
	})
	st := s.Snapshot()
	if st.EngineFallbacks < 1 {
		t.Errorf("engine_fallbacks = %d, want >= 1 (translate/engine faults were armed)", st.EngineFallbacks)
	}
	if greedy429s.Load() < 1 {
		t.Error("the greedy tenant was never quota-rejected")
	}
	if heapTraps.Load() < 1 {
		t.Error("the hungry program never trapped !HeapExhausted")
	}
	if st.QuotaRejected != st.Tenants["greedy"].Rejected {
		t.Errorf("quota_rejected = %d but greedy rejected = %d; a polite tenant was metered wrong",
			st.QuotaRejected, st.Tenants["greedy"].Rejected)
	}
	accounted := st.Succeeded + st.Diagnostics + st.ICEs + st.Cancelled + st.Deadlines
	if accounted > st.Total {
		t.Fatalf("counters exceed total: %+v", st)
	}

	// The daemon's real heap must stay bounded: the modeled budget keeps
	// each hungry run to ~1 MiB of live allocation, so after a GC the
	// process is nowhere near the unbounded growth the program attempts.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("HeapAlloc = %d MiB after soak, want < 256 MiB", ms.HeapAlloc>>20)
	}

	// Still healthy: a clean request succeeds after the chaos.
	restore()
	status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
		t.Fatalf("post-soak clean request: status=%d resp=%+v", status, resp)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeaks(t, before)
}
