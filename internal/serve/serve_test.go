package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testprogs"
)

const (
	okProg = `
def main() {
	System.puts("hello");
	System.ln();
}
`
	diagProg = `
def main() { frob(); }
`
	trapProg = `
class C { def f() -> int { return 1; } }
def main() {
	var c: C;
	System.puti(c.f());
}
`
	loopProg = `
def main() {
	var i = 0;
	while (true) i = i + 1;
}
`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, req Request) (int, Response) {
	t.Helper()
	status, resp, err := postCtx(context.Background(), url, req)
	if err != nil {
		t.Fatal(err)
	}
	return status, resp
}

func postCtx(ctx context.Context, url string, req Request) (int, Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, Response{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, Response{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := http.DefaultClient.Do(hr)
	if err != nil {
		return 0, Response{}, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return 0, Response{}, err
	}
	if bytes.Contains(raw, []byte("goroutine ")) {
		return 0, Response{}, fmt.Errorf("response leaked a Go stack trace: %s", raw)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, Response{}, fmt.Errorf("malformed response %q: %v", raw, err)
	}
	return res.StatusCode, resp, nil
}

func files(name, source string) []FileJSON { return []FileJSON{{Name: name, Source: source}} }

func TestCompileOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if resp.Funcs == 0 || resp.Instrs == 0 || resp.Config != "mono+norm+opt" {
		t.Fatalf("missing compile facts: %+v", resp)
	}
}

func TestCompileConfigs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, cfg := range []string{"ref", "mono", "norm", "opt", "full"} {
		status, resp := post(t, ts.URL+"/compile", Request{Files: files("ok.v", okProg), Config: cfg})
		if status != http.StatusOK || !resp.OK {
			t.Fatalf("config %s: status=%d resp=%+v", cfg, status, resp)
		}
	}
}

func TestCompileDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/compile", Request{Files: files("bad.v", diagProg)})
	if status != http.StatusOK || resp.OK {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if len(resp.Diagnostics) == 0 || !strings.Contains(resp.Diagnostics[0].Msg, "frob") {
		t.Fatalf("diagnostics = %+v", resp.Diagnostics)
	}
	if resp.Diagnostics[0].Pos == "" {
		t.Fatalf("diagnostic lost its position: %+v", resp.Diagnostics[0])
	}
}

func TestMaxErrorsPerRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var b strings.Builder
	b.WriteString("def main() {\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "\tbogus%d();\n", i)
	}
	b.WriteString("}\n")
	_, resp := post(t, ts.URL+"/compile", Request{Files: files("many.v", b.String()), MaxErrors: 3})
	if len(resp.Diagnostics) != 4 { // 3 + sentinel
		t.Fatalf("%d diagnostics, want 4", len(resp.Diagnostics))
	}
}

func TestRunOutputAndTrap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	status, resp = post(t, ts.URL+"/run", Request{Files: files("trap.v", trapProg)})
	if status != http.StatusOK || resp.OK || resp.Trap == nil {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if resp.Trap.Name != "!NullCheckException" || len(resp.Trap.Trace) == 0 {
		t.Fatalf("trap = %+v", resp.Trap)
	}
}

func TestRunStepBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("loop.v", loopProg), MaxSteps: 10000})
	if status != http.StatusOK || resp.OK || resp.Error == nil || resp.Error.Kind != "resource" {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
}

func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("loop.v", loopProg), TimeoutMs: 50})
	if status != http.StatusGatewayTimeout || resp.Error == nil || resp.Error.Kind != "deadline" {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tt := range []struct {
		name string
		req  Request
	}{
		{"no files", Request{}},
		{"bad config", Request{Files: files("x.v", okProg), Config: "frob"}},
		{"negative max errors", Request{Files: files("x.v", okProg), MaxErrors: -1}},
	} {
		status, resp := post(t, ts.URL+"/compile", tt.req)
		if status != http.StatusBadRequest || resp.Error == nil {
			t.Fatalf("%s: status=%d resp=%+v", tt.name, status, resp)
		}
	}
	// Malformed JSON body.
	res, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status=%d", res.StatusCode)
	}
	// Wrong method.
	res, err = http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status=%d", res.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", res.StatusCode)
	}
	post(t, ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
	res, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Total < 1 || st.Succeeded < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := s.Snapshot(); got.Total != st.Total && got.Total < st.Total {
		t.Fatalf("snapshot went backwards: %+v vs %+v", got, st)
	}
}

// TestLoadShedding fills every slot and the whole wait queue with
// requests held open by a ctx-aware injected delay, then asserts the
// next arrival is shed with 429 + Retry-After while the held requests
// still complete.
func TestLoadShedding(t *testing.T) {
	r, err := faultinject.Parse("parse:delay:0:60000,parse:delay:1:60000")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Set(r)()

	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Request A takes the slot (blocked in the injected delay); request
	// B fills the queue.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := postCtx(ctx, ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
			results <- err
		}()
	}
	waitFor(t, time.Second, func() bool {
		st := s.Snapshot()
		return st.InFlight == 1 && st.Waiting == 1
	})

	// Request C finds slot busy and queue full: shed.
	status, resp := post(t, ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
	if status != http.StatusTooManyRequests || resp.Error == nil {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if s.Snapshot().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Snapshot().Shed)
	}

	// Cancel A and B; both must come back (as client-side errors).
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case <-results:
		case <-time.After(2 * time.Second):
			t.Fatal("held request did not return after cancel")
		}
	}
	waitFor(t, time.Second, func() bool { return s.Snapshot().InFlight == 0 })
}

// TestCancellationFreesSlotWithin100ms is the acceptance bound: a
// client that cancels mid-compile of the largest corpus program gets
// its slot freed within 100ms, even though the stage it was in had
// (injected) seconds of work left.
func TestCancellationFreesSlotWithin100ms(t *testing.T) {
	r, err := faultinject.Parse("mono:delay:0:30000")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(r)
	defer restore()

	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	p := largestProg()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		postCtx(ctx, ts.URL+"/compile", Request{Files: files(p.Name+".v", p.Source), TimeoutMs: 60000})
		close(done)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Snapshot().InFlight == 1 })

	cancel()
	start := time.Now()
	waitFor(t, 100*time.Millisecond, func() bool { return s.Snapshot().InFlight == 0 })
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("slot freed after %v, want <= 100ms", elapsed)
	}
	<-done
	if got := s.Snapshot().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}

	// The freed slot must be immediately usable. Disarm first: on a slow
	// build (-race) the cancel can stop the first compile before it
	// reaches mono, and the still-armed delay would stall this request.
	restore()
	status, resp := post(t, ts.URL+"/compile", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("request after cancel: status=%d resp=%+v", status, resp)
	}
}

func largestProg() testprogs.Prog {
	all := testprogs.All()
	best := all[0]
	for _, p := range all {
		if len(p.Source) > len(best.Source) {
			best = p
		}
	}
	return best
}

// TestFaultMatrixThroughServer is the service-level acceptance matrix:
// for every pipeline stage and every fault kind the server returns a
// structured error (never a Go stack trace), /healthz stays OK, and a
// subsequent clean request on the same process succeeds. Faults at the
// execution layer (the interp boundary and the bytecode-only
// translate/engine points) are special: the watchdog re-runs the
// request on the switch interpreter, so /run still answers 200 OK with
// the fallback recorded instead of surfacing the fault.
func TestFaultMatrixThroughServer(t *testing.T) {
	stages := []string{"parse", "check", "lower", "mono", "norm", "opt", "validate", "interp", "translate", "engine"}
	execution := map[string]bool{"interp": true, "translate": true, "engine": true}
	for _, stage := range stages {
		for _, kind := range []string{faultinject.KindPanic, faultinject.KindErr, faultinject.KindDelay} {
			t.Run(stage+"/"+kind, func(t *testing.T) {
				reg, err := faultinject.Parse(fmt.Sprintf("%s:%s:0:10", stage, kind))
				if err != nil {
					t.Fatal(err)
				}
				restore := faultinject.Set(reg)
				defer restore()

				s, ts := newTestServer(t, Config{})
				status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
				healed := execution[stage] && kind != faultinject.KindDelay
				switch {
				case healed:
					if status != http.StatusOK || !resp.OK || !resp.Fallback || resp.Engine != "switch" {
						t.Fatalf("status=%d resp=%+v", status, resp)
					}
					if got := s.Snapshot().EngineFallbacks; got != 1 {
						t.Fatalf("engine_fallbacks = %d, want 1", got)
					}
				case kind == faultinject.KindPanic:
					if status != http.StatusInternalServerError || resp.Error == nil || resp.Error.Kind != "ice" {
						t.Fatalf("status=%d resp=%+v", status, resp)
					}
				case kind == faultinject.KindErr:
					if resp.Error == nil || !strings.Contains(resp.Error.Msg, "injected error") {
						t.Fatalf("status=%d resp=%+v", status, resp)
					}
				case kind == faultinject.KindDelay:
					if status != http.StatusOK || !resp.OK {
						t.Fatalf("status=%d resp=%+v", status, resp)
					}
				}

				// Health must be unaffected by the fault.
				res, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					t.Fatalf("/healthz after %s:%s = %d", stage, kind, res.StatusCode)
				}

				// And a clean request on the same process must succeed.
				status, resp = post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
				if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
					t.Fatalf("clean request after %s:%s: status=%d resp=%+v", stage, kind, status, resp)
				}
			})
		}
	}
}

// TestGracefulShutdownDrains starts a real listener, puts a request in
// flight, begins shutdown, and asserts: the in-flight request completes
// (drain), new requests are rejected, Serve returns ErrServerClosed,
// and no goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	before := stableGoroutines(t)

	reg, err := faultinject.Parse("mono:delay:0:300")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()

	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	// In-flight request: held ~300ms by the injected delay.
	type result struct {
		status int
		resp   Response
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		st, resp, err := postCtx(context.Background(), url+"/run", Request{Files: files("ok.v", okProg)})
		inflight <- result{st, resp, err}
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Snapshot().InFlight == 1 })

	// Shutdown with a generous drain window: the in-flight request must
	// complete normally.
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	r := <-inflight
	if r.err != nil || r.status != http.StatusOK || !r.resp.OK {
		t.Fatalf("in-flight request during drain: %+v", r)
	}

	http.DefaultClient.CloseIdleConnections()
	assertNoGoroutineLeaks(t, before)
}

// TestShutdownCancelsStragglers: when the drain window expires, the
// straggler's context is cancelled and Shutdown still returns.
func TestShutdownCancelsStragglers(t *testing.T) {
	reg, err := faultinject.Parse("mono:delay:0:30000")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()

	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	inflight := make(chan Response, 1)
	go func() {
		_, resp, _ := postCtx(context.Background(), url+"/compile", Request{Files: files("slow.v", okProg), TimeoutMs: 60000})
		inflight <- resp
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Snapshot().InFlight == 1 })

	shCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Shutdown(shCtx) // drain expires; stragglers cancelled
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v despite a 100ms drain window", elapsed)
	}
	select {
	case resp := <-inflight:
		if resp.Error != nil && resp.Error.Kind == "ice" {
			t.Fatalf("straggler got an ICE instead of a cancellation: %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("straggler request never returned")
	}
	<-serveErr
	http.DefaultClient.CloseIdleConnections()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %v", d)
		}
		time.Sleep(time.Millisecond)
	}
}

// stableGoroutines samples the goroutine count until it stops moving.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// assertNoGoroutineLeaks allows a small slack for runtime helpers but
// fails on anything resembling a leaked worker per request.
func assertNoGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var after int
	for {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, after)
}

// TestWarmCacheReuse pins the warm-compilation path: a repeated request
// for the same sources is served from the cache (Cached flag, hit
// counter), runs fresh every time, and a different engine or config is
// a distinct cache entry.
func TestWarmCacheReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, first := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !first.OK || first.Cached {
		t.Fatalf("cold request: status=%d resp=%+v", status, first)
	}
	status, second := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
	if status != http.StatusOK || !second.OK || !second.Cached {
		t.Fatalf("warm request not cached: status=%d resp=%+v", status, second)
	}
	if second.Output != first.Output || second.Steps != first.Steps {
		t.Fatalf("warm run diverged: first=%+v second=%+v", first, second)
	}
	// The switch engine is a different cache key, and must produce the
	// same observable result.
	status, sw := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Engine: "switch"})
	if status != http.StatusOK || !sw.OK || sw.Cached {
		t.Fatalf("switch-engine request: status=%d resp=%+v", status, sw)
	}
	if sw.Output != first.Output || sw.Steps != first.Steps {
		t.Fatalf("engines diverged: bytecode=%+v switch=%+v", first, sw)
	}
	st := s.Snapshot()
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheEntries != 2 {
		t.Fatalf("cache counters: %+v", st)
	}
	if st.Engine != "bytecode" {
		t.Fatalf("server engine = %q, want bytecode", st.Engine)
	}
	// A bogus engine name is a request error, not a server fault.
	status, bad := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Engine: "jit"})
	if status != http.StatusBadRequest || bad.Error == nil {
		t.Fatalf("bad engine: status=%d resp=%+v", status, bad)
	}
}

// TestCacheDisabled verifies a negative CacheSize turns the cache off.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 2; i++ {
		status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)})
		if status != http.StatusOK || !resp.OK || resp.Cached {
			t.Fatalf("request %d: status=%d resp=%+v", i, status, resp)
		}
	}
	if st := s.Snapshot(); st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache recorded hits: %+v", st)
	}
}

// TestCachedStepBudget verifies per-request step budgets apply to
// cache-hit runs: the same cached compilation can be run to completion
// or stopped by a tight budget, request by request.
func TestCachedStepBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, warm := post(t, ts.URL+"/run", Request{Files: files("loop.v", loopProg), MaxSteps: 5000})
	if status != http.StatusOK || warm.Error == nil || warm.Error.Kind != "resource" {
		t.Fatalf("cold bounded run: status=%d resp=%+v", status, warm)
	}
	status, hit := post(t, ts.URL+"/run", Request{Files: files("loop.v", loopProg), MaxSteps: 700})
	if status != http.StatusOK || !hit.Cached || hit.Error == nil || hit.Error.Kind != "resource" {
		t.Fatalf("warm bounded run: status=%d resp=%+v", status, hit)
	}
	if hit.Steps != 701 {
		t.Fatalf("warm bounded run steps = %d, want 701", hit.Steps)
	}
}
