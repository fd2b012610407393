package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/progen"
	"repro/internal/testprogs"
)

// ---- unit: program hashing and the fallback table ----

func TestProgramHash(t *testing.T) {
	a := ProgramHash(files("a.v", "def main() { }"))
	if a != ProgramHash(files("a.v", "def main() { }")) {
		t.Fatal("hash is not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("hash %q, want 8 bytes = 16 hex chars", a)
	}
	if a == ProgramHash(files("b.v", "def main() { }")) {
		t.Fatal("hash ignores the file name")
	}
	if a == ProgramHash(files("a.v", "def main() { var x = 0; }")) {
		t.Fatal("hash ignores the source")
	}
}

func TestFallbackTableQuarantineAndLRU(t *testing.T) {
	ft := newFallbackTable(2, 2)
	if ft.record("a") != 1 || ft.quarantined("a") {
		t.Fatal("one fallback must not quarantine at after=2")
	}
	if ft.record("a") != 2 || !ft.quarantined("a") {
		t.Fatal("second fallback must quarantine at after=2")
	}
	// Two fresh programs evict "a" from the two-entry LRU: aging out of
	// the table ends the quarantine (fresh chance on the fast engine).
	ft.record("b")
	ft.record("c")
	if ft.quarantined("a") {
		t.Fatal("evicted program is still quarantined")
	}
	q, recent := ft.snapshot()
	if q != 0 {
		t.Fatalf("quarantined = %d, want 0 (b and c have one fallback each)", q)
	}
	if len(recent) == 0 || recent[0] != "c" {
		t.Fatalf("recent = %v, want newest-first starting with c", recent)
	}
}

func TestFallbackTableQuarantineDisabled(t *testing.T) {
	ft := newFallbackTable(8, -1)
	for i := 0; i < 10; i++ {
		ft.record("a")
	}
	if ft.quarantined("a") {
		t.Fatal("negative after must disable quarantine")
	}
	if q, _ := ft.snapshot(); q != 0 {
		t.Fatalf("snapshot reports %d quarantined with quarantine disabled", q)
	}
}

// ---- end to end: the engine-fallback watchdog ----

// TestEngineFallbackAndQuarantine arms one-shot faults at the two
// bytecode-only points and drives the same program through /run three
// times at QuarantineAfter=2:
//
//	run 1: translate faults → transparent switch re-run (fallback #1)
//	run 2: engine faults    → transparent switch re-run (fallback #2)
//	run 3: no fault armed   → already quarantined, pinned to switch
//
// Every run returns the program's true output; /stats records the
// fallbacks, the quarantine, and the offending hash.
func TestEngineFallbackAndQuarantine(t *testing.T) {
	reg, err := faultinject.Parse("translate:err:0,engine:err:0")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Set(reg)()

	s, ts := newTestServer(t, Config{QuarantineAfter: 2})
	req := Request{Files: files("ok.v", okProg)}

	for run := 1; run <= 2; run++ {
		status, resp := post(t, ts.URL+"/run", req)
		if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
			t.Fatalf("run %d: status=%d resp=%+v, want healed 200", run, status, resp)
		}
		if !resp.Fallback || resp.Engine != "switch" || resp.Quarantined {
			t.Fatalf("run %d: fallback=%v engine=%q quarantined=%v, want fallback on switch", run, resp.Fallback, resp.Engine, resp.Quarantined)
		}
	}

	status, resp := post(t, ts.URL+"/run", req)
	if status != http.StatusOK || !resp.OK || resp.Output != "hello\n" {
		t.Fatalf("quarantined run: status=%d resp=%+v", status, resp)
	}
	if !resp.Quarantined || resp.Fallback || resp.Engine != "switch" {
		t.Fatalf("quarantined run: fallback=%v engine=%q quarantined=%v, want pinned to switch with no fallback", resp.Fallback, resp.Engine, resp.Quarantined)
	}

	st := s.Snapshot()
	if st.EngineFallbacks != 2 {
		t.Fatalf("engine_fallbacks = %d, want 2", st.EngineFallbacks)
	}
	if st.QuarantinedPrograms != 1 {
		t.Fatalf("quarantined_programs = %d, want 1", st.QuarantinedPrograms)
	}
	if len(st.FallbackHashes) != 1 || st.FallbackHashes[0] != ProgramHash(req.Files) {
		t.Fatalf("fallback_hashes = %v, want [%s]", st.FallbackHashes, ProgramHash(req.Files))
	}

	// An unrelated program is unaffected: it runs on the bytecode engine.
	status, resp = post(t, ts.URL+"/run", Request{Files: files("other.v", `def main() { System.puti(7); System.ln(); }`)})
	if status != http.StatusOK || !resp.OK || resp.Engine != "bytecode" || resp.Quarantined || resp.Fallback {
		t.Fatalf("unrelated program: status=%d resp=%+v, want clean bytecode run", status, resp)
	}
}

// TestNoFallbackWithoutFaults is the watchdog's standing trial: with no
// fault armed, the corpus, the crashers, progen Random 1-50 and every
// traffic mix run through /run on the bytecode engine under the full
// and reference configs, and the engine never falls back and nothing
// ICEs. A bytecode defect that starts to lean on the fallback fails
// here instead of hiding behind a counter.
func TestNoFallbackWithoutFaults(t *testing.T) {
	var reqs []Request
	for _, p := range testprogs.All() {
		reqs = append(reqs, Request{Files: files(p.Name+".v", p.Source)})
	}
	dir := filepath.Join("..", "..", "testdata", "crashers")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{Files: files(ent.Name(), string(data))})
	}
	for seed := int64(1); seed <= 50; seed++ {
		reqs = append(reqs, Request{Files: files("random.v", progen.Random(seed))})
	}
	for _, mix := range progen.MixNames() {
		for _, it := range progen.Mixes()[mix] {
			reqs = append(reqs, Request{Files: files(it.FileName, it.Source), MaxSteps: it.MaxSteps, MaxHeap: it.MaxHeap})
		}
	}

	s, ts := newTestServer(t, Config{Engine: "bytecode"})
	total, ran := 0, 0
	for _, config := range []string{"full", "ref"} {
		for _, req := range reqs {
			req.Config = config
			// The step and time budgets bound the trial; a program
			// stopped by either still ran on the bytecode engine.
			if req.MaxSteps == 0 {
				req.MaxSteps = 200_000
			}
			req.TimeoutMs = 500
			total++
			status, resp := post(t, ts.URL+"/run", req)
			if resp.Fallback || (resp.Error != nil && resp.Error.Kind == "ice") {
				t.Errorf("%s/%s: status=%d resp=%+v, want no fallback and no ICE", config, req.Files[0].Name, status, resp)
			}
			if resp.Engine == "bytecode" {
				ran++
			}
		}
	}
	st := s.Snapshot()
	if st.EngineFallbacks != 0 || st.ICEs != 0 {
		t.Fatalf("engine_fallbacks=%d ices=%d over %d requests, want 0/0", st.EngineFallbacks, st.ICEs, total)
	}
	// Most programs compile; the rest are diagnostics by design.
	if 2*ran < total {
		t.Fatalf("only %d of %d requests ran on the bytecode engine", ran, total)
	}
}

// TestFallbackWithQuarantineDisabled: QuarantineAfter < 0 keeps the
// watchdog re-running faulted programs on the switch interpreter but
// never pins them — the bytecode engine gets every next request.
func TestFallbackWithQuarantineDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{QuarantineAfter: -1})
	req := Request{Files: files("ok.v", okProg)}
	for run := 0; run < 3; run++ {
		// Re-arm a fresh one-shot engine fault for every run: a fired
		// fault's nth counter is spent, so each arming fires exactly once.
		reg, err := faultinject.Parse("engine:err:0")
		if err != nil {
			t.Fatal(err)
		}
		restore := faultinject.Set(reg)
		status, resp := post(t, ts.URL+"/run", req)
		restore()
		if status != http.StatusOK || !resp.OK || !resp.Fallback || resp.Quarantined {
			t.Fatalf("run %d: status=%d resp=%+v, want fallback without quarantine", run, status, resp)
		}
	}
	st := s.Snapshot()
	if st.EngineFallbacks != 3 || st.QuarantinedPrograms != 0 {
		t.Fatalf("fallbacks=%d quarantined=%d, want 3/0", st.EngineFallbacks, st.QuarantinedPrograms)
	}
}

// TestShedRetryAfterHeaderParses: the load-shed Retry-After hint is a
// positive integer derived from queue state, not a constant string
// baked into the handler.
func TestShedRetryAfterHeaderParses(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	// Saturate the one slot and the one queue seat with deadline-bounded
	// infinite loops, and only then probe.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = postCtx(context.Background(), ts.URL+"/run",
				Request{Files: files("loop.v", loopProg), TimeoutMs: 1000})
		}()
	}
	waitFor(t, 2*time.Second, func() bool {
		st := s.Snapshot()
		return st.InFlight == 1 && st.Waiting == 1
	})
	body, err := json.Marshal(Request{Files: files("ok.v", okProg)})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ra := hres.Header.Get("Retry-After")
	_, _ = io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe status = %d, want 429 with slot and queue full", hres.StatusCode)
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
	wg.Wait()
}
