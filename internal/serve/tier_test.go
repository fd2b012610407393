package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// tierProg has a virtual call site RTA cannot devirtualize (both A and
// B are instantiated, both override m) inside a hot loop, the work the
// profile-guided recompile inlines and fuses. Output: "201".
const tierProg = `
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def poll(x: A) -> int { return x.m(); }
def main() {
	var i = 0;
	var s = 0;
	var a = A.new();
	var b: A = B.new();
	s = s + poll(a);
	while (i < 100) { s = s + poll(b); i = i + 1; }
	System.puti(s);
}
`

// TestTierUpLifecycle walks one program through the whole tier-up arc:
// cold tier-1 compile, profiled warm runs, threshold crossing, and the
// tier-2 artifact serving subsequent requests — with byte-identical
// output at every step, because the profile only steers optimization
// budget, never behavior.
func TestTierUpLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{TierAfter: 3})
	req := Request{Files: files("tier.v", tierProg)}

	for i := 1; i <= 3; i++ {
		status, resp := post(t, ts.URL+"/run", req)
		if status != http.StatusOK || !resp.OK {
			t.Fatalf("run %d: status=%d resp=%+v", i, status, resp)
		}
		if resp.Tier != 1 {
			t.Fatalf("run %d: tier = %d, want 1", i, resp.Tier)
		}
		if resp.Output != "201" {
			t.Fatalf("run %d: output %q, want 201", i, resp.Output)
		}
		if wantCached := i > 1; resp.Cached != wantCached {
			t.Fatalf("run %d: cached = %v, want %v", i, resp.Cached, wantCached)
		}
	}

	// Run 3 crossed the threshold: the recompile happened synchronously
	// on that request, so the stats are already visible.
	st := s.Snapshot()
	if st.TierUps != 1 {
		t.Fatalf("tier_ups = %d after threshold, want 1", st.TierUps)
	}
	if st.TieredPrograms != 1 {
		t.Fatalf("tiered_programs = %d, want 1", st.TieredPrograms)
	}

	// From here on the program serves from the tier-2 artifact.
	for i := 4; i <= 6; i++ {
		status, resp := post(t, ts.URL+"/run", req)
		if status != http.StatusOK || !resp.OK || resp.Tier != 2 || !resp.Cached {
			t.Fatalf("run %d: status=%d resp=%+v, want tier 2 cached hit", i, status, resp)
		}
		if resp.Output != "201" {
			t.Fatalf("tiered run %d: output %q, want 201", i, resp.Output)
		}
	}
	// Tier-2 runs are not re-profiled; the counter must not move.
	if st := s.Snapshot(); st.TierUps != 1 {
		t.Fatalf("tier_ups = %d after tiered runs, want still 1", st.TierUps)
	}
}

// TestTierUpExemptions pins who does NOT tier: disabled servers, the
// switch engine, and non-optimizing configs. None of their responses
// carry a tier and none of their runs feed the counters.
func TestTierUpExemptions(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{TierAfter: -1})
		req := Request{Files: files("tier.v", tierProg)}
		for i := 0; i < 4; i++ {
			status, resp := post(t, ts.URL+"/run", req)
			if status != http.StatusOK || !resp.OK || resp.Tier != 0 {
				t.Fatalf("run %d: status=%d resp=%+v, want no tier", i, status, resp)
			}
		}
		if st := s.Snapshot(); st.TierUps != 0 || st.TieredPrograms != 0 {
			t.Fatalf("disabled server tiered: %+v", st)
		}
	})
	t.Run("switch-engine", func(t *testing.T) {
		s, ts := newTestServer(t, Config{TierAfter: 1})
		req := Request{Files: files("tier.v", tierProg), Engine: "switch"}
		for i := 0; i < 3; i++ {
			status, resp := post(t, ts.URL+"/run", req)
			if status != http.StatusOK || !resp.OK || resp.Tier != 0 {
				t.Fatalf("run %d: status=%d resp=%+v, want no tier", i, status, resp)
			}
		}
		if st := s.Snapshot(); st.TierUps != 0 {
			t.Fatalf("switch engine tiered: tier_ups = %d", st.TierUps)
		}
	})
	t.Run("non-optimizing-config", func(t *testing.T) {
		s, ts := newTestServer(t, Config{TierAfter: 1})
		req := Request{Files: files("tier.v", tierProg), Config: "norm"}
		for i := 0; i < 3; i++ {
			status, resp := post(t, ts.URL+"/run", req)
			if status != http.StatusOK || !resp.OK || resp.Tier != 0 {
				t.Fatalf("run %d: status=%d resp=%+v, want no tier", i, status, resp)
			}
		}
		if st := s.Snapshot(); st.TierUps != 0 {
			t.Fatalf("norm config tiered: tier_ups = %d", st.TierUps)
		}
	})
}

// TestTierUpConcurrentLoad is the -race chaos soak for the tier-up
// path and the /stats scrape audit in one: many clients hammer the
// same program across its tier-up transition while other goroutines
// continuously snapshot /stats, so the profile merges, the threshold
// latch, the tier-2 cache insert, and every stats counter race with
// live traffic. Functionally it asserts the one thing tiering
// promises: every response, whatever its tier, has identical output.
func TestTierUpConcurrentLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{TierAfter: 2, MaxConcurrent: 4, QueueDepth: 64})
	req := Request{Files: files("tier.v", tierProg)}

	const clients, runsEach = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients*runsEach)
	sawTier2 := make(chan struct{}, clients*runsEach)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				status, resp, err := postCtx(t.Context(), ts.URL+"/run", req)
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK || !resp.OK || resp.Output != "201" {
					errs <- fmt.Errorf("status=%d resp=%+v, want OK output 201", status, resp)
					return
				}
				if resp.Tier != 1 && resp.Tier != 2 {
					errs <- fmt.Errorf("tier = %d, want 1 or 2", resp.Tier)
					return
				}
				if resp.Tier == 2 {
					select {
					case sawTier2 <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	// Scrape /stats concurrently with the tiering traffic — the torn-
	// read audit for the tier counters under -race.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Snapshot()
				if st.TierUps < 0 || st.TieredPrograms < 0 {
					errs <- fmt.Errorf("nonsense stats snapshot: %+v", st)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := s.Snapshot()
	if st.TierUps < 1 {
		t.Fatalf("tier_ups = %d after %d runs with tier-after=2, want >= 1", st.TierUps, clients*runsEach)
	}
	if len(sawTier2) == 0 {
		t.Fatal("no response ever reported tier 2")
	}
	if st.TieredPrograms != 1 {
		t.Fatalf("tiered_programs = %d, want 1", st.TieredPrograms)
	}
}
