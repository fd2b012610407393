package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestClusterChaosSoak runs a 3-node fleet under concurrent mixed
// traffic while one node is abruptly killed and later restarted
// mid-stream, with /stats scraped concurrently the whole time. The
// invariants, checked under -race in CI:
//
//   - every response a client receives is structured JSON — no Go
//     stacks, no bare strings, regardless of which instance died when;
//   - clients that retry across the fleet always get an answer (the
//     degradation ladder never strands a request);
//   - the fleet drains cleanly and leaks no goroutines.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	before := stableGoroutines(t)

	f := startFleet(t, 3, serve.Config{MaxConcurrent: 4},
		Config{PeerTimeout: 500 * time.Millisecond, Attempts: 2, BreakerCooldown: 200 * time.Millisecond})
	urls := f.URLs()

	const (
		clients       = 6
		perClient     = 25
		distinctProgs = 5
	)
	var answered, degraded atomic.Int64
	var wg sync.WaitGroup

	// Traffic: each client round-robins entry nodes and programs,
	// failing over to the next node on transport errors (the killed
	// node refuses connections — that is the client's problem to route
	// around, and every alternative node must answer).
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := serve.Request{Files: files("p.v", fmt.Sprintf(
					`def main() { System.puti(%d); System.ln(); }`, (c+i)%distinctProgs))}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				var resp serve.Response
				ok := false
				for try := 0; try < len(urls)*2 && !ok; try++ {
					url := urls[(c+i+try)%len(urls)]
					res, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
					if err != nil {
						continue // dead target; fail over
					}
					raw, rerr := io.ReadAll(res.Body)
					res.Body.Close()
					if rerr != nil {
						continue // connection died mid-reply (the kill); fail over
					}
					if err := json.Unmarshal(raw, &resp); err != nil {
						t.Errorf("non-structured response from %s (status %d): %q", url, res.StatusCode, raw)
						return
					}
					ok = true
				}
				if !ok {
					t.Errorf("client %d request %d: no fleet node answered", c, i)
					return
				}
				answered.Add(1)
				if resp.Degraded {
					degraded.Add(1)
				}
			}
		}(c)
	}

	// Concurrent /stats scraping against every node, live or dead.
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for i := 0; scrapeCtx.Err() == nil; i++ {
			res, err := http.Get(urls[i%len(urls)] + "/stats")
			if err == nil {
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Chaos: kill node 2 early, restart it mid-stream.
	victim := f.Nodes[2]
	time.Sleep(150 * time.Millisecond)
	victim.Kill()
	time.Sleep(400 * time.Millisecond)
	if err := victim.Restart(); err != nil {
		t.Errorf("restart: %v", err)
	}

	wg.Wait()
	stopScrape()
	scrapeWG.Wait()

	if got := answered.Load(); got != clients*perClient {
		t.Fatalf("answered %d of %d requests", got, clients*perClient)
	}
	t.Logf("soak: %d answered, %d degraded", answered.Load(), degraded.Load())

	// Clean drain of the whole fleet, then no goroutines left behind.
	// The clients' and the scraper's idle connections are closed first,
	// for the reason Fleet.Stop closes the routers': a spare connection
	// never used for a request would hold a node's drain for 5 s.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Stop(ctx); err != nil {
		t.Fatalf("fleet drain: %v", err)
	}
	assertNoGoroutineLeaks(t, before)
}
