package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

const okProg = `def main() { System.puts("hello"); System.ln(); }`

func files(name, source string) []serve.FileJSON {
	return []serve.FileJSON{{Name: name, Source: source}}
}

// post sends req and decodes the structured reply. A body that fails
// to decode as a serve.Response is a test failure: the cluster must
// never emit a non-structured error (a Go stack, a bare string).
func post(t *testing.T, url string, req serve.Request) (int, serve.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("goroutine ")) {
		t.Fatalf("response leaks a Go stack: %s", raw)
	}
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("non-structured response (status %d): %q", res.StatusCode, raw)
	}
	return res.StatusCode, resp
}

// progOwnedBy generates a program whose consistent-hash owner is the
// given peer, so tests can aim traffic at a specific instance.
func progOwnedBy(t *testing.T, r *ring, owner string) serve.Request {
	t.Helper()
	for i := 0; i < 10000; i++ {
		req := serve.Request{Files: files("p.v", fmt.Sprintf(
			`def main() { System.puti(%d); System.ln(); }`, i))}
		if r.owner(serve.ProgramHash(req.Files)) == owner {
			return req
		}
	}
	t.Fatalf("no program found owned by %s", owner)
	return serve.Request{}
}

func startFleet(t *testing.T, n int, scfg serve.Config, ccfg Config) *Fleet {
	t.Helper()
	f, err := StartLocal(n, scfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.Stop(ctx)
	})
	return f
}

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

func assertNoGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var cur int
	for time.Now().Before(deadline) {
		cur = runtime.NumGoroutine()
		if cur <= before+2 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines grew %d -> %d:\n%s", before, cur, buf[:runtime.Stack(buf, true)])
}

// ---- routing ----

func TestOwnerRoutingAndForwardDecoration(t *testing.T) {
	f := startFleet(t, 3, serve.Config{}, Config{})
	sender := f.Nodes[0]
	owner := f.Nodes[1]
	req := progOwnedBy(t, sender.Router().ring, owner.URL)

	status, resp := post(t, sender.URL+"/run", req)
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if resp.Routed != owner.URL || resp.ForwardedFrom != sender.URL {
		t.Fatalf("routed=%q forwarded_from=%q, want executed at %s forwarded from %s",
			resp.Routed, resp.ForwardedFrom, owner.URL, sender.URL)
	}
	if resp.Degraded {
		t.Fatal("clean forward marked degraded")
	}
	// The owner executed it; the sender only forwarded.
	if got := owner.Server().Snapshot().Total; got != 1 {
		t.Fatalf("owner total = %d, want 1", got)
	}
	if got := sender.Server().Snapshot().Total; got != 0 {
		t.Fatalf("sender executed %d requests, want 0 (forward only)", got)
	}
	if st := sender.Router().Snapshot(); st.PeerForwards != 1 || st.PeerReceived != 0 {
		t.Fatalf("sender cluster stats %+v, want one forward", st)
	}
	if st := owner.Router().Snapshot(); st.PeerReceived != 1 {
		t.Fatalf("owner peer_received = %d, want 1", st.PeerReceived)
	}

	// Warm-cache affinity: the same program from a DIFFERENT entry node
	// lands on the same owner and hits its cache.
	status, resp = post(t, f.Nodes[2].URL+"/run", req)
	if status != http.StatusOK || !resp.OK || resp.Routed != owner.URL {
		t.Fatalf("second entry point: status=%d routed=%q", status, resp.Routed)
	}
	if !resp.Cached {
		t.Fatal("routing did not preserve cache affinity: second request missed the owner's warm cache")
	}
}

func TestSelfOwnedExecutesLocally(t *testing.T) {
	f := startFleet(t, 2, serve.Config{}, Config{})
	sender := f.Nodes[0]
	req := progOwnedBy(t, sender.Router().ring, sender.URL)
	status, resp := post(t, sender.URL+"/run", req)
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if resp.Routed != sender.URL || resp.ForwardedFrom != "" || resp.Degraded {
		t.Fatalf("self-owned: routed=%q forwarded_from=%q degraded=%v", resp.Routed, resp.ForwardedFrom, resp.Degraded)
	}
	if st := sender.Router().Snapshot(); st.RoutedLocal != 1 || st.PeerForwards != 0 {
		t.Fatalf("cluster stats %+v, want one local route and no forwards", st)
	}
}

func TestForwardedRequestNeverReforwards(t *testing.T) {
	f := startFleet(t, 3, serve.Config{}, Config{})
	// Aim a program owned by node 2 at node 1, pre-marked as forwarded:
	// the one-hop rule says node 1 must execute it locally.
	target := f.Nodes[1]
	req := progOwnedBy(t, target.Router().ring, f.Nodes[2].URL)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, target.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardHeader, "http://elsewhere")
	res, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !resp.OK {
		t.Fatalf("status=%d resp=%+v", res.StatusCode, resp)
	}
	if resp.Routed != target.URL || resp.ForwardedFrom != "http://elsewhere" {
		t.Fatalf("routed=%q forwarded_from=%q, want local execution at %s", resp.Routed, resp.ForwardedFrom, target.URL)
	}
	if got := f.Nodes[2].Server().Snapshot().Total; got != 0 {
		t.Fatalf("ring owner executed %d requests, want 0 (one-hop rule)", got)
	}
}

// ---- degradation ladder ----

func TestDeadPeerDegradesToLocal(t *testing.T) {
	f := startFleet(t, 3, serve.Config{},
		Config{PeerTimeout: 500 * time.Millisecond, Attempts: 2})
	sender := f.Nodes[0]
	owner := f.Nodes[1]
	req := progOwnedBy(t, sender.Router().ring, owner.URL)

	owner.Kill()

	// Every request still gets the program's true answer, marked
	// degraded, served by the sender itself.
	for i := 0; i < 8; i++ {
		status, resp := post(t, sender.URL+"/run", req)
		if status != http.StatusOK || !resp.OK {
			t.Fatalf("request %d against dead owner: status=%d resp=%+v", i, status, resp)
		}
		if !resp.Degraded || resp.Routed != sender.URL {
			t.Fatalf("request %d: degraded=%v routed=%q, want local degradation", i, resp.Degraded, resp.Routed)
		}
	}
	st := sender.Router().Snapshot()
	if st.PeerDegraded == 0 || st.PeerDegradedOK == 0 {
		t.Fatalf("cluster stats %+v, want degraded counters > 0", st)
	}
	if st.PeerFailures == 0 {
		t.Fatalf("peer_failures = 0 after 8 requests against a dead peer")
	}
	// The breaker must have opened: dial failures at a 100% rate.
	if b := st.Breakers[owner.URL]; b.Opens == 0 {
		t.Fatalf("breaker for %s never opened: %+v", owner.URL, b)
	}
}

func TestKilledPeerRecoversAfterRestart(t *testing.T) {
	f := startFleet(t, 2, serve.Config{},
		Config{PeerTimeout: 500 * time.Millisecond, Attempts: 2, BreakerCooldown: 100 * time.Millisecond})
	sender := f.Nodes[0]
	owner := f.Nodes[1]
	req := progOwnedBy(t, sender.Router().ring, owner.URL)

	owner.Kill()
	for i := 0; i < 6; i++ {
		status, resp := post(t, sender.URL+"/run", req)
		if status != http.StatusOK || !resp.OK || !resp.Degraded {
			t.Fatalf("during kill: status=%d resp=%+v", status, resp)
		}
	}
	if err := owner.Restart(); err != nil {
		t.Fatal(err)
	}
	// After the cooldown the half-open probe finds the restarted peer
	// and the fleet converges back to owner routing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, resp := post(t, sender.URL+"/run", req)
		if status != http.StatusOK || !resp.OK {
			t.Fatalf("after restart: status=%d resp=%+v", status, resp)
		}
		if resp.Routed == owner.URL && !resp.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged back to owner routing: %+v", resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestQuota429PassesThroughVerbatim(t *testing.T) {
	f := startFleet(t, 2, serve.Config{TenantMaxConcurrent: 1, TenantStepsPerSec: 1},
		Config{PeerTimeout: time.Second})
	sender := f.Nodes[0]
	owner := f.Nodes[1]
	req := progOwnedBy(t, sender.Router().ring, owner.URL)
	req.Tenant = "acme"

	// First request drains tenant acme's one-step/sec budget at the owner.
	status, resp := post(t, sender.URL+"/run", req)
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("first: status=%d resp=%+v", status, resp)
	}
	// The second must surface the owner's quota 429 — NOT degrade to a
	// local run, which would bypass the tenant's budget.
	status, resp = post(t, sender.URL+"/run", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d resp=%+v, want 429", status, resp)
	}
	if resp.Error == nil || resp.Error.Kind != "quota" {
		t.Fatalf("over-quota error = %+v, want kind=quota", resp.Error)
	}
	if resp.Degraded {
		t.Fatal("quota rejection was degraded to a local run — quota bypass")
	}
	if st := sender.Router().Snapshot(); st.PeerDegraded != 0 {
		t.Fatalf("peer_degraded = %d, want 0 (quota pushback is not degradation)", st.PeerDegraded)
	}
}

func TestGoneClientSkipsLocalRun(t *testing.T) {
	// Every forward send stalls 2s; the client gives up after 100ms.
	// The router must notice the gone client and return without a
	// degraded local execution.
	reg, err := faultinject.Parse("peer-stall:delay:0+:2000")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Set(reg)()

	f := startFleet(t, 2, serve.Config{}, Config{PeerTimeout: 5 * time.Second, Attempts: 1})
	sender := f.Nodes[0]
	owner := f.Nodes[1]
	body, err := json.Marshal(progOwnedBy(t, sender.Router().ring, owner.URL))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sender.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := http.DefaultClient.Do(req); err == nil {
		res.Body.Close()
		t.Fatalf("request answered %d despite a 2s peer stall", res.StatusCode)
	}

	// Stop waits for the abandoned handler to return. Its stalled send
	// must have ended as a failure, with no degraded run after it.
	stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
	defer stopCancel()
	if err := sender.Stop(stopCtx); err != nil {
		t.Fatalf("handler still running after its client left: %v", err)
	}
	if st := sender.Router().Snapshot(); st.PeerFailures == 0 || st.PeerDegraded != 0 {
		t.Fatalf("peer_failures = %d, peer_degraded = %d; want the forward failed and no local run", st.PeerFailures, st.PeerDegraded)
	}
}

func TestPeer5xxFaultRetriesThenDegrades(t *testing.T) {
	// Every forwarded reply is treated as a 500: retries exhaust, then
	// the request degrades locally and still answers correctly.
	reg, err := faultinject.Parse("peer-5xx:err:0+")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Set(reg)()

	f := startFleet(t, 2, serve.Config{}, Config{PeerTimeout: time.Second, Attempts: 2})
	sender := f.Nodes[0]
	req := progOwnedBy(t, sender.Router().ring, f.Nodes[1].URL)

	status, resp := post(t, sender.URL+"/run", req)
	if status != http.StatusOK || !resp.OK || resp.Output == "" {
		t.Fatalf("status=%d resp=%+v", status, resp)
	}
	if !resp.Degraded {
		t.Fatal("persistent peer 5xx did not degrade to local execution")
	}
	st := sender.Router().Snapshot()
	if st.PeerRetries == 0 {
		t.Fatalf("peer_retries = 0, want ≥ 1 before degrading: %+v", st)
	}
}

func TestMergedStatsEndpoint(t *testing.T) {
	f := startFleet(t, 2, serve.Config{}, Config{})
	_, _ = post(t, f.Nodes[0].URL+"/run", serve.Request{Files: files("ok.v", okProg)})
	res, err := http.Get(f.Nodes[0].URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	var merged struct {
		Total   int64  `json:"total"`
		Cluster *Stats `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatalf("stats did not parse: %v\n%s", err, raw)
	}
	if merged.Cluster == nil || merged.Cluster.Self != f.Nodes[0].URL {
		t.Fatalf("stats missing cluster section: %s", raw)
	}
	if !strings.Contains(string(raw), `"breaker_state"`) {
		t.Fatalf("stats missing breaker_state: %s", raw)
	}
}
