package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
)

// workProg burns a known few-thousand steps and a little heap, so one
// run overdraws a small steps/sec budget.
const workProg = `
def main() {
	var s = 0;
	for (i = 0; i < 1000; i++) s = s + i;
	System.puti(s);
	System.ln();
}
`

// allocProg allocates ~80 KiB of modeled heap, so one run overdraws a
// small heap-bytes/sec budget.
const tenantAllocProg = `
def main() {
	for (i = 0; i < 100; i++) {
		var a = Array<int>.new(100);
		a[0] = i;
	}
}
`

// postHdr is postCtx plus response headers, for Retry-After checks.
func postHdr(t *testing.T, url string, req Request) (int, Response, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("malformed response %q: %v", raw, err)
	}
	return hres.StatusCode, resp, hres.Header
}

// requireQuotaReject asserts one 429 with the structured quota error
// shape: kind "quota", the budget name, a parseable Retry-After.
func requireQuotaReject(t *testing.T, status int, resp Response, hdr http.Header, quota string) {
	t.Helper()
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if resp.Error == nil || resp.Error.Kind != "quota" || resp.Error.Quota != quota {
		t.Fatalf("error = %+v, want kind=quota quota=%s", resp.Error, quota)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", hdr.Get("Retry-After"))
	}
}

// TestTenantConcurrencyQuota: with a one-request tenant cap, a second
// concurrent request from the same tenant is rejected with a
// structured quota error while other tenants and anonymous requests
// are unaffected; the slot frees when the first request finishes.
func TestTenantConcurrencyQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantMaxConcurrent: 1, MaxConcurrent: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = postCtx(context.Background(), ts.URL+"/run",
			Request{Files: files("loop.v", loopProg), MaxSteps: 500_000_000, TimeoutMs: 2000, Tenant: "a"})
	}()
	waitFor(t, 2*s.cfg.DefaultTimeout, func() bool {
		return s.Snapshot().Tenants["a"].InFlight == 1
	})

	status, resp, hdr := postHdr(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "a"})
	requireQuotaReject(t, status, resp, hdr, "concurrency")

	// A different tenant and an anonymous request are both admitted.
	if status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "b"}); status != http.StatusOK || !resp.OK {
		t.Fatalf("tenant b: status=%d resp=%+v", status, resp)
	}
	if status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg)}); status != http.StatusOK || !resp.OK {
		t.Fatalf("anonymous: status=%d resp=%+v", status, resp)
	}

	<-done
	waitFor(t, 2*s.cfg.DefaultTimeout, func() bool {
		return s.Snapshot().Tenants["a"].InFlight == 0
	})
	if status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "a"}); status != http.StatusOK || !resp.OK {
		t.Fatalf("tenant a after release: status=%d resp=%+v", status, resp)
	}

	st := s.Snapshot()
	if st.QuotaRejected < 1 {
		t.Fatalf("quota_rejected = %d, want >= 1", st.QuotaRejected)
	}
	ta := st.Tenants["a"]
	if ta.Rejected < 1 || ta.Requests < 3 {
		t.Fatalf("tenant a stats = %+v, want rejected>=1 requests>=3", ta)
	}
	if tb := st.Tenants["b"]; tb.Rejected != 0 || tb.Steps == 0 {
		t.Fatalf("tenant b stats = %+v, want no rejections and charged steps", tb)
	}
}

// TestTenantStepsQuota: the steps/sec bucket starts full, admits the
// first (oversized) request, and then rejects the tenant until the
// debt refills — the debt model in action.
func TestTenantStepsQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantStepsPerSec: 100})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("work.v", workProg), Tenant: "greedy"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("first request: status=%d resp=%+v", status, resp)
	}
	if resp.Steps <= 100 {
		t.Fatalf("work program burned only %d steps; the test needs it over the 100/s budget", resp.Steps)
	}
	st2, resp2, hdr := postHdr(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "greedy"})
	requireQuotaReject(t, st2, resp2, hdr, "steps")

	// A polite tenant with its own (full) bucket is unaffected.
	if status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "polite"}); status != http.StatusOK || !resp.OK {
		t.Fatalf("polite tenant: status=%d resp=%+v", status, resp)
	}

	st := s.Snapshot()
	g := st.Tenants["greedy"]
	if g.Steps != resp.Steps || g.Rejected != 1 {
		t.Fatalf("greedy stats = %+v, want steps=%d rejected=1", g, resp.Steps)
	}
}

// TestTenantHeapQuota: same shape for the modeled heap-bytes/sec
// budget, fed by the interp.Stats.HeapBytes meter.
func TestTenantHeapQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantHeapPerSec: 1024})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("alloc.v", tenantAllocProg), Tenant: "hog"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("first request: status=%d resp=%+v", status, resp)
	}
	st2, resp2, hdr := postHdr(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "hog"})
	requireQuotaReject(t, st2, resp2, hdr, "heap")

	st := s.Snapshot()
	h := st.Tenants["hog"]
	if h.HeapBytes <= 1024 {
		t.Fatalf("hog heap_bytes = %d, want > 1024 (the program allocates ~80 KiB)", h.HeapBytes)
	}
	if h.Rejected != 1 {
		t.Fatalf("hog rejected = %d, want 1", h.Rejected)
	}
}

// TestAnonymousRequestsExemptFromQuotas: requests naming no tenant are
// never metered, even under budgets a single run would overdraw.
func TestAnonymousRequestsExemptFromQuotas(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantMaxConcurrent: 1, TenantStepsPerSec: 1, TenantHeapPerSec: 1})
	for i := 0; i < 4; i++ {
		status, resp := post(t, ts.URL+"/run", Request{Files: files("work.v", workProg)})
		if status != http.StatusOK || !resp.OK {
			t.Fatalf("anonymous request %d: status=%d resp=%+v", i, status, resp)
		}
	}
	st := s.Snapshot()
	if st.QuotaRejected != 0 || st.Tenants != nil {
		t.Fatalf("anonymous traffic was metered: %+v", st)
	}
}

// TestTenantTableBounded: tenant names come from clients, so the table
// keeps at most maxTenants of them. More distinct names than that
// leave /stats listing no more than the bound, and an evicted tenant
// that returns starts again with full buckets — its old debt is gone.
func TestTenantTableBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantStepsPerSec: 100})
	status, resp := post(t, ts.URL+"/run", Request{Files: files("work.v", workProg), Tenant: "debtor"})
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("first request: status=%d resp=%+v", status, resp)
	}
	st2, resp2, hdr := postHdr(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "debtor"})
	requireQuotaReject(t, st2, resp2, hdr, "steps")

	for i := 0; i < maxTenants+16; i++ {
		req := Request{Files: files("ok.v", okProg), Tenant: "t" + strconv.Itoa(i)}
		if status, resp := post(t, ts.URL+"/compile", req); status != http.StatusOK || !resp.OK {
			t.Fatalf("tenant %d: status=%d resp=%+v", i, status, resp)
		}
	}

	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) > maxTenants {
		t.Fatalf("/stats lists %d tenants, want at most %d", len(st.Tenants), maxTenants)
	}
	if _, ok := st.Tenants["debtor"]; ok {
		t.Fatal("least recently seen tenant survived past the bound")
	}
	if status, resp := post(t, ts.URL+"/run", Request{Files: files("ok.v", okProg), Tenant: "debtor"}); status != http.StatusOK || !resp.OK {
		t.Fatalf("evicted tenant returning: status=%d resp=%+v, want a fresh full bucket", status, resp)
	}
}
