package serve

import (
	"math"
	"sync"
	"time"

	"repro/internal/lru"
)

// TenantStat is one tenant's entry in /stats. Requests counts every
// attempt (including rejected ones); Steps and HeapBytes are the
// cumulative execution work charged to the tenant's budgets.
type TenantStat struct {
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	InFlight  int   `json:"in_flight"`
	Steps     int64 `json:"steps"`
	HeapBytes int64 `json:"heap_bytes"`
}

// tenantTable meters per-tenant budgets: a concurrent-request cap and
// token buckets for sustained steps/sec and modeled heap-bytes/sec.
// Buckets hold at most one second of rate (the burst), start full, and
// are debited with the actual work a request performed after it
// finishes — a debt model, so one oversized request pushes the bucket
// negative and the tenant is rejected until the deficit refills. An
// empty tenant name is exempt (single-tenant/CLI usage); zero-valued
// limits are unlimited.
type tenantTable struct {
	mu        sync.Mutex
	maxConc   int     // concurrent requests per tenant; 0 = unlimited
	stepsRate float64 // steps per second; 0 = unlimited
	heapRate  float64 // modeled heap bytes per second; 0 = unlimited
	m         *lru.Cache[string, *tenantState]
}

// maxTenants bounds the tenant table. Tenant names come from clients,
// so an unbounded table would let any client grow server memory and
// the /stats body without limit. The least recently seen tenant is
// dropped; if it returns it starts again with full buckets.
const maxTenants = 1024

type tenantState struct {
	inflight   int
	stepsTok   float64
	heapTok    float64
	lastRefill time.Time

	requests int64
	rejected int64
	steps    int64
	heap     int64
}

func newTenantTable(cfg Config) *tenantTable {
	return &tenantTable{
		maxConc:   cfg.TenantMaxConcurrent,
		stepsRate: float64(cfg.TenantStepsPerSec),
		heapRate:  float64(cfg.TenantHeapPerSec),
		m:         lru.New[string, *tenantState](maxTenants),
	}
}

// state returns (creating if needed) the tenant's bucket state. Callers
// hold t.mu.
func (t *tenantTable) state(name string, now time.Time) *tenantState {
	ts, ok := t.m.Get(name)
	if !ok {
		ts = &tenantState{stepsTok: t.stepsRate, heapTok: t.heapRate, lastRefill: now}
		t.m.Put(name, ts)
	}
	return ts
}

// refill credits the buckets for wall-clock time elapsed since the last
// refill, capped at one second of burst. Callers hold t.mu.
func (t *tenantTable) refill(ts *tenantState, now time.Time) {
	dt := now.Sub(ts.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	ts.lastRefill = now
	if t.stepsRate > 0 {
		ts.stepsTok = math.Min(t.stepsRate, ts.stepsTok+dt*t.stepsRate)
	}
	if t.heapRate > 0 {
		ts.heapTok = math.Min(t.heapRate, ts.heapTok+dt*t.heapRate)
	}
}

// admit meters one request for the tenant. On success it returns the
// in-flight release func; on rejection it returns the quota that fired
// ("concurrency", "steps", or "heap") and a Retry-After hint derived
// from the bucket deficit and refill rate.
func (t *tenantTable) admit(name string) (release func(), retryAfter int, quota string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	ts := t.state(name, now)
	t.refill(ts, now)
	ts.requests++
	switch {
	case t.maxConc > 0 && ts.inflight >= t.maxConc:
		ts.rejected++
		return nil, 1, "concurrency", false
	case t.stepsRate > 0 && ts.stepsTok <= 0:
		ts.rejected++
		return nil, deficitSecs(-ts.stepsTok, t.stepsRate), "steps", false
	case t.heapRate > 0 && ts.heapTok <= 0:
		ts.rejected++
		return nil, deficitSecs(-ts.heapTok, t.heapRate), "heap", false
	}
	ts.inflight++
	return func() {
		t.mu.Lock()
		ts.inflight--
		t.mu.Unlock()
	}, 0, "", true
}

// charge debits the tenant's buckets with the work a finished request
// actually performed.
func (t *tenantTable) charge(name string, steps, heap int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	ts := t.state(name, now)
	t.refill(ts, now)
	ts.steps += steps
	ts.heap += heap
	if t.stepsRate > 0 {
		ts.stepsTok -= float64(steps)
	}
	if t.heapRate > 0 {
		ts.heapTok -= float64(heap)
	}
}

// snapshot returns the per-tenant counters for /stats; nil when no
// tenant has been seen.
func (t *tenantTable) snapshot() map[string]TenantStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.m.Len()
	if n == 0 {
		return nil
	}
	out := make(map[string]TenantStat, n)
	t.m.Each(func(name string, ts *tenantState) {
		out[name] = TenantStat{
			Requests:  ts.requests,
			Rejected:  ts.rejected,
			InFlight:  ts.inflight,
			Steps:     ts.steps,
			HeapBytes: ts.heap,
		}
	})
	return out
}
