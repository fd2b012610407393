// Package cluster is the peer-aware routing tier over internal/serve:
// a fleet of virgil-serve instances, each handed the same static peer
// list, that routes /run and /compile requests to the program's
// consistent-hash owner so the owner's warm cache, profiles, and
// quarantine state serve every request for that program.
//
// The forwarding client is defensive end to end — the cluster must
// never return a worse answer than a lone instance:
//
//   - retries: capped exponential backoff with full jitter, bounded by
//     the caller's deadline and Config.Attempts;
//   - per-peer circuit breakers (closed/open/half-open over a rolling
//     error window) short-circuit forwards to a peer that keeps
//     failing, so a dead peer costs a breaker check, not a timeout;
//   - capacity pushback (429 with Retry-After) from the owner is
//     honored when the hint fits the request's remaining budget,
//     otherwise the request degrades to local execution — EXCEPT
//     per-tenant quota 429s, which pass through verbatim (running the
//     program locally would bypass the tenant's quota);
//   - every other forwarding failure — dial error, peer timeout, 5xx,
//     open breaker, exhausted retries — degrades gracefully to local
//     execution, marked degraded:true in the response.
//
// Forwarding is one hop: a forwarded request (marked with the
// X-Virgil-Forwarded-From header) executes where it lands, even if
// ring views disagree — no forwarding loops by construction. The
// executing instance decorates the response with routed /
// forwarded_from / degraded; the forwarder streams the
// owner's reply through byte-for-byte.
//
// The package's failure modes are driven in tests and chaos harnesses
// by three internal/faultinject points on the forward path: peer-dial
// (err = connection failure before the request is sent), peer-stall
// (delay = network latency), and peer-5xx (err after a response is
// received = treat the reply as a 500).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// ForwardHeader marks a request as already forwarded once; the
// receiving instance executes it locally no matter what its own ring
// says. Its value is the forwarder's self URL.
const ForwardHeader = "X-Virgil-Forwarded-From"

// Config tunes the routing tier. Zero values select the documented
// defaults.
type Config struct {
	// Self is this instance's own URL as it appears in Peers.
	Self string
	// Peers is the full static fleet, self included. Order does not
	// matter — the ring sorts. Empty or single-entry peers make the
	// router a transparent decorator over the local server.
	Peers []string
	// PeerTimeout bounds one forward attempt. Default: 2s.
	PeerTimeout time.Duration
	// Attempts is the total number of forward attempts (first try
	// included) before degrading to local execution. Default: 3.
	Attempts int
	// MaxBodyBytes bounds one request body at the routing layer; keep
	// it in sync with the serve tier's limit. Default: 4 MiB.
	MaxBodyBytes int64
	// BreakerWindow and BreakerCooldown tune the per-peer breakers.
	// Defaults: 16 samples, 1s cooldown.
	BreakerWindow   int
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// maxPeerResponseBytes bounds how much of a peer's reply the forwarder
// buffers — program output is already bounded by the serve tier's heap
// and step budgets, so this is a backstop, not a working limit.
const maxPeerResponseBytes = 64 << 20

// Router wraps a local serve.Server with the peer-routing tier. Mount
// Handler() in place of the server's own handler.
type Router struct {
	cfg      Config
	local    *serve.Server
	ring     *ring
	client   *http.Client
	breakers map[string]*breaker
	mux      *http.ServeMux

	forwards     atomic.Int64 // requests sent to a peer (attempts, not retries)
	retries      atomic.Int64 // extra attempts after the first
	forwardFails atomic.Int64 // attempts that ended in network error or 5xx
	degraded     atomic.Int64 // requests that fell back to local execution
	degradedOK   atomic.Int64 // degraded requests that still answered 2xx
	received     atomic.Int64 // forwarded requests this instance executed
	routedLocal  atomic.Int64 // requests this instance owned outright
}

// New builds the routing tier over local. The peer set is static for
// the router's lifetime.
func New(cfg Config, local *serve.Server) *Router {
	cfg = cfg.withDefaults()
	peers := cfg.Peers
	if cfg.Self != "" {
		found := false
		for _, p := range peers {
			if p == cfg.Self {
				found = true
				break
			}
		}
		if !found {
			peers = append(append([]string(nil), peers...), cfg.Self)
		}
	}
	rt := &Router{
		cfg:      cfg,
		local:    local,
		ring:     newRing(peers),
		client:   &http.Client{},
		breakers: map[string]*breaker{},
		mux:      http.NewServeMux(),
	}
	for _, p := range rt.ring.peers {
		if p != cfg.Self {
			rt.breakers[p] = newBreaker(cfg.BreakerWindow, cfg.BreakerCooldown)
		}
	}
	rt.mux.HandleFunc("/run", rt.guard(rt.handleRouted))
	rt.mux.HandleFunc("/compile", rt.guard(rt.handleRouted))
	rt.mux.HandleFunc("/stats", rt.guard(rt.handleStats))
	rt.mux.Handle("/", local.Handler()) // healthz and anything else: local
	return rt
}

// Handler returns the cluster-aware HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// guard mirrors the serve tier's panic boundary: routing-layer bugs
// become structured ICE JSON, never a dead instance.
func (rt *Router) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeJSON(w, http.StatusInternalServerError, serve.Response{
					Error: &serve.ErrorInfo{Kind: "ice", Msg: fmt.Sprintf("internal error (cluster): %v", rec)},
				})
			}
		}()
		h(w, r)
	}
}

// Stats is the routing tier's /stats section.
type Stats struct {
	Self           string                 `json:"self"`
	Peers          []string               `json:"peers"`
	RoutedLocal    int64                  `json:"routed_local"`
	PeerForwards   int64                  `json:"peer_forwards"`
	PeerRetries    int64                  `json:"peer_retries"`
	PeerFailures   int64                  `json:"peer_failures"`
	PeerDegraded   int64                  `json:"peer_degraded"`
	PeerDegradedOK int64                  `json:"peer_degraded_ok"`
	PeerReceived   int64                  `json:"peer_received"`
	Breakers       map[string]BreakerStat `json:"breaker_state,omitempty"`
}

// Snapshot returns the routing counters.
func (rt *Router) Snapshot() Stats {
	st := Stats{
		Self:           rt.cfg.Self,
		Peers:          append([]string(nil), rt.ring.peers...),
		RoutedLocal:    rt.routedLocal.Load(),
		PeerForwards:   rt.forwards.Load(),
		PeerRetries:    rt.retries.Load(),
		PeerFailures:   rt.forwardFails.Load(),
		PeerDegraded:   rt.degraded.Load(),
		PeerDegradedOK: rt.degradedOK.Load(),
		PeerReceived:   rt.received.Load(),
	}
	if len(rt.breakers) > 0 {
		st.Breakers = map[string]BreakerStat{}
		for p, b := range rt.breakers {
			st.Breakers[p] = b.snapshot()
		}
	}
	return st
}

// handleStats merges the local serve stats with the cluster section,
// so one scrape shows both tiers.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		serve.Stats
		Cluster Stats `json:"cluster"`
	}{rt.local.Snapshot(), rt.Snapshot()})
}

// handleRouted is the /run and /compile path: find the program's
// owner, execute locally or forward with the full resilience ladder.
func (rt *Router) handleRouted(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.passThrough(w, r, nil) // local mux answers 405
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, serve.Response{Error: &serve.ErrorInfo{
				Kind: "error",
				Msg:  fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			}})
			return
		}
		writeJSON(w, http.StatusBadRequest, serve.Response{Error: &serve.ErrorInfo{Kind: "error", Msg: "bad request body: " + err.Error()}})
		return
	}

	// Tolerant decode, only to extract the routing key. A body the
	// serve tier would reject (unknown fields, no files) still routes —
	// the owner produces the structured 4xx — and a body that does not
	// parse at all short-circuits to the local server's own 400.
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil || len(req.Files) == 0 {
		rt.passThrough(w, r, body)
		return
	}

	if from := r.Header.Get(ForwardHeader); from != "" {
		// One-hop rule: a forwarded request executes here, period.
		rt.received.Add(1)
		rt.runLocal(w, r, body, func(resp *serve.Response) {
			resp.Routed = rt.cfg.Self
			resp.ForwardedFrom = from
		})
		return
	}

	owner := rt.ring.owner(serve.ProgramHash(req.Files))
	if owner == "" || owner == rt.cfg.Self || len(rt.ring.peers) < 2 {
		rt.routedLocal.Add(1)
		rt.runLocal(w, r, body, func(resp *serve.Response) {
			resp.Routed = rt.cfg.Self
		})
		return
	}

	rt.forward(w, r, owner, body)
}

// passThrough hands the request to the local serve mux unmodified
// (body already consumed is restored from the buffered copy).
func (rt *Router) passThrough(w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r = cloneWithBody(r, body)
	}
	rt.local.Handler().ServeHTTP(w, r)
}

// runLocal executes the request on the local server and decorates the
// structured response with the routing facts.
func (rt *Router) runLocal(w http.ResponseWriter, r *http.Request, body []byte, mutate func(*serve.Response)) {
	rec := runRecorded(rt.local, r, body)
	rec.writeTo(w, mutate)
}

// forward drives the resilience ladder for a request owned by a peer:
// breaker check, forward with retry/backoff, and local degradation as
// the terminal fallback.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	br := rt.breakers[owner]
	if br == nil || !br.allow() {
		rt.degradeLocal(w, r, body)
		return
	}
	rec := rt.tryForward(r.Context(), owner, r.URL.Path, body, br)
	switch {
	case r.Context().Err() != nil:
		// Client is gone; nothing left to answer.
	case rec == nil:
		rt.degradeLocal(w, r, body)
	default:
		rec.writeTo(w, nil) // owner already decorated; stream through
	}
}

// tryForward attempts the forward up to cfg.Attempts times with capped
// exponential backoff and full jitter, classifying every outcome for
// the breaker. It returns the reply to stream, or nil to degrade.
func (rt *Router) tryForward(ctx context.Context, owner, path string, body []byte, br *breaker) *recorder {
	backoff := 50 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
	for attempt := 0; attempt < rt.cfg.Attempts; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
			// Full jitter: sleep U(0, backoff], then double toward the cap.
			if !sleepCtx(ctx, time.Duration(rand.Int63n(int64(backoff)))+time.Millisecond) {
				return nil
			}
			backoff = min(2*backoff, backoffCap)
			if !br.allow() {
				return nil
			}
		}
		rt.forwards.Add(1)
		rec, err := rt.send(ctx, owner, path, body)
		if err != nil {
			rt.forwardFails.Add(1)
			br.report(false)
			if ctx.Err() != nil {
				return nil
			}
			continue
		}
		switch {
		case rec.status >= 500:
			// The peer answered but broken — same as a network failure
			// for the breaker, and worth one more try elsewhere in time.
			rt.forwardFails.Add(1)
			br.report(false)
			continue
		case rec.status == http.StatusTooManyRequests:
			br.report(true) // the peer is alive; this is pushback, not failure
			if kind := errorKind(rec.body); kind == "quota" {
				// Tenant quota rejections pass through verbatim: running
				// the program locally would bypass the tenant's budget.
				return rec
			}
			// Capacity shed: honor Retry-After when it fits the remaining
			// budget and attempts remain; otherwise degrade to local.
			if attempt+1 < rt.cfg.Attempts {
				if wait, ok := retryAfterFits(ctx, rec.header.Get("Retry-After")); ok {
					if !sleepCtx(ctx, wait) {
						return nil
					}
					continue
				}
			}
			return nil
		default:
			// 2xx and structured 4xx: the owner's answer is the answer.
			br.report(true)
			return rec
		}
	}
	return nil
}

// send performs one forward attempt, bounded by PeerTimeout, crossing
// the three chaos points (peer-stall, peer-dial, peer-5xx).
func (rt *Router) send(ctx context.Context, owner, path string, body []byte) (*recorder, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.PeerTimeout)
	defer cancel()
	// Injected network latency (delay) and connection failure (err).
	if err := faultinject.Point(actx, "peer-stall"); err != nil {
		return nil, err
	}
	if err := faultinject.Point(actx, "peer-dial"); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, owner+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, rt.cfg.Self)
	res, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(io.LimitReader(res.Body, maxPeerResponseBytes))
	if err != nil {
		return nil, err
	}
	rec := &recorder{status: res.StatusCode, header: res.Header.Clone(), body: *bytes.NewBuffer(b)}
	// An injected err here models a peer whose reply arrived corrupt /
	// as a gateway 500: the classification ladder sees a 5xx.
	if err := faultinject.Point(actx, "peer-5xx"); err != nil {
		rec.status = http.StatusInternalServerError
	}
	return rec, nil
}

// degradeLocal is the bottom of the ladder: execute locally, mark the
// response degraded. The local server's own watchdog, quarantine, and
// budgets still apply, so the cluster's worst case is a lone instance.
func (rt *Router) degradeLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.degraded.Add(1)
	rec := runRecorded(rt.local, r, body)
	if rec.status < 300 {
		rt.degradedOK.Add(1)
	}
	rec.writeTo(w, func(resp *serve.Response) {
		resp.Routed = rt.cfg.Self
		resp.Degraded = true
	})
}

// ---- plumbing ----

// recorder is a minimal in-memory http.ResponseWriter used both for
// local executions that need decoration and for buffered peer replies.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, header: http.Header{}} }

func (rec *recorder) Header() http.Header { return rec.header }
func (rec *recorder) WriteHeader(code int) {
	rec.status = code
}
func (rec *recorder) Write(p []byte) (int, error) { return rec.body.Write(p) }

// runRecorded executes the request against the local serve handler,
// capturing the reply.
func runRecorded(local *serve.Server, r *http.Request, body []byte) *recorder {
	rec := newRecorder()
	local.Handler().ServeHTTP(rec, cloneWithBody(r, body))
	return rec
}

// writeTo replays the recorded response onto w, decorating the
// structured body via mutate when it parses as a serve.Response.
// Anything that does not parse streams through byte-for-byte.
func (rec *recorder) writeTo(w http.ResponseWriter, mutate func(*serve.Response)) {
	for _, h := range []string{"Retry-After", "Content-Type"} {
		if v := rec.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if mutate != nil {
		var resp serve.Response
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err == nil {
			mutate(&resp)
			writeJSONStatus(w, rec.status, resp)
			return
		}
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
}

func cloneWithBody(r *http.Request, body []byte) *http.Request {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	return r2
}

// errorKind extracts error.kind from a structured reply body ("" when
// the body is not a structured response).
func errorKind(body bytes.Buffer) string {
	var resp serve.Response
	if err := json.Unmarshal(body.Bytes(), &resp); err != nil || resp.Error == nil {
		return ""
	}
	return resp.Error.Kind
}

// retryAfterFits parses a Retry-After hint and reports whether waiting
// it out fits the request's remaining deadline budget (with slack to
// actually do the work after the wait).
func retryAfterFits(ctx context.Context, hint string) (time.Duration, bool) {
	secs, err := strconv.Atoi(strings.TrimSpace(hint))
	if err != nil || secs < 0 {
		return 0, false
	}
	wait := time.Duration(secs) * time.Second
	dl, ok := ctx.Deadline()
	if !ok {
		// No deadline: only short waits are worth it over local execution.
		return wait, wait <= 2*time.Second
	}
	if remaining := time.Until(dl); wait+500*time.Millisecond < remaining {
		return wait, true
	}
	return 0, false
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) { writeJSONStatus(w, status, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"ok":false,"error":{"kind":"ice","msg":"response marshal failed"}}`))
		return
	}
	w.WriteHeader(status)
	_, _ = w.Write(b)
	_, _ = w.Write([]byte("\n"))
}
