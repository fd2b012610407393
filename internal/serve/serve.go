// Package serve runs the Virgil-core pipeline as a long-lived,
// multi-tenant HTTP service — the compiler-daemon shape (gopls-style)
// the ROADMAP's heavy-traffic north star asks for.
//
// The service is built on the cancellation-safe pipeline: every request
// gets a context carrying (1) the client's disconnect, (2) a
// per-request deadline clamped to Config.MaxTimeout, and (3) the
// server's shutdown signal; core.CompileFilesContext and the
// interpreter's step loop observe it at every stage boundary and
// before each function inside a stage, so an abandoned request frees
// its admission slot in milliseconds instead of paying for the whole
// compile.
//
// Admission control is a bounded semaphore (Config.MaxConcurrent
// slots) with a small wait queue (Config.QueueDepth); a request that
// finds the queue full is load-shed immediately with 429 and a
// Retry-After hint, so overload degrades by rejecting work, not by
// growing latency without bound.
//
// Fault containment mirrors the CLI: panics anywhere in a request are
// converted to structured ICE JSON (HTTP 500) by a per-request
// recovery boundary; the process and its shared types.Cache keep
// serving. The fault-injection points of internal/faultinject fire
// inside requests exactly as they do in tests, which is how the fault
// matrix proves those claims.
//
// Feedback-directed tier-up closes the profile loop at the service
// layer: tier-1 runs of a warm, optimizing, bytecode-engine program
// record execution profiles into its cache entry; after
// Config.TierAfter runs the merged profile drives a profile-guided
// recompile (speculative devirtualization, hot inlining, fusion
// selection) stored under the program's tier-2 cache key, and
// subsequent requests serve the tiered artifact. Responses carry the
// tier, /stats counts tier_ups and resident tiered_programs, and
// because every speculative fast path is guarded with fall-through —
// never a deopt trap — a tiered run is observably identical to an
// untiered one.
//
// Self-healing and containment (see DESIGN.md "The containment
// model"): every /run is bounded by a modeled heap budget
// (Config.MaxHeapBytes, the interp.ChargeHeap cost model) in addition
// to steps and wall clock; a bytecode-engine fault (ICE or injected
// translate/engine fault) triggers a transparent re-run on the switch
// interpreter, and programs that keep faulting are quarantined to the
// reference engine. Requests may carry a tenant name, metered against
// per-tenant concurrency, steps/sec, and heap-bytes/sec budgets with
// structured 429s and per-tenant counters in /stats.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/profile"
	"repro/internal/src"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent is the number of requests compiled at once
	// (admission slots). Default: GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth is how many admitted-but-waiting requests may queue
	// behind the slots before new arrivals are shed with 429.
	// Default: 2 * MaxConcurrent.
	QueueDepth int
	// DefaultTimeout bounds a request that names no timeout_ms.
	// Default: 10s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default: 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds one request body. Default: 4 MiB.
	MaxBodyBytes int64
	// Engine selects the execution engine for /run: "bytecode" (the
	// default) or "switch". The two are observably identical; switch
	// exists as the reference semantics.
	Engine string
	// CacheSize bounds the warm-compilation LRU: repeated requests for
	// the same (config, engine, sources) reuse the compiled
	// module and its translated bytecode, paying only execution.
	// Default: 64 entries. Negative disables caching.
	CacheSize int
	// MaxHeapBytes bounds the modeled heap (interp.ChargeHeap cost
	// model) of one /run request; a request's max_heap field may lower
	// but not raise it. Default: 64 MiB.
	MaxHeapBytes int64
	// QuarantineAfter is how many bytecode-engine fallbacks a program
	// may accumulate before it is pinned to the switch interpreter.
	// Default: 3. Negative disables quarantine (fallback still runs).
	QuarantineAfter int
	// TierAfter is how many profiled runs a cached program accumulates
	// before the service recompiles it with the recorded profile and
	// serves the tiered artifact (feedback-directed tier-up). Only /run
	// requests on the bytecode engine with the optimizing config are
	// profiled, and tiering rides the warm cache — disabling the cache
	// disables tiering. Default: 8. Negative disables tier-up.
	TierAfter int
	// TenantMaxConcurrent caps one tenant's in-flight requests
	// (0 = no cap). Only requests naming a tenant are metered.
	TenantMaxConcurrent int
	// TenantStepsPerSec is one tenant's sustained execution-step budget
	// (0 = no cap), enforced as a token bucket with one second of burst.
	TenantStepsPerSec int64
	// TenantHeapPerSec is one tenant's sustained modeled-heap budget in
	// bytes per second (0 = no cap), enforced like TenantStepsPerSec.
	TenantHeapPerSec int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.MaxHeapBytes <= 0 {
		c.MaxHeapBytes = 64 << 20
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.TierAfter == 0 {
		c.TierAfter = 8
	}
	return c
}

// Server is the compile service. Create with New, mount via Handler or
// run with Serve + Shutdown.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	sem       chan struct{}
	baseCtx   context.Context
	cancel    context.CancelFunc
	httpMu    sync.Mutex // orders ServeWith against a concurrent Shutdown
	http      *http.Server
	start     time.Time
	cache     *compCache
	store     *core.Store
	flights   *flightGroup
	fallbacks *fallbackTable
	tenants   *tenantTable

	draining  atomic.Bool
	waiting   atomic.Int64
	inflight  atomic.Int64
	total     atomic.Int64
	succeeded atomic.Int64
	diags     atomic.Int64
	ices      atomic.Int64
	cancelled atomic.Int64
	deadlines atomic.Int64
	shed      atomic.Int64
	cacheHits atomic.Int64
	cacheMiss atomic.Int64

	engineFallbacks atomic.Int64
	quotaRejected   atomic.Int64
	tierUps         atomic.Int64
	coalescedReqs   atomic.Int64
	incrHits        atomic.Int64
	incrFuncsReused atomic.Int64
	incrFallbacks   atomic.Int64
	// avgDurNs is an EWMA of request service time, feeding the
	// Retry-After estimate for load-shed and quota rejections.
	avgDurNs atomic.Int64
}

// New creates a server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:   ctx,
		cancel:    cancel,
		start:     time.Now(),
		cache:     newCompCache(cfg.CacheSize),
		store:     newArtifactStore(cfg.CacheSize),
		flights:   newFlightGroup(),
		fallbacks: newFallbackTable(128, cfg.QuarantineAfter),
		tenants:   newTenantTable(cfg),
	}
	s.mux.HandleFunc("/compile", s.guard(s.handleCompile))
	s.mux.HandleFunc("/run", s.guard(s.handleRun))
	s.mux.HandleFunc("/healthz", s.guard(s.handleHealthz))
	s.mux.HandleFunc("/stats", s.guard(s.handleStats))
	return s
}

// Handler returns the service's HTTP handler, for mounting under
// httptest or an external server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, matching net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.ServeWith(l, s.mux)
}

// ServeWith is Serve with a wrapping handler (the cluster tier wraps
// this server's mux with peer routing): Shutdown still drains the
// listener and in-flight requests exactly as for Serve.
func (s *Server) ServeWith(l net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h}
	s.httpMu.Lock()
	if s.draining.Load() {
		// Shutdown already ran and found nothing to drain.
		s.httpMu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	s.http = hs
	s.httpMu.Unlock()
	return hs.Serve(l)
}

// Shutdown drains the service: new work is rejected with 503 and
// /healthz flips unhealthy, in-flight requests run to completion (or
// their own deadlines) until ctx expires, and any stragglers are then
// cancelled through the server's base context — the step every handler
// observes. Safe to call without Serve (in-process handlers).
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	s.draining.Store(true)
	hs := s.http
	s.httpMu.Unlock()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
		if err != nil {
			// Drain deadline hit: cancel the stragglers and close.
			s.cancel()
			closeErr := hs.Close()
			if closeErr != nil && err == nil {
				err = closeErr
			}
		}
	} else {
		// In-process mode: wait for in-flight work up to ctx.
		for s.inflight.Load() > 0 {
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-time.After(time.Millisecond):
				continue
			}
			break
		}
	}
	// Always release the base context so nothing can outlive Shutdown.
	s.cancel()
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	UptimeMs     int64 `json:"uptime_ms"`
	InFlight     int64 `json:"in_flight"`
	Waiting      int64 `json:"waiting"`
	Total        int64 `json:"total"`
	Succeeded    int64 `json:"succeeded"`
	Diagnostics  int64 `json:"diagnostics"`
	ICEs         int64 `json:"ices"`
	Cancelled    int64 `json:"cancelled"`
	Deadlines    int64 `json:"deadlines"`
	Shed         int64 `json:"shed"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// EngineFallbacks counts /run requests re-executed on the switch
	// interpreter after a bytecode-engine fault; FallbackHashes lists
	// the most recent offending program hashes, newest first.
	EngineFallbacks     int64    `json:"engine_fallbacks"`
	QuarantinedPrograms int      `json:"quarantined_programs"`
	FallbackHashes      []string `json:"fallback_hashes,omitempty"`
	// QuotaRejected counts requests shed by per-tenant quotas; Tenants
	// holds the per-tenant counters.
	QuotaRejected int64                 `json:"quota_rejected"`
	Tenants       map[string]TenantStat `json:"tenants,omitempty"`
	// TierUps counts profile-guided recompiles performed by the tier-up
	// path; TieredPrograms is how many tier-2 artifacts are resident in
	// the warm cache right now.
	TierUps        int64 `json:"tier_ups"`
	TieredPrograms int   `json:"tiered_programs"`
	// Coalesced counts requests that shared another request's in-flight
	// compile instead of compiling themselves (single-flight warm-miss
	// coalescing).
	Coalesced int64 `json:"coalesced"`
	// IncrementalHits counts compiles served wholly or partly from the
	// artifact store (whole-module hits plus function-granular
	// incremental compiles); IncrementalFuncsReused totals the compiled
	// function bodies those compiles did not have to rebuild;
	// IncrementalFallbacks counts compiles that found a base but had to
	// rebuild from scratch (type-level edit, layout change).
	IncrementalHits        int64  `json:"incremental_hits"`
	IncrementalFuncsReused int64  `json:"incremental_funcs_reused"`
	IncrementalFallbacks   int64  `json:"incremental_fallbacks"`
	Engine                 string `json:"engine"`
	MaxConcurrent          int    `json:"max_concurrent"`
	QueueDepth             int    `json:"queue_depth"`
	FaultsArmed            bool   `json:"faults_armed"`
	Draining               bool   `json:"draining"`
}

// Snapshot returns the current counters.
func (s *Server) Snapshot() Stats {
	st := Stats{
		UptimeMs:        time.Since(s.start).Milliseconds(),
		InFlight:        s.inflight.Load(),
		Waiting:         s.waiting.Load(),
		Total:           s.total.Load(),
		Succeeded:       s.succeeded.Load(),
		Diagnostics:     s.diags.Load(),
		ICEs:            s.ices.Load(),
		Cancelled:       s.cancelled.Load(),
		Deadlines:       s.deadlines.Load(),
		Shed:            s.shed.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMiss.Load(),
		CacheEntries:    s.cache.len(),
		EngineFallbacks: s.engineFallbacks.Load(),
		QuotaRejected:   s.quotaRejected.Load(),
		TierUps:         s.tierUps.Load(),
		Coalesced:       s.coalescedReqs.Load(),

		IncrementalHits:        s.incrHits.Load(),
		IncrementalFuncsReused: s.incrFuncsReused.Load(),
		IncrementalFallbacks:   s.incrFallbacks.Load(),
		TieredPrograms:         s.cache.tiered(),
		Tenants:                s.tenants.snapshot(),
		Engine:                 core.Config{Engine: s.cfg.Engine}.EngineKind(),
		MaxConcurrent:          s.cfg.MaxConcurrent,
		QueueDepth:             s.cfg.QueueDepth,
		FaultsArmed:            faultinject.Enabled(),
		Draining:               s.draining.Load(),
	}
	st.QuarantinedPrograms, st.FallbackHashes = s.fallbacks.snapshot()
	return st
}

// ---- wire types ----

// FileJSON is one named source file in a request.
type FileJSON struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Request is the body of /compile and /run.
type Request struct {
	Files []FileJSON `json:"files"`
	// Config selects the pipeline: ref, mono, norm, opt, or full
	// (default).
	Config string `json:"config,omitempty"`
	// MaxErrors caps reported diagnostics (0 = server default).
	MaxErrors int `json:"max_errors,omitempty"`
	// TimeoutMs bounds the whole request; clamped to the server's
	// MaxTimeout (0 = server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxSteps bounds interpreter steps on /run (0 = default budget).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Engine overrides the server's execution engine for this request:
	// bytecode or switch ("" = server default).
	Engine string `json:"engine,omitempty"`
	// MaxHeap lowers the server's modeled heap budget for this /run
	// (0 = server default; values above the server cap are clamped).
	MaxHeap int64 `json:"max_heap,omitempty"`
	// Tenant attributes the request to a tenant for quota metering.
	// Empty is exempt (single-tenant usage).
	Tenant string `json:"tenant,omitempty"`
}

// ErrorInfo is the structured, stack-free form of a request failure.
type ErrorInfo struct {
	// Kind is one of: ice, cancelled, deadline, resource, quota, error.
	Kind  string `json:"kind"`
	Stage string `json:"stage,omitempty"`
	Msg   string `json:"msg"`
	// Quota names the per-tenant budget that rejected the request
	// (concurrency, steps, or heap); set only when Kind is "quota".
	Quota string `json:"quota,omitempty"`
}

// Diagnostic is one user-program error.
type Diagnostic struct {
	Pos string `json:"pos,omitempty"`
	Msg string `json:"msg"`
}

// TrapInfo is a Virgil-level runtime exception from /run.
type TrapInfo struct {
	Name  string   `json:"name"`
	Msg   string   `json:"msg,omitempty"`
	Trace []string `json:"trace,omitempty"`
}

// Response is the body of /compile and /run replies.
type Response struct {
	OK          bool         `json:"ok"`
	Config      string       `json:"config,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	Error       *ErrorInfo   `json:"error,omitempty"`
	// Compile facts (set when the pipeline completed).
	Funcs   int     `json:"funcs,omitempty"`
	Instrs  int     `json:"instrs,omitempty"`
	TotalMs float64 `json:"total_ms,omitempty"`
	// Analysis facts (set when the config ran the analysis layer; the
	// facts live on the cached Compilation, so warm hits report them
	// without re-analyzing).
	StackPromoted int `json:"stack_promoted,omitempty"`
	PureFuncs     int `json:"pure_funcs,omitempty"`
	// Execution facts (/run only).
	Output string    `json:"output,omitempty"`
	Trap   *TrapInfo `json:"trap,omitempty"`
	Steps  int64     `json:"steps,omitempty"`
	// Cached reports that the compilation was served from the warm
	// cache (execution still ran fresh). Coalesced reports that this
	// request shared another request's in-flight compile of the same
	// key (single-flight) rather than compiling itself.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Engine is the engine that produced the execution result; Fallback
	// reports that the bytecode engine faulted and the result came from
	// a switch-interpreter re-run; Quarantined reports that the program
	// was already pinned to the switch interpreter.
	Engine      string `json:"engine,omitempty"`
	Fallback    bool   `json:"fallback,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	// Tier is the execution tier that served this /run: 1 for the plain
	// compilation (profiling toward tier-up), 2 for the profile-guided
	// recompile. Omitted when the request is not tierable (compile-only,
	// switch engine, non-optimizing config, tiering disabled).
	Tier int `json:"tier,omitempty"`
	// Cluster-routing facts, set by the internal/cluster tier (never by
	// a lone instance): Routed is the instance that executed the
	// request; ForwardedFrom is the instance that forwarded it to its
	// consistent-hash owner; Degraded reports that forwarding to the
	// owner failed (network fault, 5xx, open breaker, exhausted budget)
	// and the result came from a local fallback execution.
	Routed        string `json:"routed,omitempty"`
	ForwardedFrom string `json:"forwarded_from,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
}

// ---- handlers ----

// guard is the per-request panic boundary: anything escaping a handler
// becomes structured ICE JSON, never a Go stack trace in the body, and
// never a dead process.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.ices.Add(1)
				writeJSON(w, http.StatusInternalServerError, Response{
					Error: &ErrorInfo{Kind: "ice", Msg: fmt.Sprintf("internal error: %v", rec)},
				})
			}
		}()
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.handleWork(w, r, false)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.handleWork(w, r, true)
}

// handleWork is the shared request path: decode, admit, derive the
// request context, compile (and run), classify the outcome.
func (s *Server) handleWork(w http.ResponseWriter, r *http.Request, execute bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: &ErrorInfo{Kind: "error", Msg: "POST required"}})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Response{Error: &ErrorInfo{Kind: "error", Msg: "server is shutting down"}})
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	// Unknown fields are rejected outright: a misspelled knob silently
	// ignored is a debugging trap, and a misbehaving peer or client
	// padding requests with junk should fail fast, not balloon memory.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, Response{Error: &ErrorInfo{
				Kind: "error",
				Msg:  fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			}})
			return
		}
		writeJSON(w, http.StatusBadRequest, Response{Error: &ErrorInfo{Kind: "error", Msg: "bad request body: " + err.Error()}})
		return
	}
	if len(req.Files) == 0 {
		writeJSON(w, http.StatusBadRequest, Response{Error: &ErrorInfo{Kind: "error", Msg: "no input files"}})
		return
	}
	cfg, err := configByName(req.Config)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: &ErrorInfo{Kind: "error", Msg: err.Error()}})
		return
	}
	if req.MaxErrors < 0 || req.MaxSteps < 0 || req.TimeoutMs < 0 || req.MaxHeap < 0 {
		writeJSON(w, http.StatusBadRequest, Response{Error: &ErrorInfo{Kind: "error", Msg: "max_errors, max_steps, max_heap, and timeout_ms must be >= 0"}})
		return
	}
	cfg.MaxErrors = req.MaxErrors
	// MaxSteps stays out of the Config so the compilation is cacheable;
	// it is applied per request at RunToContext below.
	cfg.Engine = s.cfg.Engine
	if req.Engine != "" {
		cfg.Engine = req.Engine
	}
	if err := cfg.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: &ErrorInfo{Kind: "error", Msg: err.Error()}})
		return
	}

	s.total.Add(1)

	// Per-tenant quotas come before global admission so one over-quota
	// tenant is shed without consuming a queue slot others could use.
	if req.Tenant != "" {
		releaseTenant, retryAfter, quota, ok := s.tenants.admit(req.Tenant)
		if !ok {
			s.quotaRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeJSON(w, http.StatusTooManyRequests, Response{Error: &ErrorInfo{
				Kind:  "quota",
				Quota: quota,
				Msg:   fmt.Sprintf("tenant %q over %s quota; retry later", req.Tenant, quota),
			}})
			return
		}
		defer releaseTenant()
	}

	// Admission: take a slot, or wait in the bounded queue, or shed.
	release, queued, admitted := s.admit(r.Context())
	if !admitted {
		if r.Context().Err() != nil {
			// The client gave up while queued — that's a cancellation,
			// not an overload signal.
			s.cancelled.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, Response{Error: &ErrorInfo{Kind: "cancelled", Msg: "request cancelled while queued"}})
			return
		}
		s.shed.Add(1)
		// The hint is derived from the queue depth this rejection saw and
		// the EWMA read now — per response, never a stale snapshot.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(queued)))
		writeJSON(w, http.StatusTooManyRequests, Response{Error: &ErrorInfo{Kind: "error", Msg: "server at capacity; retry later"}})
		return
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	served := time.Now()
	defer func() { s.observeDuration(time.Since(served)) }()

	// Request context: client disconnect + per-request deadline +
	// server shutdown, all observed by the pipeline's stage boundaries.
	ctx, cancelReq := context.WithCancel(r.Context())
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = min(time.Duration(req.TimeoutMs)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancelDeadline := context.WithTimeout(ctx, timeout)
	defer cancelDeadline()

	var files []core.File
	for _, f := range req.Files {
		files = append(files, core.File{Name: f.Name, Source: f.Source})
	}

	resp := Response{Config: cfg.Name()}

	// Engine and quarantine are resolved before the cache lookup
	// because the lookup itself is tiered: a /run that is eligible for
	// feedback-directed execution checks the tier-2 key first, so a
	// program that already earned a profile-guided recompile serves
	// from that artifact.
	progHash := ProgramHash(req.Files)
	engineKind := cfg.EngineKind()
	if execute && engineKind == core.EngineBytecode && s.fallbacks.quarantined(progHash) {
		// The watchdog has seen this program fault the bytecode engine
		// too often; pin it to the reference interpreter.
		engineKind = core.EngineSwitch
		resp.Quarantined = true
	}
	tierable := execute && s.cfg.TierAfter > 0 && cfg.Optimize && engineKind == core.EngineBytecode

	var (
		comp  *core.Compilation
		entry *cacheEntry
	)
	if tierable {
		if e, ok := s.cache.get(cacheKey(cfg, req.Files, 2)); ok {
			entry, comp = e, e.comp.Load()
			s.cacheHits.Add(1)
			resp.Cached = true
			resp.Tier = 2
		}
	}
	if comp == nil {
		key := cacheKey(cfg, req.Files, 1)
		if e, ok := s.cache.get(key); ok {
			entry, comp = e, e.comp.Load()
			s.cacheHits.Add(1)
			resp.Cached = true
		} else {
			s.cacheMiss.Add(1)
			// Warm-miss stampedes coalesce: one leader compiles (through
			// the artifact store, so an edit recompiles only its dirty
			// functions), followers share its result.
			c, coalesced, err := s.flights.do(ctx, key, func() (*core.Compilation, error) {
				comp, ist, cerr := core.CompileFilesIncremental(ctx, files, cfg, s.store)
				if ist != nil {
					switch ist.Mode {
					case core.ModeModuleHit, core.ModeIncremental:
						s.incrHits.Add(1)
						s.incrFuncsReused.Add(int64(ist.FuncsReused))
					case core.ModeFallback:
						s.incrFallbacks.Add(1)
					}
				}
				return comp, cerr
			})
			if err != nil {
				status := s.classify(r, ctx, err, &resp)
				writeJSON(w, status, resp)
				return
			}
			comp = c
			if coalesced {
				s.coalescedReqs.Add(1)
				resp.Coalesced = true
				// The leader already installed the entry; pick it up for
				// tier accounting.
				if e, ok := s.cache.get(key); ok {
					entry = e
				}
			} else {
				entry = s.cache.put(key, comp, 1)
			}
		}
		if tierable {
			resp.Tier = 1
		}
	}
	resp.Funcs = len(comp.Module.Funcs)
	resp.Instrs = comp.Module.NumInstrs()
	resp.TotalMs = float64(comp.Timings.Total.Microseconds()) / 1000
	if comp.Analysis != nil {
		for _, facts := range comp.Analysis.Funcs {
			if facts.Effects.Pure() {
				resp.PureFuncs++
			}
			for _, site := range facts.AllocSites {
				if site.Instr.StackAlloc {
					resp.StackPromoted++
				}
			}
		}
	}

	if !execute {
		resp.OK = true
		s.succeeded.Add(1)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	if comp.Module.Main == nil {
		resp.Error = &ErrorInfo{Kind: "error", Msg: "program has no main function"}
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	// The modeled heap budget applies to every /run; a request may
	// tighten it but not exceed the server cap.
	maxHeap := s.cfg.MaxHeapBytes
	if req.MaxHeap > 0 && req.MaxHeap < maxHeap {
		maxHeap = req.MaxHeap
	}
	var out strings.Builder
	runOpts := core.RunOpts{MaxSteps: req.MaxSteps, MaxHeap: maxHeap, Engine: engineKind}
	var (
		stats  interp.Stats
		prof   *profile.Profile
		runErr error
	)
	// Tier-1 runs of a cache-resident tierable program record profiles;
	// everything else runs plain (zero profiling overhead).
	if tierable && entry != nil && resp.Tier == 1 {
		stats, prof, runErr = comp.RunProfiled(ctx, &out, runOpts)
	} else {
		stats, runErr = comp.RunWith(ctx, &out, runOpts)
	}
	if runErr != nil && engineKind == core.EngineBytecode && isEngineFault(runErr) && ctx.Err() == nil {
		// Self-healing: the pipeline compiled this program cleanly, so
		// an ICE or injected fault here is an engine-execution fault —
		// re-run on the proven-equivalent switch interpreter and record
		// the offender for quarantine. A tiered compilation re-runs as
		// is: the profile-guided module is semantically identical, so
		// the reference interpreter gives the same answer on it. A
		// profile from a faulted run is discarded.
		s.engineFallbacks.Add(1)
		s.fallbacks.record(progHash)
		resp.Fallback = true
		engineKind = core.EngineSwitch
		prof = nil
		out.Reset()
		stats, runErr = comp.RunWith(ctx, &out, core.RunOpts{MaxSteps: req.MaxSteps, MaxHeap: maxHeap, Engine: core.EngineSwitch})
	}
	if prof != nil && entry != nil {
		// The run completed on the bytecode engine (traps and resource
		// stops included — the profile of a partial run is still true).
		// Fold it into the entry; crossing the threshold yields the
		// merged profile and triggers the recompile.
		if tierProf := entry.recordRun(prof, s.cfg.TierAfter); tierProf != nil {
			s.tierUp(cfg, files, req.Files, entry, tierProf)
		}
	}
	resp.Engine = engineKind
	if req.Tenant != "" {
		s.tenants.charge(req.Tenant, stats.Steps, stats.HeapBytes)
	}
	res := core.RunResult{Output: out.String(), Stats: stats, Err: runErr}
	resp.Output = res.Output
	resp.Steps = res.Stats.Steps
	if res.Err != nil {
		var ve *interp.VirgilError
		if errors.As(res.Err, &ve) {
			// A trap is a successful execution of a misbehaving program:
			// the service did its job, the program threw.
			resp.Trap = &TrapInfo{Name: ve.Name, Msg: ve.Msg, Trace: traceLines(ve)}
			s.succeeded.Add(1)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		status := s.classify(r, ctx, res.Err, &resp)
		writeJSON(w, status, resp)
		return
	}
	resp.OK = true
	s.succeeded.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// tierUp recompiles a hot program with its accumulated runtime profile
// and installs the result under the program's tier-2 cache key. It
// runs synchronously on the request that crossed the threshold — a
// recompile is milliseconds, and the inline lifecycle is deterministic
// for tests — but on the server's base context, so a client that
// disconnects mid-tier-up does not waste the profile everyone paid to
// collect. The triggering response still reports tier 1; the next
// request for the program hits the tier-2 artifact.
func (s *Server) tierUp(cfg core.Config, files []core.File, reqFiles []FileJSON, entry *cacheEntry, prof *profile.Profile) {
	cfg.PGO = prof
	comp, err := core.CompileFilesContext(s.baseCtx, files, cfg)
	if err != nil {
		// The program compiled cleanly at tier 1, so this is a server
		// condition (shutdown mid-compile, injected fault). Tier-up is
		// an optimization: drop the attempt and re-arm the entry so the
		// program can earn another one.
		entry.tierDone()
		return
	}
	s.cache.put(cacheKey(cfg, reqFiles, 2), comp, 2)
	s.tierUps.Add(1)
	entry.tierDone()
}

// admit takes an admission slot, waiting in the bounded queue if the
// slots are busy. It reports false — load shed — when the queue is
// full or the client gives up while waiting; queued is the wait-queue
// depth observed at the moment of rejection, which the shed path
// prices into its Retry-After hint.
func (s *Server) admit(ctx context.Context) (release func(), queued int64, admitted bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, true
	default:
	}
	if depth := s.waiting.Add(1); depth > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, depth, false
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, true
	case <-ctx.Done():
		return nil, s.waiting.Load(), false
	case <-s.baseCtx.Done():
		return nil, s.waiting.Load(), false
	}
}

// isEngineFault reports whether a /run error is a fault of the
// bytecode engine itself rather than of the user's program: an ICE
// (translation or execution panic, internal inconsistency) or an
// injected fault at the translate/engine/interp points. Virgil traps
// and resource-guard stops are the program's own behavior and never
// trigger fallback.
func isEngineFault(err error) bool {
	var ice *src.ICE
	return errors.As(err, &ice) || errors.Is(err, faultinject.ErrInjected)
}

// observeDuration folds one request's service time into the EWMA that
// feeds Retry-After estimates (alpha = 1/8).
func (s *Server) observeDuration(d time.Duration) {
	for {
		old := s.avgDurNs.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/8
		}
		if s.avgDurNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// classify maps a pipeline or interpreter error to its structured wire
// form and HTTP status, bumping the matching counter. It never exposes
// a Go stack trace.
func (s *Server) classify(r *http.Request, ctx context.Context, err error, resp *Response) int {
	var list *src.ErrorList
	if errors.As(err, &list) {
		s.diags.Add(1)
		for _, e := range list.Errors {
			d := Diagnostic{Msg: e.Msg}
			if e.Pos.IsValid() {
				d.Pos = e.Pos.String()
			}
			resp.Diagnostics = append(resp.Diagnostics, d)
		}
		return http.StatusOK
	}
	var ice *src.ICE
	if errors.As(err, &ice) {
		s.ices.Add(1)
		resp.Error = &ErrorInfo{Kind: "ice", Stage: ice.Stage, Msg: ice.Error()}
		return http.StatusInternalServerError
	}
	var re *interp.ResourceError
	isCancel := errors.Is(err, context.Canceled)
	isDeadline := errors.Is(err, context.DeadlineExceeded)
	if errors.As(err, &re) && re.Kind == "cancelled" {
		// The step loop saw the ctx end; attribute it like a ctx error.
		if r.Context().Err() != nil || ctx.Err() == context.Canceled {
			isCancel = true
		} else {
			isDeadline = true
		}
	}
	switch {
	case isCancel:
		s.cancelled.Add(1)
		resp.Error = &ErrorInfo{Kind: "cancelled", Msg: "request cancelled"}
		// The client is usually gone; the status is for logs and tests.
		return http.StatusGatewayTimeout
	case isDeadline:
		s.deadlines.Add(1)
		resp.Error = &ErrorInfo{Kind: "deadline", Msg: "request deadline exceeded"}
		return http.StatusGatewayTimeout
	}
	if errors.As(err, &re) {
		// Step budget / interpreter deadline: the program was bounded.
		s.diags.Add(1)
		resp.Error = &ErrorInfo{Kind: "resource", Msg: re.Error()}
		return http.StatusOK
	}
	s.diags.Add(1)
	resp.Error = &ErrorInfo{Kind: "error", Msg: err.Error()}
	return http.StatusUnprocessableEntity
}

func traceLines(ve *interp.VirgilError) []string {
	var out []string
	for _, f := range ve.Trace {
		out = append(out, f.String())
	}
	if ve.Elided > 0 {
		out = append(out, fmt.Sprintf("... %d more frames elided ...", ve.Elided))
	}
	return out
}

func configByName(name string) (core.Config, error) {
	switch name {
	case "", "full":
		return core.Compiled(), nil
	case "ref", "reference":
		return core.Reference(), nil
	case "mono":
		return core.Config{Monomorphize: true}, nil
	case "norm":
		return core.Config{Monomorphize: true, Normalize: true}, nil
	case "opt":
		// The full pipeline without the analysis layer: the config the
		// artifact store serves at function granularity (analysis-driven
		// passes read whole-program state and only get module-level hits).
		return core.Config{Monomorphize: true, Normalize: true, Optimize: true}, nil
	}
	return core.Config{}, fmt.Errorf("unknown config %q (want ref, mono, norm, opt, or full)", name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The connection is gone; nothing useful to do.
		_ = err
	}
}
