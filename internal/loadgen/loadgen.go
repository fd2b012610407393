// Package loadgen replays progen traffic mixes against a fleet of
// virgil-serve instances and reports latency percentiles plus a full
// error taxonomy. It is the measurement half of the cluster chaos
// harness: cmd/loadgen drives it from the command line, cmd/bench
// drives it for the Cluster_* BENCH series, and the CI cluster smoke
// job gates on its structured-error invariant.
//
// The generator is deliberately a *client*: it talks to the fleet over
// real HTTP, fails over to another target when a connection dies (a
// killed instance is the client's problem to route around), and
// classifies every byte it gets back. The core invariant it measures —
// the one the cluster tier promises — is that every answered request
// is structured JSON: a Go stack trace or a bare-string error in a
// response body counts as NonStructured, the red metric that must stay
// zero through any chaos schedule.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/progen"
	"repro/internal/serve"
)

// Options configures one load-generation run.
type Options struct {
	// Targets are the fleet entry points (base URLs).
	Targets []string
	// Mix names the progen traffic mix to replay (see progen.MixNames).
	Mix string
	// Duration bounds the run (default 5s). The run also stops when the
	// context does.
	Duration time.Duration
	// Concurrency is the number of client workers (default 4).
	Concurrency int
	// RequestTimeout bounds one request round-trip (default 15s).
	RequestTimeout time.Duration
	// Seed makes the weighted item choice deterministic per worker.
	Seed int64
	// MaxRequests optionally bounds the total number of requests
	// (0 = unbounded; the duration is the only stop).
	MaxRequests int64
}

// Result is the aggregated outcome of a run.
type Result struct {
	Mix      string        `json:"mix"`
	Targets  int           `json:"targets"`
	Duration time.Duration `json:"duration"`

	Sent     int64 `json:"sent"`
	Answered int64 `json:"answered"` // got any HTTP response that parsed as structured JSON
	// Unanswered counts requests no fleet target would answer even
	// after failover — the availability failures.
	Unanswered int64 `json:"unanswered"`
	// Failovers counts transport-level retries against another target
	// (connection refused/reset by a killed instance).
	Failovers int64 `json:"failovers"`
	// NonStructured counts responses whose body was not structured
	// JSON, or leaked a Go stack. The invariant metric: must be zero.
	NonStructured int64 `json:"non_structured"`
	// Mismatches counts items whose ok-ness disagreed with the mix's
	// expectation (e.g. a crasher that "succeeded", a clean program
	// that failed for a non-capacity reason).
	Mismatches int64 `json:"mismatches"`

	// Taxonomy: HTTP status -> count, error kind -> count, and the
	// cluster-path counters observed in response decorations.
	Status    map[string]int64 `json:"status"`
	Kinds     map[string]int64 `json:"kinds,omitempty"`
	Forwarded int64            `json:"forwarded"`
	Degraded  int64            `json:"degraded"`

	// Latency percentiles over answered requests.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// SampleErrors holds a few representative failures for triage.
	SampleErrors []string `json:"sample_errors,omitempty"`
}

// AnsweredRatio is the fraction of sent requests that got a structured
// answer from some target.
func (r Result) AnsweredRatio() float64 {
	if r.Sent == 0 {
		return 1
	}
	return float64(r.Answered) / float64(r.Sent)
}

// Run replays the mix against the targets until the duration elapses.
func Run(ctx context.Context, opts Options) (Result, error) {
	if len(opts.Targets) == 0 {
		return Result{}, fmt.Errorf("loadgen: no targets")
	}
	if opts.Mix == "" {
		opts.Mix = progen.MixMixed
	}
	items, ok := progen.Mixes()[opts.Mix]
	if !ok {
		return Result{}, fmt.Errorf("loadgen: unknown mix %q (have %s)", opts.Mix, strings.Join(progen.MixNames(), ", "))
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}

	ctx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	client := &http.Client{Timeout: opts.RequestTimeout}
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	res := Result{
		Mix: opts.Mix, Targets: len(opts.Targets),
		Status: map[string]int64{}, Kinds: map[string]int64{},
	}
	var latencies []time.Duration
	var budget int64 // remaining requests when MaxRequests > 0

	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			for n := 0; ctx.Err() == nil; n++ {
				if opts.MaxRequests > 0 {
					mu.Lock()
					if budget >= opts.MaxRequests {
						mu.Unlock()
						return
					}
					budget++
					mu.Unlock()
				}
				item := pickWeighted(rng, items)
				out := oneRequest(ctx, client, opts.Targets, (w+n)%len(opts.Targets), item)
				mu.Lock()
				res.Sent++
				res.Failovers += out.failovers
				if out.err != "" && len(res.SampleErrors) < 8 {
					res.SampleErrors = append(res.SampleErrors, out.err)
				}
				switch {
				case out.nonStructured:
					res.NonStructured++
				case !out.answered:
					// A request cancelled by the run's own deadline is not
					// an availability failure; anything else is.
					if ctx.Err() == nil {
						res.Unanswered++
					} else {
						res.Sent--
					}
				default:
					res.Answered++
					res.Status[fmt.Sprintf("%d", out.status)]++
					if out.kind != "" {
						res.Kinds[out.kind]++
					}
					if out.mismatch {
						res.Mismatches++
					}
					if out.forwarded {
						res.Forwarded++
					}
					if out.degraded {
						res.Degraded++
					}
					latencies = append(latencies, out.latency)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	res.Duration = opts.Duration
	res.P50Ms = percentileMs(latencies, 0.50)
	res.P90Ms = percentileMs(latencies, 0.90)
	res.P99Ms = percentileMs(latencies, 0.99)
	res.MaxMs = percentileMs(latencies, 1.0)
	return res, nil
}

// outcome is one request's classified result.
type outcome struct {
	answered      bool
	nonStructured bool
	mismatch      bool
	status        int
	kind          string
	forwarded     bool
	degraded      bool
	latency       time.Duration
	failovers     int64
	err           string
}

// oneRequest sends item to the fleet, failing over across targets on
// transport errors, and classifies whatever comes back.
func oneRequest(ctx context.Context, client *http.Client, targets []string, first int, item progen.TrafficItem) outcome {
	body, err := json.Marshal(serve.Request{
		Files:    []serve.FileJSON{{Name: item.FileName, Source: item.Source}},
		Tenant:   item.Tenant,
		MaxSteps: item.MaxSteps,
		MaxHeap:  item.MaxHeap,
	})
	if err != nil {
		return outcome{err: "marshal: " + err.Error()}
	}
	var out outcome
	start := time.Now()
	// Two passes over the targets: a request that lands on a dying
	// connection retries everywhere once more before giving up.
	for try := 0; try < 2*len(targets); try++ {
		if ctx.Err() != nil {
			return out
		}
		if try > 0 {
			out.failovers++
		}
		url := targets[(first+try)%len(targets)] + item.Path
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if rerr != nil {
			out.err = "request: " + rerr.Error()
			return out
		}
		req.Header.Set("Content-Type", "application/json")
		httpRes, derr := client.Do(req)
		if derr != nil {
			out.err = "transport: " + derr.Error()
			continue // dead or stalling target; fail over
		}
		raw, rerr2 := io.ReadAll(io.LimitReader(httpRes.Body, 64<<20))
		httpRes.Body.Close()
		if rerr2 != nil {
			out.err = "read: " + rerr2.Error()
			continue // connection died mid-body; fail over
		}
		out.latency = time.Since(start)
		out.status = httpRes.StatusCode
		if bytes.Contains(raw, []byte("goroutine ")) {
			out.nonStructured = true
			out.err = fmt.Sprintf("%s: stack leak in response: %.120q", item.Name, raw)
			return out
		}
		var resp serve.Response
		if jerr := json.Unmarshal(raw, &resp); jerr != nil {
			out.nonStructured = true
			out.err = fmt.Sprintf("%s: non-JSON response (status %d): %.120q", item.Name, httpRes.StatusCode, raw)
			return out
		}
		out.answered = true
		if resp.Error != nil {
			out.kind = resp.Error.Kind
		}
		out.forwarded = resp.ForwardedFrom != ""
		out.degraded = resp.Degraded
		out.mismatch = classifyMismatch(item, httpRes.StatusCode, resp)
		if out.mismatch {
			out.err = fmt.Sprintf("%s: expectation mismatch (status %d ok=%v kind=%s)", item.Name, httpRes.StatusCode, resp.OK, out.kind)
		}
		return out
	}
	return out
}

// classifyMismatch reports whether the answer disagrees with the
// item's healthy-path expectation. Capacity and quota pushback (429)
// and drain rejections (503) are legitimate answers for any item under
// load, never mismatches.
func classifyMismatch(item progen.TrafficItem, status int, resp serve.Response) bool {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return false
	}
	if item.WantOK {
		return !resp.OK
	}
	// Crashers/diagnostics/hungry: ok:false with a structured trap,
	// diagnostic, or resource error. A clean success is the mismatch.
	return resp.OK
}

func pickWeighted(rng *rand.Rand, items []progen.TrafficItem) progen.TrafficItem {
	total := 0
	for _, it := range items {
		total += max(it.Weight, 1)
	}
	n := rng.Intn(total)
	for _, it := range items {
		n -= max(it.Weight, 1)
		if n < 0 {
			return it
		}
	}
	return items[len(items)-1]
}

func percentileMs(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
