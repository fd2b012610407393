// Command bench runs the repository's benchmarks through
// testing.Benchmark and records the results as a JSON snapshot, so perf
// numbers land with the machine context needed to interpret them. The
// E-series, engine, tiering and analysis rows come from the experiment
// table in internal/experiments; the incremental, service, containment
// and cluster rows are defined here.
//
// Usage:
//
//	go run ./cmd/bench                 # full run, writes BENCH_<date>.json
//	go run ./cmd/bench -short          # small workloads, for CI
//	go run ./cmd/bench -short -check   # also enforce the -check gates
//	go run ./cmd/bench -out FILE.json  # explicit output path
//	go run ./cmd/bench -report         # print EXPERIMENTS.md to stdout
//
// -check judges every gate of the table in gates.go: the engine's E5
// speedup, the tiered geomean, the heap reduction on each churn
// workload, the analysis compile overhead, the incremental edit1
// speedup and the three cluster SLOs. It prints one pass or fail line
// per gate, after the snapshot is written, and exits 1 if and only if
// some gate failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/loadgen"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/testprogs"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Base names the row this one is compared with, and Speedup is the
	// base row's time divided by this row's.
	Base    string  `json:"base,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
}

type report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Short      bool     `json:"short"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []result `json:"benchmarks"`
	// Analysis records the modeled-heap payoff of the analysis layer on
	// the churn workloads: one deterministic run each, not a timing.
	Analysis []heapRow `json:"analysis,omitempty"`
	// Cluster records fleet-level SLO measurements: loadgen runs against
	// an in-process 3-instance cluster, with and without a mid-run
	// instance kill. -check gates the chaos p99 against the no-fault
	// p99 and the structured-error invariant.
	Cluster []clusterRow `json:"cluster,omitempty"`
}

// clusterRow is one loadgen scenario against an in-process fleet.
type clusterRow struct {
	Name          string  `json:"name"`
	Sent          int64   `json:"sent"`
	AnsweredPct   float64 `json:"answered_pct"`
	NonStructured int64   `json:"non_structured"`
	Degraded      int64   `json:"degraded"`
	Forwarded     int64   `json:"forwarded"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// heapRow is the modeled heap charge of one workload compiled with and
// without the analysis layer; -check enforces the reduction floor.
type heapRow struct {
	Name         string  `json:"name"`
	HeapBytesOff int64   `json:"heap_bytes_off"`
	HeapBytesOn  int64   `json:"heap_bytes_on"`
	ReductionPct float64 `json:"reduction_pct"`
}

// bench is one named entry in the flat benchmark table.
// testing.Benchmark does not aggregate b.Run sub-benchmarks, so the
// table is flat: one entry per (workload, config) point. base names the
// earlier row this one's speedup is taken against.
type bench struct {
	name, base string
	fn         func(b *testing.B)
}

// timeSide benchmarks one operation of an experiment-table side: one
// run of the program built beforehand, or one compile of its source.
func timeSide(s experiments.Side, op experiments.Op) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		if op == experiments.Compile {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(s.Prog.Name+".v", s.Prog.Source, s.Config); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		comp, err := s.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := comp.RunTo(io.Discard, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// incrFiles builds the two-file incremental corpus: the big generated
// module plus the small probe file the edit1 series rewrites. The
// split mirrors a real project layout — an edit lands in one file
// while the rest are untouched — which lets the store's parse cache
// hand back the big file's AST without reparsing it.
func incrFiles(src string, probe int) []core.File {
	return []core.File{
		{Name: "gen.v", Source: src},
		{Name: "edit.v", Source: fmt.Sprintf("def __bench_probe() -> int { return %d; }\n", probe)},
	}
}

// incrCold benchmarks a from-scratch compile through the incremental
// entry point with an empty store: the denominator of the edit1 gate.
func incrCold(src string, cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		files := incrFiles(src, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st, err := core.CompileFilesIncremental(context.Background(), files, cfg, core.NewStore(2))
			if err != nil {
				b.Fatal(err)
			}
			if st.Mode != core.ModeCold {
				b.Fatalf("mode %s, want %s", st.Mode, core.ModeCold)
			}
		}
	}
}

// incrEdit1 benchmarks recompiling after a one-function edit against a
// warm artifact store. Every iteration changes the probe function's
// body again, so each compile is a genuine one-function delta against
// the base left by the previous iteration — never a module hit.
func incrEdit1(src string, cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		ctx := context.Background()
		store := core.NewStore(2)
		if _, _, err := core.CompileFilesIncremental(ctx, incrFiles(src, 0), cfg, store); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := core.CompileFilesIncremental(ctx, incrFiles(src, i+1), cfg, store)
			if err != nil {
				b.Fatal(err)
			}
			if st.Mode != core.ModeIncremental {
				b.Fatalf("iteration %d: mode %s, want %s", i, st.Mode, core.ModeIncremental)
			}
		}
	}
}

// incrWarm benchmarks the unchanged-source path: a whole-module store
// hit that shares the base compilation outright.
func incrWarm(src string, cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		ctx := context.Background()
		store := core.NewStore(2)
		files := incrFiles(src, 0)
		if _, _, err := core.CompileFilesIncremental(ctx, files, cfg, store); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := core.CompileFilesIncremental(ctx, files, cfg, store)
			if err != nil {
				b.Fatal(err)
			}
			if st.Mode != core.ModeModuleHit {
				b.Fatalf("mode %s, want %s", st.Mode, core.ModeModuleHit)
			}
		}
	}
}

// reportRuns is how many times -report measures each side, keeping the
// fastest: one testing.Benchmark run on a shared machine can catch a
// pause that has nothing to do with the side.
const reportRuns = 3

// size is the experiment-table size of a run.
func size(short bool) experiments.Size {
	if short {
		return experiments.Short
	}
	return experiments.Full
}

// table builds the benchmark list. Short mode shrinks every workload
// so a CI run finishes in seconds.
func table(short bool) []bench {
	sz := size(short)
	scale := sz.Scale
	exp := experiments.New(sz)

	var t []bench
	add := func(name, base string, fn func(b *testing.B)) { t = append(t, bench{name, base, fn}) }

	// Each experiment row's base side runs first, so its test side can
	// carry the speedup. -check gates the Engine_E5, Tiered_E{1,3,5} and
	// Analysis_Compile pairs. E4 and the ablation are left to -report and
	// go test -bench. The series run in this order so that each gated
	// row follows the same kind of work as it always has: the execution
	// rows before the compile-heavy ones.
	timed := func(ids ...string) {
		for _, r := range exp.Rows(ids...) {
			base := r.Name + "/" + r.Base.Label
			add(base, "", timeSide(r.Base, r.Op))
			add(r.Name+"/"+r.Test.Label, base, timeSide(r.Test, r.Op))
		}
	}
	timed("E1", "E2", "E3", "E5", "E6", "Engine", "Tiered")
	// End to end through the service: a warm /run of the E6 matcher after
	// it has tiered up vs on a server with tiering disabled. HTTP and JSON
	// overhead ride along, so this row is informational, not part of the
	// geomean gate.
	matcher := exp.Rows("E6")[0].Base.Prog
	add("Tiered_ServeWarm/untiered", "", serveWarmRun(-1, matcher))
	add("Tiered_ServeWarm/tiered", "Tiered_ServeWarm/untiered", serveWarmRun(2, matcher))

	// Containment latency: how fast the modeled heap budget stops a
	// runaway allocator. One op is one full run ending in !HeapExhausted;
	// informational, not gated by -check.
	add("E8_HeapContainment/array_growth", "", heapContainment("array_growth", 1<<20, core.Compiled()))
	add("E8_HeapContainment/string_concat", "", heapContainment("string_concat", 1<<16, core.Compiled()))

	timed("Analysis")
	timed("E7")

	// Incremental series on its own corpus: the largest generated
	// program extended with straight-line call chains, which weight the
	// workload toward backend optimization the way a real optimizing
	// build is weighted (every optimizer round splices one more level
	// into each chain caller, so the cold side pays inlining costs a
	// one-function edit never re-pays). cold is a from-scratch compile
	// through the incremental entry point, edit1 recompiles after a
	// one-function edit against a warm store, warm is the
	// unchanged-source module hit. Uses the analysis-free optimized
	// config — the one the store serves at function granularity. -check
	// enforces the edit1 floor.
	ip := progen.Scale(scale)
	ip.Chains = 40 * scale
	ip.ChainDepth = 16
	incrSrc := progen.Generate(ip)
	incrCfg := core.Config{Monomorphize: true, Normalize: true, Optimize: true}
	add("CompileIncremental/cold", "", incrCold(incrSrc, incrCfg))
	add("CompileIncremental/edit1", "CompileIncremental/cold", incrEdit1(incrSrc, incrCfg))
	add("CompileIncremental/warm", "CompileIncremental/cold", incrWarm(incrSrc, incrCfg))
	for _, c := range concCounts() {
		add(fmt.Sprintf("ServeThroughput/conc=%d", c), "", serveThroughput(c, scale))
	}
	return t
}

// analysisHeapRows records the modeled heap charge of each Analysis run
// row's two builds, without and with the analysis layer. The runs are
// deterministic, so one of each is exact.
func analysisHeapRows(short bool) ([]heapRow, error) {
	var rows []heapRow
	for _, r := range experiments.New(size(short)).Rows("Analysis") {
		if r.Op != experiments.Run {
			continue
		}
		off, err := r.Base.Count(r.Op)
		if err != nil {
			return nil, err
		}
		on, err := r.Test.Count(r.Op)
		if err != nil {
			return nil, err
		}
		row := heapRow{Name: "Analysis_Heap/" + r.Base.Prog.Name, HeapBytesOff: off.Heap, HeapBytesOn: on.Heap}
		if off.Heap > 0 {
			row.ReductionPct = 100 * float64(off.Heap-on.Heap) / float64(off.Heap)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// clusterScenario runs the run-heavy loadgen mix against a fresh
// in-process 3-instance fleet for dur. With kill, instance 2 is
// abruptly killed at dur/3 and restarted at 2*dur/3 — the chaos
// schedule the Cluster_* SLO rows are defined over.
func clusterScenario(name string, kill bool, dur time.Duration) (clusterRow, error) {
	f, err := cluster.StartLocal(3, serve.Config{},
		cluster.Config{PeerTimeout: 500 * time.Millisecond, Attempts: 2, BreakerCooldown: 250 * time.Millisecond})
	if err != nil {
		return clusterRow{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Stop(ctx)
	}()
	if kill {
		victim := f.Nodes[2]
		go func() {
			time.Sleep(dur / 3)
			victim.Kill()
			time.Sleep(dur / 3)
			_ = victim.Restart()
		}()
	}
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Targets:     f.URLs(),
		Mix:         progen.MixRunHeavy,
		Duration:    dur,
		Concurrency: 4,
		Seed:        1,
	})
	if err != nil {
		return clusterRow{}, err
	}
	return clusterRow{
		Name:          name,
		Sent:          res.Sent,
		AnsweredPct:   100 * res.AnsweredRatio(),
		NonStructured: res.NonStructured,
		Degraded:      res.Degraded,
		Forwarded:     res.Forwarded,
		P50Ms:         res.P50Ms,
		P99Ms:         res.P99Ms,
	}, nil
}

// clusterRows measures the fleet SLO scenarios: the same traffic with
// and without an instance kill mid-run.
func clusterRows(short bool) ([]clusterRow, error) {
	dur := 8 * time.Second
	if short {
		dur = 3 * time.Second
	}
	nofault, err := clusterScenario(nofaultRow, false, dur)
	if err != nil {
		return nil, err
	}
	chaos, err := clusterScenario(killRow, true, dur)
	if err != nil {
		return nil, err
	}
	return []clusterRow{nofault, chaos}, nil
}

// heapContainment benchmarks time-to-!HeapExhausted for one of the
// memory-hungry adversarial programs under a small modeled heap budget.
func heapContainment(name string, maxHeap int64, cfg core.Config) func(b *testing.B) {
	return func(b *testing.B) {
		cfg.MaxHeap = maxHeap
		comp, err := core.Compile(name+".v", progen.Hungry()[name], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := comp.RunTo(io.Discard, 0)
			var ve *interp.VirgilError
			if !errors.As(err, &ve) || ve.Name != interp.HeapExhausted {
				b.Fatalf("want %s, got %v", interp.HeapExhausted, err)
			}
		}
	}
}

// serveWarmRun measures one warm /run request through the HTTP service
// for a virtual-dispatch-heavy program. With tierAfter > 0 the warmup
// drives the program past the tier-up threshold and every measured
// request serves the tier-2 artifact; with tierAfter < 0 tiering is
// disabled and the same warm program serves its plain compilation.
func serveWarmRun(tierAfter int, p testprogs.Prog) func(b *testing.B) {
	return func(b *testing.B) {
		s := serve.New(serve.Config{TierAfter: tierAfter})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := json.Marshal(serve.Request{
			Files: []serve.FileJSON{{Name: p.Name + ".v", Source: p.Source}},
		})
		if err != nil {
			b.Fatal(err)
		}
		post := func() serve.Response {
			httpResp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			defer httpResp.Body.Close()
			var resp serve.Response
			if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
				b.Fatal(err)
			}
			if !resp.OK {
				b.Fatalf("run failed: %+v", resp)
			}
			return resp
		}
		// Warm past the threshold (or just warm the cache when disabled).
		var last serve.Response
		for i := 0; i < 3; i++ {
			last = post()
		}
		if tierAfter > 0 && last.Tier != 2 {
			b.Fatalf("warmup did not tier up: tier = %d", last.Tier)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	}
}

// serveThroughput measures end-to-end requests through the HTTP
// service — admission, JSON decode, compile, JSON encode — with c
// concurrent clients against an in-process server. One benchmark op is
// one completed /compile request.
func serveThroughput(c, scale int) func(b *testing.B) {
	return func(b *testing.B) {
		s := serve.New(serve.Config{MaxConcurrent: c, QueueDepth: 2 * c})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := json.Marshal(serve.Request{
			Files: []serve.FileJSON{{Name: "gen.v", Source: progen.Generate(progen.Scale(scale / 2))}},
		})
		if err != nil {
			b.Fatal(err)
		}

		b.ReportAllocs()
		b.ResetTimer()
		var (
			wg       sync.WaitGroup
			firstErr error
			errOnce  sync.Once
		)
		work := make(chan struct{})
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range work {
					resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errOnce.Do(func() { firstErr = fmt.Errorf("status %d", resp.StatusCode) })
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			work <- struct{}{}
		}
		close(work)
		wg.Wait()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
	}
}

// concCounts is the client-concurrency ladder for ServeThroughput: 1,
// 4, NumCPU, deduplicated and ordered.
func concCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if !seen[c] && c >= 1 {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func main() {
	short := flag.Bool("short", false, "shrink workloads for a quick CI run")
	check := flag.Bool("check", false, "exit nonzero if any -check gate fails")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	benchtime := flag.String("benchtime", "", "per-benchmark measuring time (default 1s, 200ms with -short)")
	reportMode := flag.Bool("report", false, "print the experiment table with timings on both engines as markdown; write no snapshot")
	testing.Init()
	flag.Parse()

	bt := *benchtime
	if bt == "" {
		bt = "1s"
		if *short {
			bt = "200ms"
		}
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	rep := report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Short:      *short,
		Benchtime:  bt,
	}

	if *reportMode {
		sz := size(*short)
		head := fmt.Sprintf("Measured %s with %s on %s/%s, num_cpu=%d, gomaxprocs=%d; n=%d, progen scale %d; "+
			"each time is the best ns/op of %d testing.Benchmark runs at benchtime %s.",
			rep.Date, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NumCPU, rep.GOMAXPROCS, sz.N, sz.Scale, reportRuns, bt)
		timer := func(s experiments.Side, op experiments.Op) (float64, error) {
			best := math.Inf(1)
			for i := 0; i < reportRuns; i++ {
				res, ok := measure(s.Label, timeSide(s, op))
				if !ok {
					return 0, errors.New("benchmark produced no iterations (failed?)")
				}
				best = math.Min(best, res.NsPerOp)
			}
			return best, nil
		}
		if err := experiments.New(sz).Report(os.Stdout, head, timer); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	nsByName := map[string]float64{}
	fnByName := map[string]func(*testing.B){}
	for _, entry := range table(*short) {
		fnByName[entry.name] = entry.fn
		res, ok := measure(entry.name, entry.fn)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s produced no iterations (failed?)\n", entry.name)
			os.Exit(1)
		}
		nsByName[entry.name] = res.NsPerOp
		if entry.base != "" {
			res.Base, res.Speedup = entry.base, nsByName[entry.base]/res.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Printf("%-34s %12.0f ns/op %9d allocs/op\n", entry.name, res.NsPerOp, res.AllocsPerOp)
	}

	heapRows, err := analysisHeapRows(*short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Analysis = heapRows
	for _, r := range heapRows {
		fmt.Printf("%-34s %12d -> %d heap bytes (%.1f%% reduction)\n",
			r.Name, r.HeapBytesOff, r.HeapBytesOn, r.ReductionPct)
	}

	clRows, err := clusterRows(*short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Cluster = clRows
	for _, r := range clRows {
		fmt.Printf("%-34s %8d sent  %.2f%% answered  p50=%.1fms p99=%.1fms  degraded=%d\n",
			r.Name, r.Sent, r.AnsweredPct, r.P50Ms, r.P99Ms, r.Degraded)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)

	if *check {
		// remeasure runs the named benchmark rows again, and both
		// cluster scenarios once if either is named.
		remeasure := func(rows []string) *samples {
			var fresh report
			clustered := false
			for _, row := range rows {
				if res, ok := measure(row, fnByName[row]); ok {
					fresh.Benchmarks = append(fresh.Benchmarks, res)
				} else if (row == nofaultRow || row == killRow) && !clustered {
					clustered = true
					fresh.Cluster, _ = clusterRows(*short) // on error the old samples stand
				}
			}
			return newSamples(fresh)
		}
		os.Exit(runGates(os.Stdout, gates, newSamples(rep), remeasure))
	}
}

// measure runs one benchmark row; ok is false when fn is nil or
// produced no iterations.
func measure(name string, fn func(*testing.B)) (res result, ok bool) {
	if fn == nil {
		return result{}, false
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return result{}, false
	}
	return result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, true
}
