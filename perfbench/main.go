// Command perfbench is the repository benchmark. It drives the compiler
// and runtime only through the public functions of their packages, runs
// one named workload for a fixed time, checks every output against a
// source independent of the compiler under test, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	perfbench --workload compile-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the
// spans are written to --spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run builds its workload state at least setupRepeats times and until
// setupTime has passed in set-up, at most maxSetups times; the reported
// setup_s is the median, and the last state is measured. Short set-ups
// repeat more often, so their median is as steady as a long one's.
const (
	setupRepeats = 5
	setupTime    = time.Second
	maxSetups    = 100
)

// workload is one named input set. setup builds fresh state from the
// seed; the returned state runs the timed window.
type workload struct {
	name  string
	setup func(seed int64) (state, error)
}

// state is a workload ready to measure.
type state interface {
	// measure runs the timed window until the deadline. With tr non-nil
	// it alternates untraced and traced operations and records spans.
	measure(deadline time.Time, tr *tracer) (*window, error)
	// verify checks every output recorded in the window against the
	// independent reference, counting mismatched ops on w; the error
	// reports a problem with the run as a whole.
	verify(w *window) error
	// layers fills the per-layer metrics of a traced window.
	layers(w *window, tr *tracer, m metrics)
	// close releases the state's resources (servers, listeners).
	close()
}

var workloads = []workload{
	{"compile-cold", setupCompileCold},
	{"run-hot", setupRunHot},
	{"edit-loop", setupEditLoop},
	{"serve-mixed", setupServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: compile-cold, run-hot, edit-loop, serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated input sequence")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, spansDir string) (*result, error) {
	wl, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	var st state
	var setups []float64
	var spent time.Duration
	for len(setups) < setupRepeats || (spent < setupTime && len(setups) < maxSetups) {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := wl.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		st = s
	}
	defer st.close()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC()
	w, err := st.measure(time.Now().Add(time.Duration(seconds)*time.Second), tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := st.verify(w); err != nil {
		w.problems = append(w.problems, err.Error())
	}
	for _, p := range w.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check:", p)
	}

	m := metrics{}
	if traced {
		for _, n := range perLayerNames() {
			m.set(n, 0, perLayerUnit(n))
		}
		st.layers(w, tr, m)
		w.runtimeLayers(m)
		m.set("error_pct", w.errorPct(), "%")
		if err := tr.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	} else if err := w.endToEnd(m, median(setups)); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &result{
		Correct:   w.failed == 0 && len(w.problems) == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   m,
	}, nil
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// perLayerUnits lists every per-layer metric a traced run reports, in
// report order, with its unit, except engine.run_ms.<name> for each
// run-hot program. A layer a workload does not reach reads 0.
var perLayerUnits = [][2]string{
	{"parser.ms_per_op", "ms"}, {"parser.klines_per_s", "klines/s"},
	{"typecheck.ms_per_op", "ms"},
	{"lower.ms_per_op", "ms"}, {"lower.instrs", "count"},
	{"mono.ms_per_op", "ms"}, {"mono.expansion", "ratio"}, {"mono.instrs", "count"},
	{"norm.ms_per_op", "ms"}, {"norm.tuples_eliminated", "count"},
	{"opt.ms_per_op", "ms"}, {"opt.instrs", "count"}, {"opt.inlined", "count"},
	{"opt.devirtualized", "count"}, {"opt.stack_promoted", "count"},
	{"analysis.ms_per_op", "ms"},
	{"ir.validate_ms_per_op", "ms"},
	{"engine.translate_ms", "ms"}, {"engine.run_ms_per_op", "ms"}, {"engine.msteps_per_s", "Msteps/s"},
	{"interp.steps_per_op", "count"}, {"interp.calls_per_op", "count"}, {"interp.heap_kb_per_op", "KiB"},
	{"core.incr_ms_per_op", "ms"}, {"core.incr_reuse_pct", "%"},
	{"core.incr_recompiled_per_op", "count"}, {"core.incr_fallback_pct", "%"},
	{"serve.hit_pct", "%"}, {"serve.tier2_pct", "%"}, {"serve.coalesced_pct", "%"},
	{"serve.shed_pct", "%"}, {"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"},
	{"gc.cpu_pct", "%"}, {"gc.cycles_per_op", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.coverage_pct", "%"},
	{"error_pct", "%"},
}

func perLayerNames() []string {
	var names []string
	for _, nu := range perLayerUnits {
		names = append(names, nu[0])
	}
	for _, p := range runHotSet {
		names = append(names, "engine.run_ms."+p.name)
	}
	return names
}

func perLayerUnit(name string) string {
	if strings.HasPrefix(name, "engine.run_ms.") {
		return "ms"
	}
	for _, nu := range perLayerUnits {
		if nu[0] == name {
			return nu[1]
		}
	}
	return "count"
}

// window is what one timed window measured.
type window struct {
	// lat holds each op's latency in ms, in op order.
	lat []float64
	// traced marks the ops of lat that ran traced (trace mode only).
	traced    []bool
	attempted int
	failed    int
	problems  []string
	// blocks split the window into windowBlocks equal time slices; the
	// end-to-end rates and the p50 and p90 are medians over them.
	blocks []block
	// proc covers the whole window.
	proc procSnap
	// codeSize is the IR instruction count of one pass of the program
	// set (code_size_instrs).
	codeSize int
	// lag holds the open-loop generator's send lateness in ms.
	lag []float64
}

// windowBlocks is how many time slices a window is cut into. The median
// over slices keeps a few seconds of interference from another process
// on the machine out of the reported figure.
const windowBlocks = 5

// block is one time slice of a window.
type block struct {
	lat []float64 // latencies in ms of the ops that fell in the slice
	// busy is the wall time ops were outstanding: the whole slice for a
	// closed loop, the union of request intervals for an open one.
	busy time.Duration
	proc procSnap
}

// blockEdges returns the end times of the window's slices.
func blockEdges(start, deadline time.Time) []time.Time {
	edges := make([]time.Time, windowBlocks)
	for k := range edges {
		edges[k] = start.Add(deadline.Sub(start) * time.Duration(k+1) / windowBlocks)
	}
	edges[windowBlocks-1] = deadline
	return edges
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

func (w *window) errorPct() float64 {
	if w.attempted == 0 {
		return 0
	}
	return 100 * float64(w.failed) / float64(w.attempted)
}

// endToEnd fills the end-to-end metrics of an untraced window. Rates
// and the p50 and p90 are medians over the window's slices; the p99
// needs the whole window's samples.
func (w *window) endToEnd(m metrics, setupS float64) error {
	if len(w.lat) == 0 {
		return errors.New("no operation completed in the window")
	}
	var err error
	check := func(v float64, e error) float64 {
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	perBlock := func(f func(b block) (float64, error)) float64 {
		var vals []float64
		for _, b := range w.blocks {
			vals = append(vals, check(f(b)))
		}
		return median(vals)
	}
	pct := func(p float64) func(b block) (float64, error) {
		return func(b block) (float64, error) { return percentile(b.lat, p) }
	}
	perOp := func(b block) float64 { return float64(max(len(b.lat), 1)) }
	m.set("throughput_ops_s", perBlock(func(b block) (float64, error) { return float64(len(b.lat)) / b.busy.Seconds(), nil }), "1/s")
	m.set("latency_p50_ms", perBlock(pct(50)), "ms")
	m.set("latency_p90_ms", perBlock(pct(90)), "ms")
	m.set("latency_p99_ms", check(percentile(w.lat, 99)), "ms")
	m.set("cpu_ms_per_op", perBlock(func(b block) (float64, error) { return b.proc.cpu.Seconds() * 1000 / perOp(b), nil }), "ms")
	m.set("alloc_mb_per_op", perBlock(func(b block) (float64, error) { return float64(b.proc.allocBytes) / perOp(b) / (1 << 20), nil }), "MiB")
	m.set("peak_rss_mb", peakRSSMiB(), "MiB")
	m.set("code_size_instrs", float64(w.codeSize), "count")
	m.set("setup_s", setupS, "s")
	return err
}

// runtimeLayers fills the benchmark-side runtime metrics of a traced
// window: GC share and cycles, and the tracing overhead.
func (w *window) runtimeLayers(m metrics) {
	ops := len(w.lat)
	if ops == 0 {
		return
	}
	if w.proc.totalCPU > 0 {
		m.set("gc.cpu_pct", 100*w.proc.gcCPU/w.proc.totalCPU, "%")
	}
	m.set("gc.cycles_per_op", float64(w.proc.gcCycles)/float64(ops), "count")
	var on, off []float64
	for i, l := range w.lat {
		if w.traced[i] {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		m.set("trace.overhead_pct", 100*(mean(on)/mean(off)-1), "%")
	}
	if len(w.lag) > 0 {
		if v, err := percentile(w.lag, 99); err == nil {
			m.set("loadgen.lag_p99_ms", v, "ms")
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
