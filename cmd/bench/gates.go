package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// bound is a gate's limit and its direction.
type bound struct {
	op    string // ">=" or "<="
	limit float64
}

func atLeast(v float64) bound { return bound{">=", v} }
func atMost(v float64) bound  { return bound{"<=", v} }

// holds reports whether v is within the bound. NaN never is.
func (b bound) holds(v float64) bool {
	if b.op == ">=" {
		return v >= b.limit
	}
	return v <= b.limit
}

// gate is one -check entry. value turns the rows it reads into one
// number, which must stay within bound. While the gate fails, its rows
// are re-measured up to remeasures times, each row keeping its best
// sample.
type gate struct {
	name       string
	rows       []string
	value      func(s *samples, rows []string) float64
	unit       string // "x" for a ratio, "%" for a percentage, "" for a count
	bound      bound
	remeasures int
}

const (
	nofaultRow = "Cluster_RunHeavy/nofault"
	killRow    = "Cluster_RunHeavy/kill"
)

// gates is the -check table. Each ratio's rows run in the same process,
// so none depends on drift between snapshots.
var gates = []gate{
	// E5, the print1 query chain, is the workload the bytecode engine
	// was built to win: calls, global loads, fused arithmetic and
	// compare-branches in a tight scalar loop.
	{name: "engine E5 bytecode vs switch", rows: []string{"Engine_E5_Print1/switch", "Engine_E5_Print1/bytecode"},
		value: nsRatio, unit: "x", bound: atLeast(2.0), remeasures: 2},
	// The tier-2 artifacts against the plain bytecode builds.
	{name: "tiered geomean E1,E3,E5", rows: []string{
		"Tiered_E1_TupleSmall/untiered", "Tiered_E1_TupleSmall/tiered",
		"Tiered_E3_HashMap/untiered", "Tiered_E3_HashMap/tiered",
		"Tiered_E5_Print1/untiered", "Tiered_E5_Print1/tiered",
	}, value: nsRatio, unit: "x", bound: atLeast(1.15), remeasures: 2},
	// Escape analysis's payoff on each churn workload. The heap rows are
	// single deterministic runs, so re-measuring them would change nothing.
	{name: "heap reduction closure churn", rows: []string{"Analysis_Heap/bench_closure_churn"},
		value: heapReduction, unit: "%", bound: atLeast(30)},
	{name: "heap reduction object churn", rows: []string{"Analysis_Heap/bench_object_churn"},
		value: heapReduction, unit: "%", bound: atLeast(30)},
	// The analysis layer's compile-time cost.
	{name: "analysis compile overhead", rows: []string{"Analysis_Compile/with", "Analysis_Compile/without"},
		value: nsRatio, unit: "x", bound: atMost(2.0), remeasures: 2},
	// A one-function edit against a warm store vs a from-scratch compile.
	{name: "incremental edit1 vs cold", rows: []string{"CompileIncremental/cold", "CompileIncremental/edit1"},
		value: nsRatio, unit: "x", bound: atLeast(5.0), remeasures: 2},
	// Fleet SLOs: an instance killed mid-run must cost retries and
	// degraded local runs, never an unstructured answer, a dropped
	// request or an unbounded tail.
	{name: "cluster non-structured", rows: []string{nofaultRow, killRow},
		value: nonStructured, bound: atMost(0), remeasures: 1},
	{name: "cluster answered", rows: []string{nofaultRow, killRow},
		value: minAnswered, unit: "%", bound: atLeast(99), remeasures: 1},
	{name: "cluster p99 kill vs nofault", rows: []string{killRow, nofaultRow},
		value: p99Ratio, unit: "x", bound: atMost(3.0), remeasures: 1},
}

// nsRatio is the geomean over the row pairs (a, b) of ns(a)/ns(b); for
// one pair it is the plain ratio.
func nsRatio(s *samples, rows []string) float64 {
	prod := 1.0
	for i := 0; i+1 < len(rows); i += 2 {
		prod *= s.ns[rows[i]] / s.ns[rows[i+1]]
	}
	return math.Pow(prod, 2/float64(len(rows)))
}

// heapReduction is the one heap row's modeled-heap reduction in percent.
func heapReduction(s *samples, rows []string) float64 { return s.heap[rows[0]].ReductionPct }

// nonStructured counts the cluster rows' non-structured responses.
func nonStructured(s *samples, rows []string) float64 {
	n := int64(0)
	for _, r := range rows {
		n += s.cluster[r].NonStructured
	}
	return float64(n)
}

// minAnswered is the lowest answered percentage among the cluster rows.
func minAnswered(s *samples, rows []string) float64 {
	v := math.Inf(1)
	for _, r := range rows {
		v = math.Min(v, s.cluster[r].AnsweredPct)
	}
	return v
}

// p99Ratio is the first cluster row's p99 latency over the second's.
func p99Ratio(s *samples, rows []string) float64 {
	return s.cluster[rows[0]].P99Ms / s.cluster[rows[1]].P99Ms
}

// samples indexes one run's measurements by row name.
type samples struct {
	ns      map[string]float64 // testing.Benchmark rows, ns/op
	heap    map[string]heapRow
	cluster map[string]clusterRow
}

func newSamples(rep report) *samples {
	s := &samples{ns: map[string]float64{}, heap: map[string]heapRow{}, cluster: map[string]clusterRow{}}
	for _, r := range rep.Benchmarks {
		s.ns[r.Name] = r.NsPerOp
	}
	for _, r := range rep.Analysis {
		s.heap[r.Name] = r
	}
	for _, r := range rep.Cluster {
		s.cluster[r.Name] = r
	}
	return s
}

func (s *samples) has(row string) bool {
	_, ns := s.ns[row]
	_, heap := s.heap[row]
	_, cluster := s.cluster[row]
	return ns || heap || cluster
}

// keepBest folds a re-measurement into s. A benchmark row keeps its
// lowest ns/op. A cluster scenario takes the new sample only when it has
// no non-structured response, answers at least as much, and has a lower
// nonzero p99.
func (s *samples) keepBest(fresh *samples) {
	for name, ns := range fresh.ns {
		if ns > 0 && ns < s.ns[name] {
			s.ns[name] = ns
		}
	}
	for name, c := range fresh.cluster {
		old := s.cluster[name]
		if c.NonStructured == 0 && c.AnsweredPct >= old.AnsweredPct && c.P99Ms > 0 && (old.P99Ms == 0 || c.P99Ms < old.P99Ms) {
			s.cluster[name] = c
		}
	}
}

// verdict is one gate's outcome.
type verdict struct {
	status     string // "pass" or "fail"
	value      float64
	remeasured int
	why        string // the missing row
}

// judge evaluates g on s. While g fails it re-measures g's rows, at
// most g.remeasures times, folding each fresh sample into s.
func judge(g gate, s *samples, remeasure func(rows []string) *samples) verdict {
	for _, row := range g.rows {
		if !s.has(row) {
			return verdict{status: "fail", why: "missing row " + row}
		}
	}
	v := verdict{status: "pass", value: g.value(s, g.rows)}
	for ; !g.bound.holds(v.value) && v.remeasured < g.remeasures; v.remeasured++ {
		s.keepBest(remeasure(g.rows))
		v.value = g.value(s, g.rows)
	}
	if !g.bound.holds(v.value) {
		v.status = "fail"
	}
	return v
}

// line renders v as one verdict line for g.
func (g gate) line(v verdict) string {
	head := fmt.Sprintf("check: %-4s %-42s", v.status, g.name)
	if v.why != "" {
		return head + " " + v.why
	}
	prec := 2
	if g.unit == "" {
		prec = 0 // a count
	}
	val, lim := formatPair(v.value, g.bound.limit, prec)
	return fmt.Sprintf("%s %s%s %s %s%s (re-measured %d of %d)",
		head, val, g.unit, g.bound.op, lim, g.unit, v.remeasured, g.remeasures)
}

// formatPair prints v and limit with the fewest decimals, at least
// prec, that tell them apart, so a failing value never prints as its
// bound.
func formatPair(v, limit float64, prec int) (string, string) {
	for ; prec <= 17; prec++ {
		a, b := strconv.FormatFloat(v, 'f', prec, 64), strconv.FormatFloat(limit, 'f', prec, 64)
		if a != b || v == limit {
			return a, b
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(limit, 'g', -1, 64)
}

// runGates judges every gate in order, going on after a failure, and
// prints one verdict line per gate and a tally. It returns the exit
// status: 1 if and only if some gate failed.
func runGates(w io.Writer, gs []gate, s *samples, remeasure func(rows []string) *samples) int {
	tally := map[string]int{}
	for _, g := range gs {
		v := judge(g, s, remeasure)
		tally[v.status]++
		fmt.Fprintln(w, g.line(v))
	}
	fmt.Fprintf(w, "check: %d pass, %d fail\n", tally["pass"], tally["fail"])
	if tally["fail"] > 0 {
		return 1
	}
	return 0
}
