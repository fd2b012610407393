package main

import (
	"math"
	"strings"
	"testing"
)

// passingReport is a synthetic run on which every gate of the table
// passes without a re-measure.
func passingReport() report {
	ns := map[string]float64{
		"Engine_E5_Print1/switch":       300,
		"Engine_E5_Print1/bytecode":     100,
		"Tiered_E1_TupleSmall/untiered": 150,
		"Tiered_E1_TupleSmall/tiered":   100,
		"Tiered_E3_HashMap/untiered":    100,
		"Tiered_E3_HashMap/tiered":      100,
		"Tiered_E5_Print1/untiered":     130,
		"Tiered_E5_Print1/tiered":       100,
		"Analysis_Compile/with":         150,
		"Analysis_Compile/without":      100,
		"CompileIncremental/cold":       600,
		"CompileIncremental/edit1":      100,
	}
	var rep report
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, result{Name: name, NsPerOp: v})
	}
	rep.Analysis = []heapRow{
		{Name: "Analysis_Heap/bench_closure_churn", ReductionPct: 80},
		{Name: "Analysis_Heap/bench_object_churn", ReductionPct: 60},
	}
	rep.Cluster = []clusterRow{
		{Name: nofaultRow, AnsweredPct: 100, P99Ms: 20},
		{Name: killRow, AnsweredPct: 99.5, P99Ms: 40},
	}
	return rep
}

// remeasurer returns a re-measure function that serves fresh samples
// from next (nil: nothing) and counts its calls.
func remeasurer(next func(rows []string) report) (func(rows []string) *samples, *int) {
	calls := new(int)
	return func(rows []string) *samples {
		*calls++
		if next == nil {
			return newSamples(report{})
		}
		return newSamples(next(rows))
	}, calls
}

func ratioGate(b bound, remeasures int) gate {
	return gate{name: "ratio", rows: []string{"a", "b"}, value: nsRatio, unit: "x", bound: b, remeasures: remeasures}
}

func nsReport(a, b float64) report {
	return report{Benchmarks: []result{{Name: "a", NsPerOp: a}, {Name: "b", NsPerOp: b}}}
}

func TestGateTableConsistency(t *testing.T) {
	rowsOf := func(short bool) map[string]bool {
		rows := map[string]bool{}
		for _, b := range table(short) {
			if rows[b.name] {
				t.Errorf("table(%v): row %s listed twice", short, b.name)
			}
			if b.base != "" && !rows[b.base] {
				t.Errorf("table(%v): row %s takes its speedup against %s, which does not run before it", short, b.name, b.base)
			}
			rows[b.name] = true
		}
		return rows
	}
	short, full := rowsOf(true), rowsOf(false)
	other := map[string]bool{nofaultRow: true, killRow: true}
	heap, err := analysisHeapRows(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range heap {
		other[r.Name] = true
	}
	for name := range other {
		if short[name] || full[name] {
			t.Errorf("heap or cluster row %s collides with a benchmark row", name)
		}
	}
	names := map[string]bool{}
	for _, g := range gates {
		if names[g.name] {
			t.Errorf("gate %q listed twice", g.name)
		}
		names[g.name] = true
		if op := g.bound.op; op != ">=" && op != "<=" {
			t.Errorf("gate %q: direction %q, want >= or <=", g.name, op)
		}
		if math.IsNaN(g.bound.limit) || math.IsInf(g.bound.limit, 0) {
			t.Errorf("gate %q: bound %v is not a number", g.name, g.bound.limit)
		}
		if g.value == nil || len(g.rows) == 0 || g.remeasures < 0 {
			t.Errorf("gate %q: incomplete entry %+v", g.name, g)
		}
		for _, row := range g.rows {
			if !other[row] && !(short[row] && full[row]) {
				t.Errorf("gate %q reads row %s, which short and full runs do not both measure", g.name, row)
			}
		}
	}
}

func TestGateFloorAndCeiling(t *testing.T) {
	const eps = 1e-9
	for _, tc := range []struct {
		b      bound
		a      float64 // ns of row a; row b is 1, so the value is a
		status string
	}{
		{atLeast(2), 2 + eps, "pass"},
		{atLeast(2), 2, "pass"},
		{atLeast(2), 2 - eps, "fail"},
		{atMost(2), 2 - eps, "pass"},
		{atMost(2), 2, "pass"},
		{atMost(2), 2 + eps, "fail"},
	} {
		g := ratioGate(tc.b, 0)
		remeasure, calls := remeasurer(nil)
		v := judge(g, newSamples(nsReport(tc.a, 1)), remeasure)
		if v.status != tc.status || *calls != 0 {
			t.Errorf("%v %s %v: %s after %d re-measures, want %s after none", tc.a, tc.b.op, tc.b.limit, v.status, *calls, tc.status)
		}
		val, lim := formatPair(v.value, tc.b.limit, 2)
		if (val == lim) != (tc.a == tc.b.limit) {
			t.Errorf("value %v prints as %s against bound %s", tc.a, val, lim)
		}
	}
}

func TestFormatPairSeparatesNearValues(t *testing.T) {
	// The tiered gate once printed "1.15x (need >= 1.15x)" and failed.
	val, lim := formatPair(1.1498, 1.15, 2)
	if val != "1.1498" || lim != "1.1500" {
		t.Errorf("formatPair(1.1498, 1.15) = %s, %s", val, lim)
	}
	if val, lim := formatPair(math.Nextafter(1.15, 0), 1.15, 2); val == lim {
		t.Errorf("adjacent floats print alike: %s", val)
	}
	if val, _ := formatPair(3.2, 5, 2); val != "3.20" {
		t.Errorf("formatPair(3.2, 5, 2) value = %s, want 3.20", val)
	}
	if val, lim := formatPair(1, 0, 0); val != "1" || lim != "0" {
		t.Errorf("a count prints as %s against %s, want 1 against 0", val, lim)
	}
}

func TestGeomeanGate(t *testing.T) {
	tiered := gates[1]
	rep := passingReport()
	s := newSamples(rep)
	// Ratios 1.5, 1.0 and 1.3: geomean 1.95^(1/3) = 1.2493.
	if v := judge(tiered, s, nil); v.status != "pass" || math.Abs(v.value-math.Cbrt(1.95)) > 1e-12 {
		t.Fatalf("tiered geomean = %v (%s), want %v pass", v.value, v.status, math.Cbrt(1.95))
	}
	// Ratio 1.5 on E1 cannot carry two flat rows: 1.5^(1/3) = 1.1447.
	s.ns["Tiered_E5_Print1/untiered"] = 100
	remeasure, calls := remeasurer(nil)
	if v := judge(tiered, s, remeasure); v.status != "fail" || *calls != 2 {
		t.Fatalf("tiered geomean = %v (%s) after %d re-measures, want fail after 2", v.value, v.status, *calls)
	}
}

func TestMissingRowFails(t *testing.T) {
	rep := passingReport()
	rep.Benchmarks = rep.Benchmarks[:0]
	remeasure, calls := remeasurer(nil)
	v := judge(gates[0], newSamples(rep), remeasure)
	if v.status != "fail" || !strings.Contains(v.why, "missing row Engine_E5_Print1/switch") || *calls != 0 {
		t.Fatalf("verdict %+v after %d re-measures, want a missing-row fail without re-measuring", v, *calls)
	}
}

func TestRemeasureOnlyOnFailureCappedKeepingBest(t *testing.T) {
	// A passing gate is never re-measured.
	remeasure, calls := remeasurer(nil)
	if v := judge(ratioGate(atLeast(2), 2), newSamples(nsReport(3, 1)), remeasure); v.status != "pass" || *calls != 0 {
		t.Fatalf("passing gate: %s after %d re-measures", v.status, *calls)
	}

	// A failing gate stops re-measuring once it passes.
	remeasure, calls = remeasurer(func([]string) report { return nsReport(5, 2) })
	s := newSamples(nsReport(4, 3))
	v := judge(ratioGate(atLeast(2), 2), s, remeasure)
	// a keeps min(4, 5) = 4, b keeps min(3, 2) = 2.
	if v.status != "pass" || v.remeasured != 1 || *calls != 1 || s.ns["a"] != 4 || s.ns["b"] != 2 {
		t.Fatalf("got %+v after %d re-measures, samples %v; want pass after 1 with a=4 b=2", v, *calls, s.ns)
	}

	// A gate that keeps failing is re-measured exactly its count.
	for _, count := range []int{0, 1, 2} {
		remeasure, calls = remeasurer(func([]string) report { return nsReport(1, 1) })
		v = judge(ratioGate(atLeast(2), count), newSamples(nsReport(1.5, 1)), remeasure)
		if v.status != "fail" || v.remeasured != count || *calls != count {
			t.Errorf("count %d: %+v after %d re-measures", count, v, *calls)
		}
	}

	// A re-measure that produced nothing leaves the samples alone.
	s = newSamples(nsReport(1.5, 1))
	remeasure, _ = remeasurer(func([]string) report { return nsReport(0, 0) })
	judge(ratioGate(atLeast(2), 1), s, remeasure)
	if s.ns["a"] != 1.5 || s.ns["b"] != 1 {
		t.Fatalf("empty re-measure changed the samples: %v", s.ns)
	}
}

func TestClusterSampleReplacement(t *testing.T) {
	old := clusterRow{Name: killRow, AnsweredPct: 99.5, P99Ms: 40}
	for _, tc := range []struct {
		fresh   clusterRow
		replace bool
	}{
		{clusterRow{AnsweredPct: 99.5, P99Ms: 30}, true},
		{clusterRow{AnsweredPct: 99.5, P99Ms: 30, NonStructured: 1}, false},
		{clusterRow{AnsweredPct: 99.4, P99Ms: 30}, false},
		{clusterRow{AnsweredPct: 100, P99Ms: 40}, false},
		{clusterRow{AnsweredPct: 100, P99Ms: 0}, false},
	} {
		tc.fresh.Name = killRow
		s := newSamples(report{Cluster: []clusterRow{old}})
		s.keepBest(newSamples(report{Cluster: []clusterRow{tc.fresh}}))
		if got := s.cluster[killRow] == tc.fresh; got != tc.replace {
			t.Errorf("fresh %+v replaced old: %v, want %v", tc.fresh, got, tc.replace)
		}
	}
}

func TestRunGatesJudgesEveryGate(t *testing.T) {
	var out strings.Builder
	remeasure, calls := remeasurer(nil)
	if code := runGates(&out, gates, newSamples(passingReport()), remeasure); code != 0 || *calls != 0 {
		t.Fatalf("passing report: exit %d after %d re-measures\n%s", code, *calls, out.String())
	}

	// The incremental gate fails at 3.2x. Every later gate is still
	// judged, and only the failing gate is re-measured.
	rep := passingReport()
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "CompileIncremental/edit1" {
			rep.Benchmarks[i].NsPerOp = 600 / 3.2
		}
	}
	var rowsSeen []string
	remeasure, calls = remeasurer(func(rows []string) report {
		rowsSeen = append(rowsSeen, rows...)
		return report{}
	})
	out.Reset()
	code := runGates(&out, gates, newSamples(rep), remeasure)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 1 || len(lines) != len(gates)+1 {
		t.Fatalf("exit %d with %d lines, want 1 with %d\n%s", code, len(lines), len(gates)+1, out.String())
	}
	for i, g := range gates {
		status := "pass"
		if g.name == "incremental edit1 vs cold" {
			status = "fail"
		}
		if !strings.HasPrefix(lines[i], "check: "+status) || !strings.Contains(lines[i], g.name) {
			t.Errorf("line %d = %q, want a %s verdict for %s", i, lines[i], status, g.name)
		}
	}
	if !strings.Contains(out.String(), "3.20x >= 5.00x (re-measured 2 of 2)") {
		t.Errorf("incremental verdict lacks value, bound or re-measures:\n%s", out.String())
	}
	const incr = "CompileIncremental/cold,CompileIncremental/edit1"
	if *calls != 2 || strings.Join(rowsSeen, ",") != incr+","+incr {
		t.Errorf("re-measured %v in %d calls, want the incremental rows twice", rowsSeen, *calls)
	}
	if lines[len(gates)] != "check: 8 pass, 1 fail" {
		t.Errorf("tally %q", lines[len(gates)])
	}
}
