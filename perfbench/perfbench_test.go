package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/progen"
)

// inputDigest hashes the input sequence a workload generates from seed.
func inputDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	h := sha256.New()
	switch name {
	case "compile-cold":
		set := compileColdSet(seed)
		for _, p := range set {
			fmt.Fprintln(h, p.name, p.files)
		}
		for r := 0; r < 3; r++ {
			fmt.Fprintln(h, roundOrder(seed, r, len(set)))
		}
	case "run-hot":
		for r := 0; r < 3; r++ {
			fmt.Fprintln(h, roundOrder(seed, r, len(runHotSet)))
		}
	case "edit-loop":
		p := splitProject(progen.Generate(projectParams))
		body, typeEdit, err := editScript(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, cycleStates(p, body, typeEdit))
	case "serve-mixed":
		s := &serveMixed{seed: seed, items: progen.Mixes()[progen.MixMixed]}
		for _, r := range s.sequence(500) {
			path, req := s.request(r)
			fmt.Fprintln(h, path, req)
		}
	default:
		t.Fatalf("no digest for workload %s", name)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputDigest(t, w.name, 7), inputDigest(t, w.name, 7), inputDigest(t, w.name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same input sequence", w.name)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		p      float64
		n      int
		refuse bool
	}{
		{50, 19, true}, {50, 20, false},
		{90, 99, true}, {90, 100, false},
		{99, 999, true}, {99, 1000, false},
		{99, 0, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err != nil) != c.refuse {
			t.Errorf("p%g of %d samples: err = %v, want refusal %v", c.p, c.n, err, c.refuse)
		}
	}
	if v, err := percentile(seq(101), 50); err != nil || v != 51 {
		t.Errorf("p50 of 1..101 = %v, %v; want 51", v, err)
	}
	if v, err := percentile(seq(1001), 99); err != nil || v != 991 {
		t.Errorf("p99 of 1..1001 = %v, %v; want 991", v, err)
	}
}

// TestOpenLoopCountsStallFromDueTime stalls both clients at once: the
// requests that fall due meanwhile go out late, and both their latency
// and loadgen.lag_p99_ms count the wait from each request's due time.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const n, rate, stall = 1500, 5000.0, 60 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	samples := openLoop(start, start.Add(time.Minute), n, rate, 2, func(i int) {
		if i == 100 || i == 101 {
			time.Sleep(stall)
		}
	})
	if len(samples) != n {
		t.Fatalf("sent %d of %d requests", len(samples), n)
	}
	w := &window{}
	for i, s := range samples {
		if want := start.Add(time.Duration(float64(i) * float64(time.Second) / rate)); !s.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, s.due, want)
		}
		if s.latency() < s.lag() {
			t.Fatalf("request %d: latency %v shorter than its lag %v", i, s.latency(), s.lag())
		}
		w.lat = append(w.lat, ms(s.latency()))
		w.lag = append(w.lag, ms(s.lag()))
		w.traced = append(w.traced, false)
	}
	// Request 102 fell due 0.4 ms after the stall began; no client was
	// free until the stall ended.
	if lag := samples[102].lag(); lag < stall/2 {
		t.Errorf("request 102 sent %v late, want about %v", lag, stall)
	}
	m := metrics{}
	w.runtimeLayers(m)
	if got := m["loadgen.lag_p99_ms"].Value; got < ms(stall)/2 {
		t.Errorf("loadgen.lag_p99_ms = %v, want at least %v", got, ms(stall)/2)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "compile", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "parse", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "check", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "lower", Start: 60, End: 70},
		{ID: 4, Parent: 3, Name: "inner", Start: 62, End: 65},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 20, 30, 7, 3} {
		if self[i] != want {
			t.Errorf("span %s self time = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if got := coverage(spans, "compile"); got != 50 {
		t.Errorf("coverage = %v%%, want 50%%", got)
	}
}

// TestComposedPipelineMatchesCompileFiles is the traced run's fidelity
// check over one seed's whole compile-cold program set.
func TestComposedPipelineMatchesCompileFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole compile-cold set twice")
	}
	for _, p := range compileColdSet(3) {
		want, err := core.CompileFiles(p.files, core.Compiled())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		tr := newTracer()
		got, err := composeCompile(context.Background(), p.files, tr, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got.mod.String() != want.Module.String() {
			t.Errorf("%s: composed module differs from core.CompileFiles", p.name)
		}
		if p.hasWant && got.out.output != p.want {
			t.Errorf("%s: composed run printed %q, want %q", p.name, got.out.output, p.want)
		}
		if c := coverage(tr.spans, "compile"); c < 90 {
			t.Errorf("%s: stage spans cover %.1f%% of the compile", p.name, c)
		}
	}
}

func TestEditScriptCycles(t *testing.T) {
	p := splitProject(progen.Generate(projectParams))
	if got := strings.Join(p.blocks, ""); got != progen.Generate(projectParams) {
		t.Fatal("declaration blocks do not reassemble the program")
	}
	body, typeEdit, err := editScript(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	states := cycleStates(p, body, typeEdit)
	if len(states) != cycleLen {
		t.Fatalf("%d states, want %d", len(states), cycleLen)
	}
	base := p.files(p.blocks)
	prev := base
	for i, s := range states {
		changed := 0
		for f := range s {
			if s[f] != prev[f] {
				changed++
			}
		}
		if changed != 1 {
			t.Errorf("op %d changed %d files, want 1", i, changed)
		}
		prev = s
	}
	for f := range base {
		if states[cycleLen-1][f] != base[f] {
			t.Errorf("the cycle does not return %s to its set-up source", base[f].Name)
		}
	}
}

// TestEditLoopRepeatsExactly runs two cycles of the edit script and
// holds every run to the reference and every second-cycle op to the
// first cycle's store decisions.
func TestEditLoopRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two edit cycles")
	}
	st, err := setupEditLoop(2)
	if err != nil {
		t.Fatal(err)
	}
	s := st.(*editLoop)
	w := &window{}
	for i := 0; i < 2*cycleLen; i++ {
		r, err := s.op(i, nil)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		s.ops = append(s.ops, r)
		w.attempted++
	}
	if err := s.verify(w); err != nil || w.failed > 0 {
		t.Fatalf("verify: %v, %d failed: %v", err, w.failed, w.problems)
	}
	modes := map[string]int{}
	for _, r := range s.ops[:cycleLen] {
		modes[r.incr.Mode]++
	}
	if modes[core.ModeIncremental] != 2*bodyEdits || modes[core.ModeFallback] != 2 {
		t.Errorf("one cycle's store modes = %v, want %d incremental and 2 fallback", modes, 2*bodyEdits)
	}
}
