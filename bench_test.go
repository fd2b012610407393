// Package repro's benchmark harness regenerates every quantitative
// claim of the paper's implementation section. The pairs come from the
// experiment table in internal/experiments (see EXPERIMENTS.md):
//
//	E1: dynamic calling-convention checks, boxed vs normalized (§4.1)
//	E2: tuple flattening vs boxing, small and large tuples (§4.2)
//	E3: monomorphization vs runtime type arguments (§4.3)
//	E5: the print1 query-chain folds to a direct call (§3.3)
//	E6: polymorphic matcher dispatch cost (§3.4)
//	E7: compile-speed scaling (§5), and mono plus norm alone
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

// benchRows benchmarks one run of both sides of each row, as
// sub-benchmarks row/label, and reports the run's counters.
func benchRows(b *testing.B, rows []experiments.Row) {
	for _, r := range rows {
		for _, s := range []experiments.Side{r.Base, r.Test} {
			b.Run(r.Name+"/"+s.Label, func(b *testing.B) {
				comp, err := s.Build()
				if err != nil {
					b.Fatalf("compile [%s]: %v", s.Label, err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var st interp.Stats
				for i := 0; i < b.N; i++ {
					if st, err = comp.RunTo(io.Discard, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.Steps), "vm-steps/op")
				b.ReportMetric(float64(st.AdaptChecks), "arity-checks/op")
				b.ReportMetric(float64(st.TupleAllocs), "tuple-boxes/op")
			})
		}
	}
}

// BenchmarkExperiments times the paper's run-time claims E1-E6, each
// row a pair that differs in one variable.
func BenchmarkExperiments(b *testing.B) {
	benchRows(b, experiments.New(experiments.Full).Rows("E1", "E2", "E3", "E5", "E6"))
}

// ------------------------------------------------------------------ E7

// BenchmarkE7_CompileSpeed measures end-to-end pipeline throughput on
// generated programs of increasing size (§5: "compiles very fast").
func BenchmarkE7_CompileSpeed(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		src := progen.Generate(progen.Scale(k))
		lines := float64(progen.Lines(src))
		b.Run(map[int]string{1: "small", 4: "medium", 16: "large"}[k], func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile("gen.v", src, core.Compiled()); err != nil {
					b.Fatal(err)
				}
			}
			linesPerSec := lines * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(linesPerSec, "lines/sec")
			b.ReportMetric(lines, "lines")
		})
	}
}

// BenchmarkE7_MonoNorm measures the paper's two implementation
// techniques on the E7 generated programs: lowering, then
// monomorphization (§4.3) and normalization (§4.2), which rewrite the
// bodies they are given. Both consume their input, so every iteration
// lowers afresh from one checked program; lowering is part of the
// measured work.
func BenchmarkE7_MonoNorm(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		source := progen.Generate(progen.Scale(k))
		errs := &src.ErrorList{}
		prog := typecheck.Check([]*ast.File{parser.Parse("gen.v", source, errs)}, errs)
		if !errs.Empty() {
			b.Fatal(errs)
		}
		b.Run(map[int]string{1: "small", 4: "medium", 16: "large"}[k], func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				mod, err := lower.Lower(ctx, prog, 0)
				if err == nil {
					mod, _, err = mono.Monomorphize(ctx, mod, mono.Config{})
				}
				if err == nil {
					_, _, err = norm.Normalize(ctx, mod, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// translated keeps BenchmarkE7_Translate's result live.
var translated *engine.Program

// BenchmarkE7_Translate measures bytecode translation alone on the
// same generated programs: engine.Compile of the optimized module, the
// step the edit loop repeats after every one-function edit.
func BenchmarkE7_Translate(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		comp, err := core.Compile("gen.v", progen.Generate(progen.Scale(k)), core.Compiled())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "small", 4: "medium", 16: "large"}[k], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				translated = engine.Compile(comp.Module)
			}
			b.ReportMetric(float64(comp.Module.NumInstrs()), "ir-instrs")
		})
	}
}

// TestE5AllocsPerOp pins the interpreter's allocation rate on the E5
// query-chain workload. The frame pool recycles the per-call register
// slice plus the static-call and builtin argument slices; without it
// this workload measures ~6.5 allocs per interpreted call, with it
// ~4.4 (the remainder is Value interface boxing of int results, which
// scales with VM steps, not calls). The 5.0 ceiling fails if any of
// the pooled per-call allocations come back.
func TestE5AllocsPerOp(t *testing.T) {
	p := testprogs.BenchPrint1(2000)
	comp, err := core.Compile(p.Name+".v", p.Source, core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	var stats interp.Stats
	allocs := testing.AllocsPerRun(5, func() {
		st, err := comp.RunTo(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats = st
	})
	perCall := allocs / float64(stats.Calls)
	t.Logf("E5 allocs/op = %.0f over %d calls (%.3f allocs/call)", allocs, stats.Calls, perCall)
	if perCall > 5.0 {
		t.Errorf("allocs per interpreted call = %.3f, want <= 5.0: frame pooling regressed", perCall)
	}
}

// ------------------------------------------------------- ablation

// BenchmarkAblation_PipelineStages adds each stage of the pipeline
// alone to the one before it, on the generic-list workload.
func BenchmarkAblation_PipelineStages(b *testing.B) {
	benchRows(b, experiments.New(experiments.Full).Rows("Ablation"))
}

// TestBenchWorkloadsAgree cross-checks that every run workload of the
// experiment table produces identical output under every pipeline
// configuration, so the benchmarks compare equal work.
func TestBenchWorkloadsAgree(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range experiments.New(experiments.Size{N: 500, Scale: 1}).Rows() {
		for _, p := range []testprogs.Prog{r.Base.Prog, r.Test.Prog} {
			if r.Op != experiments.Run || seen[p.Source] {
				continue
			}
			seen[p.Source] = true
			var want string
			for i, cfg := range core.Configs() {
				comp, err := core.Compile(p.Name+".v", p.Source, cfg)
				if err != nil {
					t.Fatalf("%s [%s]: %v", p.Name, cfg.Name(), err)
				}
				res := comp.Run()
				if res.Err != nil {
					t.Fatalf("%s [%s]: %v", p.Name, cfg.Name(), res.Err)
				}
				if i == 0 {
					want = res.Output
				} else if res.Output != want {
					t.Errorf("%s [%s]: output %q != reference %q", p.Name, cfg.Name(), res.Output, want)
				}
			}
		}
	}
}

// ------------------------------------------------------------- Engine

// BenchmarkEngine compares the two execution engines — the register
// bytecode compiler/evaluator (the default) against the switch
// interpreter (the reference semantics) — on the paper's hot
// workloads. The two are observably identical (engine_diff_test.go
// proves it); this measures what the bytecode translation buys:
// unboxed scalar registers, fused superinstructions, and monomorphic
// inline caches at virtual and indirect call sites.
func BenchmarkEngine(b *testing.B) {
	benchRows(b, experiments.New(experiments.Full).Rows("Engine"))
}
