// Package repro's benchmark harness regenerates every quantitative
// claim of the paper's implementation section (see EXPERIMENTS.md for
// the experiment index):
//
//	E1: dynamic calling-convention checks vs normalized scalars (§4.1)
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

// benchN is the per-iteration workload size of the Virgil-core hot
// loops. Small enough for quick runs, large enough that loop cost
// dominates setup.
const benchN = 10000

func mustCompile(b *testing.B, p testprogs.Prog, cfg core.Config) *core.Compilation {
	b.Helper()
	comp, err := core.Compile(p.Name+".v", p.Source, cfg)
	if err != nil {
		b.Fatalf("compile [%s]: %v", cfg.Name(), err)
	}
	return comp
}

// runProg executes a compiled program once, discarding output.
func runProg(b *testing.B, comp *core.Compilation) {
	b.Helper()
	if _, err := comp.RunTo(io.Discard, 0); err != nil {
		b.Fatalf("run: %v", err)
	}
}

// benchConfigs runs the workload under the given configurations as
// sub-benchmarks and reports interpreter-level counters.
func benchConfigs(b *testing.B, p testprogs.Prog, cfgs map[string]core.Config) {
	for name, cfg := range cfgs {
		cfg := cfg
		b.Run(name, func(b *testing.B) {
			comp := mustCompile(b, p, cfg)
			b.ResetTimer()
			var steps, checks, boxes float64
			for i := 0; i < b.N; i++ {
				st, err := comp.RunTo(io.Discard, 0)
				if err != nil {
					b.Fatal(err)
				}
				steps = float64(st.Steps)
				checks = float64(st.AdaptChecks)
				boxes = float64(st.TupleAllocs)
			}
			b.ReportMetric(steps, "vm-steps/op")
			b.ReportMetric(checks, "arity-checks/op")
			b.ReportMetric(boxes, "tuple-boxes/op")
		})
	}
}

// refVsCompiled is the standard two-point comparison.
func refVsCompiled() map[string]core.Config {
	return map[string]core.Config{
		"reference": core.Reference(),
		"compiled":  core.Compiled(),
	}
}

// ------------------------------------------------------------------ E1

// BenchmarkE1_DynamicChecks measures the §4.1 claim: dynamic checks at
// indirect call sites are expensive; normalization eliminates them
// ("the checks are expensive ... our compiler normalizes the program,
// rewriting all uses of tuples to eliminate such overhead").
func BenchmarkE1_DynamicChecks(b *testing.B) {
	benchConfigs(b, testprogs.BenchTupleSmall(benchN), refVsCompiled())
}

// BenchmarkE1_OverrideAmbiguity exercises the virtual-call flavour of
// the ambiguity (p10-p17): tuple-equivalent overrides force
// per-invocation adaptation in reference mode.
func BenchmarkE1_OverrideAmbiguity(b *testing.B) {
	benchConfigs(b, testprogs.BenchVariants(benchN), refVsCompiled())
}

// ------------------------------------------------------------------ E2

// BenchmarkE2_TupleSmall: small tuples are much faster flattened than
// boxed (§4.2: "For small tuples, normalization has much better
// performance than boxing").
func BenchmarkE2_TupleSmall(b *testing.B) {
	benchConfigs(b, testprogs.BenchTupleSmall(benchN), map[string]core.Config{
		"boxed":     {Monomorphize: true}, // mono only: tuples stay boxed
		"flattened": core.Compiled(),
	})
}

// BenchmarkE2_TupleLarge: with 16-element tuples the flattening
// advantage narrows — the paper's stated tradeoff ("large tuples might
// actually perform better if allocated on the heap").
func BenchmarkE2_TupleLarge(b *testing.B) {
	benchConfigs(b, testprogs.BenchTupleLarge(benchN/4), map[string]core.Config{
		"boxed":     {Monomorphize: true},
		"flattened": core.Compiled(),
	})
}

// ------------------------------------------------------------------ E3

// BenchmarkE3_GenericList: monomorphization vs runtime type arguments
// on a polymorphic list workload (§4.3: "Even with lazy evaluation ...
// this exacts a considerable runtime cost").
func BenchmarkE3_GenericList(b *testing.B) {
	benchConfigs(b, testprogs.BenchGenericList(benchN/4), map[string]core.Config{
		"reference": core.Reference(),
		"mono":      {Monomorphize: true},
		"compiled":  core.Compiled(),
	})
}

// BenchmarkE3_HashMap: the §3.2 ADT HashMap under all configurations.
func BenchmarkE3_HashMap(b *testing.B) {
	benchConfigs(b, testprogs.BenchHashMap(benchN/2), map[string]core.Config{
		"reference": core.Reference(),
		"mono":      {Monomorphize: true},
		"compiled":  core.Compiled(),
	})
}

// ------------------------------------------------------------------ E5

// BenchmarkE5_Print1 measures the §3.3 claim end to end: in compiled
// mode the generic dispatch costs the same as direct calls because the
// query chain folded away.
func BenchmarkE5_Print1(b *testing.B) {
	benchConfigs(b, testprogs.BenchPrint1(benchN), map[string]core.Config{
		"reference": core.Reference(),
		"compiled":  core.Compiled(),
	})
}

// BenchmarkE5_DirectBaseline is the direct-call baseline the compiled
// print1 should match.
func BenchmarkE5_DirectBaseline(b *testing.B) {
	benchConfigs(b, testprogs.BenchDirect(benchN), map[string]core.Config{
		"compiled": core.Compiled(),
	})
}

// ------------------------------------------------------------------ E6

// BenchmarkE6_Matcher measures the §3.4 polymorphic matcher: reified
// type queries searching a handler list, vs the direct-call baseline.
func BenchmarkE6_Matcher(b *testing.B) {
	benchConfigs(b, testprogs.BenchMatcher(benchN/2), refVsCompiled())
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

// BenchmarkAblation_PipelineStages isolates each stage's contribution
// on the generic-list workload (DESIGN.md's ablation of §4's design
// choices).
func BenchmarkAblation_PipelineStages(b *testing.B) {
	benchConfigs(b, testprogs.BenchGenericList(benchN/4), map[string]core.Config{
		"1-reference":     core.Reference(),
		"2-mono":          {Monomorphize: true},
		"3-mono+norm":     {Monomorphize: true, Normalize: true},
		"4-mono+norm+opt": core.Compiled(),
	})
}

// TestBenchWorkloadsAgree cross-checks that every benchmark workload
// produces identical output in reference and compiled modes, so the
// benchmarks compare equal work.
func TestBenchWorkloadsAgree(t *testing.T) {
	progs := []testprogs.Prog{
		testprogs.BenchTupleSmall(500),
		testprogs.BenchTupleLarge(100),
		testprogs.BenchGenericList(200),
		testprogs.BenchHashMap(300),
		testprogs.BenchPrint1(300),
		testprogs.BenchDirect(300),
		testprogs.BenchMatcher(200),
		testprogs.BenchVariants(300),
	}
	for _, p := range progs {
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

// ------------------------------------------------------------- Engine

// BenchmarkEngine compares the two execution engines — the register
// bytecode compiler/evaluator (the default) against the switch
// interpreter (the reference semantics) — on the paper's hot
// workloads. The two are observably identical (engine_diff_test.go
// proves it); this measures what the bytecode translation buys:
// unboxed scalar registers, fused superinstructions, and monomorphic
// inline caches at virtual and indirect call sites.
func BenchmarkEngine(b *testing.B) {
	workloads := []testprogs.Prog{
		testprogs.BenchTupleSmall(benchN),
		testprogs.BenchHashMap(benchN / 2),
		testprogs.BenchPrint1(benchN),
		testprogs.BenchMatcher(benchN / 2),
	}
	for _, p := range workloads {
		for _, eng := range []string{core.EngineSwitch, core.EngineBytecode} {
			cfg := core.Compiled()
			cfg.Engine = eng
			b.Run(p.Name+"/"+eng, func(b *testing.B) {
				comp := mustCompile(b, p, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runProg(b, comp)
				}
			})
		}
	}
}
