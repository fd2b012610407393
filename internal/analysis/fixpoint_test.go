package analysis_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

// sweepPrograms is the program set the fixpoint tests sweep: the paper
// corpus, the analysis testdata, and progen at Scale 1, 2, 4 and 8.
func sweepPrograms(t *testing.T) []testprogs.Prog {
	t.Helper()
	progs := testprogs.All()
	files, err := filepath.Glob(filepath.Join("testdata", "*.v"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		source, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, testprogs.Prog{Name: filepath.Base(file), Source: string(source)})
	}
	for _, k := range []int{1, 2, 4, 8} {
		progs = append(progs, testprogs.Prog{Name: fmt.Sprintf("progen-scale%d", k), Source: progen.Generate(progen.Scale(k))})
	}
	return progs
}

// eachModule compiles every sweep program under the mono, norm and
// full (mono+norm+opt with analysis) configs and calls fn with each
// resulting module. It runs the stages itself rather than through
// core, so the typed IR verifier, which is not the subject here, stays
// out of the way.
func eachModule(t *testing.T, fn func(t *testing.T, mod *ir.Module)) {
	for _, p := range sweepPrograms(t) {
		for _, config := range []string{"mono", "norm", "full"} {
			t.Run(p.Name+"/"+config, func(t *testing.T) {
				fn(t, compileTo(t, p, config))
			})
		}
	}
}

// compileTo runs p through the stages of config.
func compileTo(t *testing.T, p testprogs.Prog, config string) *ir.Module {
	t.Helper()
	ctx := context.Background()
	errs := &src.ErrorList{}
	file := parser.Parse(p.Name, p.Source, errs)
	if !errs.Empty() {
		t.Fatalf("parse: %s", errs.Error())
	}
	prog := typecheck.Check([]*ast.File{file}, errs)
	if !errs.Empty() {
		t.Fatalf("check: %s", errs.Error())
	}
	mod, err := lower.Lower(ctx, prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mod, _, err = mono.Monomorphize(ctx, mod, mono.Config{}); err != nil {
		t.Fatal(err)
	}
	if config == "mono" {
		return mod
	}
	if mod, _, err = norm.Normalize(ctx, mod, 1); err != nil {
		t.Fatal(err)
	}
	if config == "full" {
		if _, err := opt.Optimize(ctx, mod, opt.Config{Analyze: true}); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// TestHasLoopSweep: on every function the pipeline produces, the loop
// search Analyze runs agrees with the CFG that the report and lint
// build.
func TestHasLoopSweep(t *testing.T) {
	eachModule(t, func(t *testing.T, mod *ir.Module) {
		for _, f := range mod.Funcs {
			want := slices.Contains(analysis.BuildCFG(f).InLoop, true)
			if got := analysis.HasLoop(f); got != want {
				t.Errorf("%s: hasLoop = %v, BuildCFG loop = %v", f.Name, got, want)
			}
		}
	})
}

// TestEscapeWorklistMatchesSweep: the escape worklist reaches the same
// facts as the reference that sweeps the whole module until stable.
func TestEscapeWorklistMatchesSweep(t *testing.T) {
	eachModule(t, func(t *testing.T, mod *ir.Module) {
		res, err := analysis.Analyze(context.Background(), mod, analysis.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ref := analysis.SweepEscapes(res)
		for i, got := range res.Funcs {
			want, name := ref[i], got.Fn.Name
			if !slices.Equal(got.ParamEscapes, want.ParamEscapes) {
				t.Errorf("%s: ParamEscapes = %v, sweep %v", name, got.ParamEscapes, want.ParamEscapes)
			}
			if !slices.Equal(got.EscapingRegs, want.EscapingRegs) {
				t.Errorf("%s: EscapingRegs = %v, sweep %v", name, got.EscapingRegs, want.EscapingRegs)
			}
			if !slices.Equal(got.AllocSites, want.AllocSites) {
				t.Errorf("%s: AllocSites differ from the sweep's", name)
			}
			if !slices.Equal(got.NonEscaping, want.NonEscaping) {
				t.Errorf("%s: NonEscaping differs from the sweep's", name)
			}
		}
	})
}
