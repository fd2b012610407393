package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/typecheck"
)

// composed is the result of the traced pipeline: the final module, the
// pass statistics, and the outcome of running it.
type composed struct {
	mod     *ir.Module
	lines   int
	mono    *mono.Stats
	norm    *norm.Stats
	opt     *opt.Stats
	stats   interp.Stats
	out     outcome
	compile time.Duration // wall time of the "compile" root, tracing included
}

// composeCompile runs core.Compiled()'s pipeline stage by stage from
// the layer packages, with a span around each call: parse, check,
// lower, mono, norm, opt, validate, analysis under a "compile" root,
// then translate and run under an "execute" root. The module must be
// byte-identical to core.CompileFiles under core.Compiled(); the
// compile-cold fidelity check holds it to that.
func composeCompile(ctx context.Context, files []core.File, tr *tracer, op int) (*composed, error) {
	jobs := runtime.GOMAXPROCS(0) // core.Compiled() leaves Jobs at 0
	errs := &src.ErrorList{}
	c := &composed{}
	var err error
	t0 := time.Now()
	root := tr.begin(op, -1, "compile")
	stage := func(name string, fn func()) bool {
		if err != nil {
			return false
		}
		tr.do(op, root, name, fn)
		if err == nil && !errs.Empty() {
			err = errs
		}
		return err == nil
	}
	var parsed []*ast.File
	var prog *typecheck.Program
	var mod *ir.Module
	stage("parse", func() {
		for _, f := range files {
			parsed = append(parsed, parser.Parse(f.Name, f.Source, errs))
			c.lines += strings.Count(f.Source, "\n")
		}
	})
	stage("check", func() { prog = typecheck.Check(parsed, errs) })
	stage("lower", func() { mod, err = lower.Lower(ctx, prog, jobs) })
	stage("mono", func() { mod, c.mono, err = mono.Monomorphize(ctx, mod, mono.Config{Jobs: jobs}) })
	stage("norm", func() { mod, c.norm, err = norm.Normalize(ctx, mod, jobs) })
	stage("opt", func() { c.opt, err = opt.Optimize(ctx, mod, opt.Config{Jobs: jobs, Analyze: true}) })
	stage("validate", func() { err = mod.Validate() })
	stage("analysis", func() {
		var res *analysis.Result
		if res, err = analysis.Analyze(ctx, mod, analysis.Config{Jobs: jobs}); err == nil {
			err = analysis.VerifyPromotions(mod, res)
		}
	})
	tr.end(root)
	c.compile = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("composed pipeline: %w", err)
	}
	c.mod = mod

	exec := tr.begin(op, -1, "execute")
	var p *engine.Program
	tr.do(op, exec, "translate", func() { p = engine.CompileProfiled(mod, nil) })
	var b strings.Builder
	tr.do(op, exec, "run", func() {
		e := engine.New(p, interp.Options{Out: &b, Ctx: ctx})
		_, rerr := e.Run()
		c.stats = e.Stats()
		c.out = outcome{kind: runKind(rerr), output: b.String()}
	})
	tr.end(exec)
	return c, nil
}
