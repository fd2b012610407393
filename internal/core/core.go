// Package core is the public entry point of the Virgil-core compiler:
// it wires the paper's full pipeline — parse, typecheck, lower,
// monomorphize (§4.3), normalize (§4.2), optimize — and executes the
// result.
//
// The pipeline has two canonical configurations:
//
//   - Reference(): the paper's interpreter — polymorphic IR, boxed
//     tuples, runtime type arguments, dynamic arity checks.
//   - Compiled(): the paper's static compiler — monomorphized,
//     normalized, optimized IR with scalar-only calling conventions.
//
// Intermediate configurations (mono without norm, etc.) exist for the
// ablation experiments.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/src"
	"repro/internal/typecheck"
)

// Config selects pipeline stages. Normalize requires Monomorphize;
// Optimize requires both. The resource-guard fields bound execution
// (Run/RunTo); zero values mean the interpreter defaults.
type Config struct {
	Monomorphize bool
	Normalize    bool
	Optimize     bool

	// Analyze enables the whole-program static-analysis layer
	// (internal/analysis) and the optimizer passes driven by it:
	// call-graph devirtualization, pure-call elimination, and stack
	// promotion of non-escaping allocations. Requires Optimize. The
	// final analysis of the optimized module is retained on the
	// Compilation for tooling (virgil analyze), and every promotion is
	// re-proven against it — an unprovable mark is an ICE, not a
	// silently unsound program.
	Analyze bool

	// Engine selects the execution engine: "bytecode" (the default,
	// also selected by "") compiles the post-pipeline IR to register
	// bytecode with unboxed scalars and inline caches; "switch" runs
	// the reference switch interpreter directly on the IR. The two are
	// observably identical — output, traps, stack traces, step
	// accounting, and Stats — differing only in speed.
	Engine string

	// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
	Jobs int

	// VerifyIR runs the typed IR verifier (ir.Verify) after every
	// pipeline stage, converting stage-local IR corruption into a
	// stage-tagged ICE at the earliest point it is observable. It also
	// double-compiles every function-granular CompileFilesIncremental
	// result from scratch and reports any difference as an ICE of stage
	// "incremental". The VIRGIL_VERIFY_IR environment variable
	// force-enables it.
	VerifyIR bool

	// MaxErrors caps the independent diagnostics reported from one
	// compilation before the "too many errors" sentinel replaces the
	// overflow (0 = the default cap, src.MaxReported; negative is a
	// Validate error).
	MaxErrors int

	// PGO, when non-nil, feeds a previously recorded profile into the
	// compile: the optimizer spends a raised inlining budget on
	// profile-hot functions, and the bytecode translator fuses
	// instruction runs in them. Profiles are advisory — a stale or wrong
	// profile can cost speed, never correctness, and observable behavior
	// is identical under both engines. Requires Optimize.
	PGO *profile.Profile

	// MaxSteps bounds executed IR instructions (0 = interpreter default).
	MaxSteps int64
	// MaxDepth bounds Virgil call depth; exceeding it raises the
	// !StackOverflow trap (0 = interpreter default).
	MaxDepth int
	// MaxHeap bounds the modeled allocation cost in bytes (see
	// interp.ChargeHeap); exceeding it raises the deterministic
	// !HeapExhausted trap (0 = interp.DefaultMaxHeap).
	MaxHeap int64
	// Timeout bounds wall-clock execution time (0 = none).
	Timeout time.Duration
}

// Reference returns the reference-interpreter configuration.
func Reference() Config { return Config{} }

// Compiled returns the full static-compilation configuration.
func Compiled() Config {
	return Config{Monomorphize: true, Normalize: true, Optimize: true, Analyze: true}
}

// guard runs one pipeline stage with a panic-recovery boundary,
// converting any panic into a structured internal-compiler-error
// diagnostic. No entry point of this package may leak a Go panic to
// its caller on malformed input.
func guard(stage string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &src.ICE{
				Stage: stage,
				Msg:   fmt.Sprint(r),
				Stack: src.TrimStack(debug.Stack(), 40),
			}
		}
	}()
	return fn()
}

// Name returns a short label for the configuration, used in reports.
func (c Config) Name() string {
	switch {
	case c.Optimize:
		return "mono+norm+opt"
	case c.Normalize:
		return "mono+norm"
	case c.Monomorphize:
		return "mono"
	default:
		return "reference"
	}
}

// Validate checks stage dependencies and resource fields.
func (c Config) Validate() error {
	if c.Normalize && !c.Monomorphize {
		return fmt.Errorf("core: Normalize requires Monomorphize (§4.2)")
	}
	if c.Optimize && !c.Normalize {
		return fmt.Errorf("core: Optimize requires Normalize")
	}
	if c.Analyze && !c.Optimize {
		return fmt.Errorf("core: Analyze requires Optimize")
	}
	if c.MaxErrors < 0 {
		return fmt.Errorf("core: MaxErrors must be >= 0 (0 selects the default cap %d), got %d", src.MaxReported, c.MaxErrors)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("core: MaxSteps must be >= 0, got %d", c.MaxSteps)
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("core: MaxDepth must be >= 0, got %d", c.MaxDepth)
	}
	if c.MaxHeap < 0 {
		return fmt.Errorf("core: MaxHeap must be >= 0, got %d", c.MaxHeap)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("core: Timeout must be >= 0, got %v", c.Timeout)
	}
	switch c.Engine {
	case "", EngineBytecode, EngineSwitch:
	default:
		return fmt.Errorf("core: Engine must be %q or %q, got %q", EngineBytecode, EngineSwitch, c.Engine)
	}
	if c.PGO != nil && !c.Optimize {
		return fmt.Errorf("core: PGO requires Optimize")
	}
	return nil
}

// Execution engine names for Config.Engine.
const (
	EngineBytecode = "bytecode"
	EngineSwitch   = "switch"
)

// EngineKind resolves the configured engine name, defaulting the empty
// string to the bytecode engine.
func (c Config) EngineKind() string {
	if c.Engine == "" {
		return EngineBytecode
	}
	return c.Engine
}

// maxErrors resolves the diagnostic cap: 0 defaults to src.MaxReported.
func (c Config) maxErrors() int {
	if c.MaxErrors == 0 {
		return src.MaxReported
	}
	return c.MaxErrors
}

// Timings records wall-clock duration of each stage (E7).
type Timings struct {
	Parse     time.Duration
	Check     time.Duration
	Lower     time.Duration
	Mono      time.Duration
	Norm      time.Duration
	Opt       time.Duration
	Analysis  time.Duration
	Total     time.Duration
	SourceLen int
}

// Compilation is the result of running the pipeline.
type Compilation struct {
	Config Config
	Module *ir.Module
	// MonoStats is set when monomorphization ran.
	MonoStats *mono.Stats
	// NormStats is set when normalization ran.
	NormStats *norm.Stats
	// OptStats is set when optimization ran.
	OptStats *opt.Stats
	// Analysis is the whole-program analysis of the final module, set
	// when Config.Analyze ran (the substrate of `virgil analyze`).
	Analysis *analysis.Result
	Timings  Timings

	// engOnce/engProg lazily hold the register-bytecode translation of
	// Module. The Program is immutable and shared by every Run on this
	// Compilation (and across concurrent runs), so a warm Compilation
	// pays translation once.
	engOnce sync.Once
	engProg *engine.Program

	// incrRec is the optimizer replay recording captured when this
	// compilation was assembled incrementally; the store carries it
	// into the next base entry.
	incrRec *opt.Recording
}

// engineProgram translates Module to register bytecode once per
// Compilation. Callers must hold the execution panic guard: a
// translation panic on corrupt IR surfaces as an interp-stage ICE,
// like the switch interpreter's own panic on the same IR.
func (c *Compilation) engineProgram() *engine.Program {
	c.engOnce.Do(func() { c.engProg = engine.CompileProfiled(c.Module, c.Config.PGO) })
	return c.engProg
}

// File is one named source file.
type File struct {
	Name   string
	Source string
}

// Compile runs the pipeline on one source string.
func Compile(name, source string, cfg Config) (*Compilation, error) {
	return CompileFiles([]File{{Name: name, Source: source}}, cfg)
}

// CompileFiles runs the pipeline on several files as one program with
// no external cancellation. See CompileFilesContext.
func CompileFiles(files []File, cfg Config) (*Compilation, error) {
	return CompileFilesContext(context.Background(), files, cfg)
}

// stageStart is the common prologue of every pipeline stage: it stops
// the compilation as soon as the caller's ctx ends (wrapping the cause
// so errors.Is(err, context.Canceled/DeadlineExceeded) holds) and
// carries the stage's fault-injection point.
func stageStart(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: compilation cancelled: %w", stage, err)
	}
	return faultinject.Point(ctx, stage)
}

// CompileFilesContext runs the pipeline on several files as one
// program, stopping at the first stage boundary (or before the next
// function inside a per-function stage) after ctx ends.
//
// Diagnostics in the input are returned as a *src.ErrorList carrying
// every independent error (capped at Config.MaxErrors with a "too many
// errors" sentinel). A panic in any stage is recovered at the stage
// boundary and returned as a *src.ICE — CompileFilesContext never
// panics on malformed input. Cancellation surfaces as an error
// satisfying errors.Is(err, ctx.Err()).
func CompileFilesContext(ctx context.Context, files []File, cfg Config) (*Compilation, error) {
	p, err := newPipeline(ctx, files, cfg)
	if err != nil {
		return nil, err
	}
	prog, err := p.check(nil)
	if err != nil {
		return nil, err
	}
	mod, err := p.lower(prog)
	if err != nil {
		return nil, err
	}
	return p.backend(mod, backendOpts{})
}

// pipeline carries one compilation through its stages. The stages are
// the same whether a compile runs from scratch or incrementally — the
// incremental path (CompileFilesIncremental) composes them with body
// filters and an optimizer replay instead of re-deriving everything.
type pipeline struct {
	ctx   context.Context
	cfg   Config
	comp  *Compilation
	errs  *src.ErrorList
	files []File
	start time.Time
}

// backendOpts are the incremental hooks into the pipeline's back half:
// body filters for monomorphization and normalization, an optimizer
// recording to fill, and a cut point after normalization where the
// incremental path takes over assembly.
type backendOpts struct {
	monoSkip      func(dstName, srcName string) bool
	normSkip      func(name string) bool
	record        *opt.Recording
	stopAfterNorm bool
}

func newPipeline(ctx context.Context, files []File, cfg Config) (*pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if os.Getenv("VIRGIL_VERIFY_IR") != "" {
		cfg.VerifyIR = true
	}
	return &pipeline{
		ctx:   ctx,
		cfg:   cfg,
		comp:  &Compilation{Config: cfg},
		errs:  &src.ErrorList{},
		files: files,
		start: time.Now(),
	}, nil
}

// verify runs the typed IR verifier after one stage; any finding is
// a compiler bug in that stage, reported as a stage-tagged ICE.
func (p *pipeline) verify(stage string, mod *ir.Module) error {
	if !p.cfg.VerifyIR {
		return nil
	}
	err := guard("verify-"+stage, func() error {
		if err := stageStart(p.ctx, "verify-"+stage); err != nil {
			return err
		}
		return mod.Verify()
	})
	if err == nil {
		return nil
	}
	if !isStructured(err) {
		err = &src.ICE{Stage: "verify-" + stage, Msg: fmt.Sprintf("invalid IR after %s: %v", stage, err)}
	}
	return err
}

func (p *pipeline) diags() error {
	p.errs.Sort()
	p.errs.Truncate(p.cfg.maxErrors())
	return p.errs
}

// check parses and typechecks the files. cached supplies ASTs by file
// name (the incremental parse cache); files not in it are parsed from
// source. The checker annotates AST nodes in place, so the caller must
// own every cached AST for as long as the program is in use.
func (p *pipeline) check(cached map[string]*ast.File) (*typecheck.Program, error) {
	t0 := time.Now()
	var parsed []*ast.File
	if err := guard("parse", func() error {
		if err := stageStart(p.ctx, "parse"); err != nil {
			return err
		}
		for _, f := range p.files {
			pf := cached[f.Name]
			if pf == nil {
				pf = parser.Parse(f.Name, f.Source, p.errs)
			}
			parsed = append(parsed, pf)
			p.comp.Timings.SourceLen += len(f.Source)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	p.comp.Timings.Parse = time.Since(t0)
	if !p.errs.Empty() {
		return nil, p.diags()
	}

	t0 = time.Now()
	var prog *typecheck.Program
	if err := guard("check", func() error {
		if err := stageStart(p.ctx, "check"); err != nil {
			return err
		}
		prog = typecheck.Check(parsed, p.errs)
		return nil
	}); err != nil {
		return nil, err
	}
	p.comp.Timings.Check = time.Since(t0)
	if !p.errs.Empty() {
		return nil, p.diags()
	}
	return prog, nil
}

// lower lowers a checked program. Lowering only reads prog, so the
// incremental path lowers it again when a partial backend has consumed
// the first lowering and the compile falls back to a full one.
func (p *pipeline) lower(prog *typecheck.Program) (*ir.Module, error) {
	t0 := time.Now()
	var mod *ir.Module
	if err := guard("lower", func() error {
		if err := stageStart(p.ctx, "lower"); err != nil {
			return err
		}
		var err error
		mod, err = lower.Lower(p.ctx, prog, 0)
		return err
	}); err != nil {
		return nil, err
	}
	p.comp.Timings.Lower = time.Since(t0)
	if err := p.verify("lower", mod); err != nil {
		return nil, err
	}
	return mod, nil
}

// backend runs the configured transformation stages over the lowered
// module and finishes the compilation. Each stage consumes its input
// module (mono and norm move bodies out of it), so mod must not be
// used again afterwards. With opts.stopAfterNorm it
// returns after normalization with Compilation.Module set to the
// normalized module and no validation — the incremental path assembles
// and finishes the module itself.
func (p *pipeline) backend(mod *ir.Module, opts backendOpts) (*Compilation, error) {
	ctx, cfg, comp := p.ctx, p.cfg, p.comp
	if cfg.Monomorphize {
		t0 := time.Now()
		if err := guard("mono", func() error {
			if err := stageStart(ctx, "mono"); err != nil {
				return err
			}
			monoMod, stats, err := mono.Monomorphize(ctx, mod, mono.Config{SkipBody: opts.monoSkip})
			if err != nil {
				return err
			}
			comp.MonoStats = stats
			mod = monoMod
			return nil
		}); err != nil {
			return nil, err
		}
		comp.Timings.Mono = time.Since(t0)
		if opts.monoSkip == nil {
			if err := p.verify("mono", mod); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Normalize {
		t0 := time.Now()
		if err := guard("norm", func() error {
			if err := stageStart(ctx, "norm"); err != nil {
				return err
			}
			normMod, stats, err := norm.NormalizeSkip(ctx, mod, opts.normSkip)
			if err != nil {
				return err
			}
			comp.NormStats = stats
			mod = normMod
			return nil
		}); err != nil {
			return nil, err
		}
		comp.Timings.Norm = time.Since(t0)
		if opts.normSkip == nil {
			if err := p.verify("norm", mod); err != nil {
				return nil, err
			}
		}
	}
	if opts.stopAfterNorm {
		comp.Module = mod
		return comp, nil
	}
	if cfg.Optimize {
		t0 := time.Now()
		if err := guard("opt", func() error {
			if err := stageStart(ctx, "opt"); err != nil {
				return err
			}
			stats, err := opt.Optimize(ctx, mod, opt.Config{Analyze: cfg.Analyze, Profile: cfg.PGO, Record: opts.record})
			if err != nil {
				return err
			}
			comp.OptStats = stats
			return nil
		}); err != nil {
			return nil, err
		}
		comp.Timings.Opt = time.Since(t0)
		if err := p.verify("opt", mod); err != nil {
			return nil, err
		}
	}
	return p.finish(mod)
}

// finish validates the final module, runs the closing analysis pass,
// and seals the Compilation. Both the scratch and incremental paths
// end here.
func (p *pipeline) finish(mod *ir.Module) (*Compilation, error) {
	ctx, cfg, comp := p.ctx, p.cfg, p.comp
	if err := guard("validate", func() error {
		if err := stageStart(ctx, "validate"); err != nil {
			return err
		}
		return mod.Validate()
	}); err != nil {
		if !isStructured(err) {
			err = &src.ICE{Stage: "validate", Msg: fmt.Sprintf("invalid IR after %s: %v", cfg.Name(), err)}
		}
		return nil, err
	}
	if cfg.Analyze {
		// Re-analyze the final module and re-prove every stack
		// promotion the optimizer made. This run is independent of the
		// optimizer's own facts — a pass promoting on stale or wrong
		// facts is an ICE here, never a silently unsound program. The
		// result is kept for tooling (virgil analyze, serve).
		t0 := time.Now()
		if err := guard("analysis", func() error {
			if err := stageStart(ctx, "analysis"); err != nil {
				return err
			}
			res, err := analysis.Analyze(ctx, mod, analysis.Config{})
			if err != nil {
				return err
			}
			if err := analysis.VerifyPromotions(mod, res); err != nil {
				return &src.ICE{Stage: "analysis", Msg: err.Error()}
			}
			comp.Analysis = res
			return nil
		}); err != nil {
			if !isStructured(err) {
				err = &src.ICE{Stage: "analysis", Msg: err.Error()}
			}
			return nil, err
		}
		comp.Timings.Analysis = time.Since(t0)
	}
	comp.Module = mod
	comp.Timings.Total = time.Since(p.start)
	return comp, nil
}

// isStructured reports whether err already has a user-facing shape —
// an ICE, an injected fault, or a cancellation — and must not be
// re-wrapped as an "invalid IR" ICE.
func isStructured(err error) bool {
	if _, ok := err.(*src.ICE); ok {
		return true
	}
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, faultinject.ErrInjected)
}

// CheckFiles parses and typechecks files as one program without
// lowering, for tools that work on the typed AST (virgil lint).
// Diagnostics come back as a *src.ErrorList and panics as stage-tagged
// *src.ICE values, exactly as in CompileFiles.
func CheckFiles(files []File) (*typecheck.Program, error) {
	p, err := newPipeline(context.Background(), files, Reference())
	if err != nil {
		return nil, err
	}
	return p.check(nil)
}

// RunResult is the outcome of executing a compiled program.
type RunResult struct {
	Output string
	Stats  interp.Stats
	Err    error // the Virgil exception, if the program threw
}

// options derives interpreter options from the config's resource
// guards and the caller's ctx.
func (c *Compilation) options(ctx context.Context, w io.Writer) interp.Options {
	return interp.Options{
		Out:      w,
		MaxSteps: c.Config.MaxSteps,
		MaxDepth: c.Config.MaxDepth,
		MaxHeap:  c.Config.MaxHeap,
		Timeout:  c.Config.Timeout,
		Ctx:      ctx,
	}
}

// execute runs the configured execution engine behind the same
// fault-containment boundary as compilation: panics and internal
// engine errors surface as *src.ICE, while Virgil traps
// (*interp.VirgilError) and resource-guard stops
// (*interp.ResourceError) pass through. The "interp" fault-injection
// point fires before the first instruction — and, for the bytecode
// engine, before translation, so injected faults and cancellation
// behave identically under both engines. Stats are captured in a
// defer so a panicking run still reports the work done so far.
func (c *Compilation) execute(ctx context.Context, o interp.Options) (interp.Stats, error) {
	stats, _, err := c.executeOn(ctx, c.Config.EngineKind(), o)
	return stats, err
}

// executeOn is execute on an explicit engine kind, letting callers
// (the serve watchdog) re-run a warm Compilation on the switch
// interpreter without recompiling. The bytecode path carries two
// extra fault-injection points bracketing its engine-specific work —
// "translate" before bytecode translation and "engine" before the
// first bytecode instruction — which the switch path never crosses,
// so a fallback re-run cannot re-fire them.
func (c *Compilation) executeOn(ctx context.Context, kind string, o interp.Options) (stats interp.Stats, prof *profile.Profile, _ error) {
	err := guard("interp", func() error {
		if err := stageStart(ctx, "interp"); err != nil {
			return err
		}
		if kind == EngineSwitch {
			it := interp.New(c.Module, o)
			defer func() { stats = it.Stats() }()
			_, err := it.Run()
			return err
		}
		if err := faultinject.Point(ctx, "translate"); err != nil {
			return err
		}
		p := c.engineProgram()
		if err := faultinject.Point(ctx, "engine"); err != nil {
			return err
		}
		e := engine.New(p, o)
		defer func() {
			stats = e.Stats()
			prof = e.Profile()
		}()
		_, err := e.Run()
		return err
	})
	switch err.(type) {
	case nil, *interp.VirgilError, *interp.ResourceError, *src.ICE:
		return stats, prof, err
	}
	if isStructured(err) {
		return stats, prof, err
	}
	// Any other error from the engine is an internal inconsistency
	// (bad IR reached execution), not a fault in the user's program.
	return stats, prof, &src.ICE{Stage: "interp", Msg: err.Error()}
}

// Run executes the compiled module, capturing System output and
// honoring the config's resource guards.
func (c *Compilation) Run() RunResult {
	return c.RunContext(context.Background())
}

// RunContext is Run bounded by ctx: the engine's step loop polls the
// ctx and stops with an *interp.ResourceError of Kind "cancelled"
// once it ends.
func (c *Compilation) RunContext(ctx context.Context) RunResult {
	var out strings.Builder
	stats, err := c.execute(ctx, c.options(ctx, &out))
	return RunResult{Output: out.String(), Stats: stats, Err: err}
}

// RunTo executes the compiled module writing System output to w. A
// nonzero maxSteps overrides the config's step budget.
func (c *Compilation) RunTo(w io.Writer, maxSteps int64) (interp.Stats, error) {
	return c.RunToContext(context.Background(), w, maxSteps)
}

// RunToContext is RunTo bounded by ctx.
func (c *Compilation) RunToContext(ctx context.Context, w io.Writer, maxSteps int64) (interp.Stats, error) {
	return c.RunWith(ctx, w, RunOpts{MaxSteps: maxSteps})
}

// RunOpts are per-run overrides of the compiled config's execution
// parameters; zero values keep the config's settings.
type RunOpts struct {
	// MaxSteps overrides the step budget when nonzero.
	MaxSteps int64
	// MaxHeap overrides the modeled heap budget when nonzero.
	MaxHeap int64
	// Engine overrides the execution engine when nonempty — the serve
	// watchdog uses this to re-run a request on the switch interpreter
	// after a bytecode-engine fault, and to pin quarantined programs to
	// the reference engine.
	Engine string
}

// RunWith executes the compiled module writing System output to w,
// with per-run overrides applied.
func (c *Compilation) RunWith(ctx context.Context, w io.Writer, opts RunOpts) (interp.Stats, error) {
	stats, _, err := c.runWith(ctx, w, opts, false)
	return stats, err
}

// RunProfiled is RunWith with profile recording on, returning the
// execution profile (per-function call and step counters) the bytecode
// engine collected alongside the run's stats. The profile is nil when
// the run never reached the engine (a switch-engine config or
// override, or a fault before execution).
func (c *Compilation) RunProfiled(ctx context.Context, w io.Writer, opts RunOpts) (interp.Stats, *profile.Profile, error) {
	return c.runWith(ctx, w, opts, true)
}

func (c *Compilation) runWith(ctx context.Context, w io.Writer, opts RunOpts, record bool) (interp.Stats, *profile.Profile, error) {
	o := c.options(ctx, w)
	o.Profile = record
	if opts.MaxSteps != 0 {
		o.MaxSteps = opts.MaxSteps
	}
	if opts.MaxHeap != 0 {
		o.MaxHeap = opts.MaxHeap
	}
	kind := c.Config.EngineKind()
	if opts.Engine != "" {
		kind = opts.Engine
	}
	return c.executeOn(ctx, kind, o)
}

// Interp returns a fresh switch interpreter over the compiled module,
// for callers that need to invoke individual functions (benchmarks).
func (c *Compilation) Interp(w io.Writer) *interp.Interp {
	return interp.New(c.Module, c.options(context.Background(), w))
}

// Engine returns a fresh bytecode engine over the compiled module, for
// callers that need to invoke individual functions (benchmarks). The
// underlying bytecode program is translated once per Compilation. A
// translation panic on corrupt IR is returned as an interp-stage ICE.
func (c *Compilation) Engine(w io.Writer) (*engine.Engine, error) {
	var e *engine.Engine
	err := guard("interp", func() error {
		e = engine.New(c.engineProgram(), c.options(context.Background(), w))
		return nil
	})
	return e, err
}

// Configs returns the four ablation configurations in pipeline order.
func Configs() []Config {
	return []Config{
		Reference(),
		{Monomorphize: true},
		{Monomorphize: true, Normalize: true},
		Compiled(),
	}
}
