// Command virgil is the Virgil-core compiler driver.
//
// Usage:
//
//	virgil run [-config ref|mono|norm|full] [-engine bytecode|switch] [-analyze=bool] [-verify-ir] [-max-errors n] [-max-steps n] [-max-depth n] [-max-heap n] [-timeout d] [-profile-out file] [-profile-in file] file.v...
//	virgil check [-config ...] [-verify-ir] file.v...
//	virgil dump [-config ...] [-verify-ir] file.v...
//	virgil lint [-lint-strict] file.v...
//	virgil analyze file.v...
//	virgil profile [-profile-out file] [-profile-in file] file.v...
//	virgil stats file.v...
//	virgil serve [-addr host:port] [-engine bytecode|switch] [-max-concurrent n] [-queue n] [-default-timeout d] [-max-timeout d] [-drain-timeout d] [-tier-after n] [-max-request-bytes n] [-peers url,...] [-self url] [-peer-timeout d] [-peer-attempts n]
//
// run executes the program; check compiles under the selected config
// without executing; dump prints the IR after the selected pipeline
// stages; lint reports advisory diagnostics from two layers — AST
// rules (unreachable code, locals read before initialization, unused
// locals, fields, private functions and type parameters,
// statically-decided casts) and whole-program IR rules (result of a
// pure call unused, provably infinite loops, allocations inside loops)
// — exiting 2 when findings exist, or 1 under -lint-strict; analyze
// emits the whole-program static analysis (call graph, escape
// verdicts, per-function effects, interval summary) as stable JSON;
// stats prints monomorphization,
// normalization and optimization statistics; serve runs the compiler
// as an HTTP JSON service (endpoints /compile, /run, /healthz,
// /stats) until SIGINT/SIGTERM — with -peers it joins a static fleet
// that routes each program to its consistent-hash owner with retry,
// per-peer circuit breakers, and graceful degradation to local
// execution (see internal/cluster) — then drains in-flight requests and
// exits. -engine selects the execution engine: bytecode (the default;
// compiles IR to register bytecode with unboxed scalars and inline
// caches) or switch (the direct tree-walking interpreter, kept as
// reference semantics) — the two are observably identical. -analyze
// (default true) toggles the analysis-driven optimizer passes under
// -config full: call-graph devirtualization, pure-call elimination,
// and stack promotion of non-escaping allocations. -verify-ir runs
// the typed IR verifier after every pipeline stage (also enabled by
// the VIRGIL_VERIFY_IR environment variable). -max-errors caps
// reported diagnostics (0 = default cap). -max-heap bounds the
// modeled heap (cumulative allocation cost in bytes) of the executed
// program; exceeding it raises the deterministic !HeapExhausted trap.
//
// profile runs the program with output discarded and prints the
// recorded execution profile as stable JSON; run -profile-out=file
// does the same while keeping
// the program's output. -profile-in feeds a recorded profile back into
// the compile for profile-guided optimization: speculative
// devirtualization of observed-monomorphic call sites (guarded, never
// a deopt trap) and hot inlining — a stale profile can cost speed,
// never correctness.
//
// Exit codes: 0 success; 1 source diagnostics, Virgil trap, resource
// exhaustion, or lint findings under -lint-strict; 2 usage error or
// lint findings; 3 internal compiler error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lint"
	"repro/internal/profile"
	"repro/internal/src"
)

// Exit codes distinguish faults in the input (1) from faults in the
// invocation (2) and faults in the compiler itself (3).
const (
	exitOK    = 0
	exitDiag  = 1
	exitUsage = 2
	exitICE   = 3
	// exitLint is the distinct code for "the program compiles but lint
	// found something". It shares the number with exitUsage — findings
	// and usage errors are both "fix your invocation/input, nothing
	// ran" — and is told apart by the findings on stdout.
	exitLint = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: it parses argv, dispatches the
// subcommand, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		usage(stderr)
		return exitUsage
	}
	cmd := argv[0]
	switch cmd {
	case "run", "check", "dump", "lint", "stats", "analyze", "profile":
	case "serve":
		return serveCmd(argv[1:], stdout, stderr)
	default:
		usage(stderr)
		return exitUsage
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgName := fs.String("config", "full", "pipeline config: ref, mono, norm, or full")
	engine := fs.String("engine", "", "execution engine: bytecode (default) or switch")
	verifyIR := fs.Bool("verify-ir", false, "run the typed IR verifier after every pipeline stage")
	maxSteps := fs.Int64("max-steps", 0, "step budget for execution (0 = default)")
	maxDepth := fs.Int("max-depth", 0, "call-depth limit for execution (0 = default)")
	maxHeap := fs.Int64("max-heap", 0, "modeled heap budget in bytes for execution (0 = default, 1 GiB)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for execution (0 = none)")
	maxErrors := fs.Int("max-errors", 0, "cap on reported diagnostics (0 = default cap)")
	analyze := fs.Bool("analyze", true, "run the whole-program analysis passes under -config full (devirtualization, pure-call elimination, stack promotion)")
	lintStrict := fs.Bool("lint-strict", false, "treat lint findings as compile errors (exit 1 instead of 2)")
	profileOut := fs.String("profile-out", "", "record an execution profile during run/profile and write it to this file (\"-\" = stdout)")
	profileIn := fs.String("profile-in", "", "feed a recorded profile into the compile for profile-guided optimization (requires -config full)")
	if err := fs.Parse(argv[1:]); err != nil {
		return exitUsage
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "virgil: no input files")
		return exitUsage
	}
	cfg, err := configByName(*cfgName)
	if err != nil {
		fmt.Fprintln(stderr, "virgil:", err)
		return exitUsage
	}
	cfg.Engine = *engine
	cfg.VerifyIR = *verifyIR
	cfg.MaxSteps = *maxSteps
	cfg.MaxDepth = *maxDepth
	cfg.MaxHeap = *maxHeap
	cfg.Timeout = *timeout
	cfg.MaxErrors = *maxErrors
	if !*analyze {
		cfg.Analyze = false
	}
	if cmd == "profile" || (*profileOut != "" && cmd == "run") {
		cfg.Profile = true
	}
	if *profileIn != "" {
		f, err := os.Open(*profileIn)
		if err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitDiag
		}
		p, err := profile.Decode(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitDiag
		}
		cfg.PGO = p
	}

	var srcs []core.File
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitDiag
		}
		srcs = append(srcs, core.File{Name: name, Source: string(data)})
	}

	switch cmd {
	case "check":
		if _, err := core.CompileFiles(srcs, cfg); err != nil {
			return report(stderr, err)
		}
	case "run":
		comp, err := core.CompileFiles(srcs, cfg)
		if err != nil {
			return report(stderr, err)
		}
		if comp.Module.Main == nil {
			fmt.Fprintln(stderr, "virgil: program has no main function")
			return exitDiag
		}
		if *profileOut == "" {
			if _, err := comp.RunTo(stdout, 0); err != nil {
				fmt.Fprintln(stdout)
				return report(stderr, err)
			}
		} else {
			_, prof, err := comp.RunProfiled(context.Background(), stdout, core.RunOpts{})
			if err != nil {
				fmt.Fprintln(stdout)
				return report(stderr, err)
			}
			if code := writeProfile(prof, *profileOut, stdout, stderr); code != exitOK {
				return code
			}
		}
	case "profile":
		comp, err := core.CompileFiles(srcs, cfg)
		if err != nil {
			return report(stderr, err)
		}
		if comp.Module.Main == nil {
			fmt.Fprintln(stderr, "virgil: program has no main function")
			return exitDiag
		}
		_, prof, err := comp.RunProfiled(context.Background(), io.Discard, core.RunOpts{})
		if err != nil {
			return report(stderr, err)
		}
		dest := *profileOut
		if dest == "" {
			dest = "-"
		}
		if code := writeProfile(prof, dest, stdout, stderr); code != exitOK {
			return code
		}
	case "dump":
		comp, err := core.CompileFiles(srcs, cfg)
		if err != nil {
			return report(stderr, err)
		}
		fmt.Fprint(stdout, comp.Module.String())
	case "lint":
		return lintCmd(stdout, stderr, srcs, *lintStrict)
	case "analyze":
		if !cfg.Optimize || !cfg.Analyze {
			fmt.Fprintln(stderr, "virgil: analyze requires -config full with -analyze enabled")
			return exitUsage
		}
		comp, err := core.CompileFiles(srcs, cfg)
		if err != nil {
			return report(stderr, err)
		}
		out, err := analysis.ReportJSON(comp.Analysis)
		if err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitICE
		}
		if _, err := stdout.Write(out); err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitDiag
		}
	case "stats":
		return printStats(stdout, stderr, srcs)
	}
	return exitOK
}

// lintCmd runs both lint layers: the AST rules over the checked
// program, and the IR rules over the monomorphized (but unoptimized)
// module with whole-program analysis facts — unoptimized because the
// optimizer would delete the very defects these rules report.
// Findings exist: exit code 2, or 1 under -lint-strict (findings
// promoted to errors).
func lintCmd(stdout, stderr io.Writer, srcs []core.File, strict bool) int {
	prog, err := core.CheckFiles(srcs)
	if err != nil {
		return report(stderr, err)
	}
	findings := lint.Run(prog)
	comp, err := core.CompileFiles(srcs, core.Config{Monomorphize: true})
	if err != nil {
		return report(stderr, err)
	}
	res, err := analysis.Analyze(context.Background(), comp.Module, analysis.Config{})
	if err != nil {
		return report(stderr, err)
	}
	findings = append(findings, lint.RunIR(comp.Module, res)...)
	lint.SortFindings(findings)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		if strict {
			return exitDiag
		}
		return exitLint
	}
	return exitOK
}

// writeProfile encodes a recorded execution profile as stable JSON to
// path ("-" = stdout). The encoding is byte-identical for a given
// program and inputs.
func writeProfile(p *profile.Profile, path string, stdout, stderr io.Writer) int {
	if p == nil {
		fmt.Fprintln(stderr, "virgil: no profile was recorded (profiles require the bytecode engine)")
		return exitDiag
	}
	if path == "-" {
		if err := p.Encode(stdout); err != nil {
			fmt.Fprintln(stderr, "virgil:", err)
			return exitDiag
		}
		return exitOK
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "virgil:", err)
		return exitDiag
	}
	if err := p.Encode(f); err != nil {
		f.Close()
		fmt.Fprintln(stderr, "virgil:", err)
		return exitDiag
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "virgil:", err)
		return exitDiag
	}
	return exitOK
}

// report prints err in its user-facing form and returns the exit code
// for its class: ICEs are compiler bugs (3, with a one-line summary and
// an optional stack under VIRGIL_ICE_STACK=1); Virgil traps print their
// source-level stack trace; everything else is an input diagnostic (1).
func report(stderr io.Writer, err error) int {
	var ice *src.ICE
	if errors.As(err, &ice) {
		fmt.Fprintln(stderr, "virgil:", ice.Error())
		fmt.Fprintln(stderr, "virgil: this is a bug in the compiler, not in your program; please report it")
		if os.Getenv("VIRGIL_ICE_STACK") != "" && ice.Stack != "" {
			fmt.Fprintln(stderr, ice.Stack)
		}
		return exitICE
	}
	var ve *interp.VirgilError
	if errors.As(err, &ve) {
		fmt.Fprintln(stderr, ve.Error())
		fmt.Fprint(stderr, ve.TraceString())
		return exitDiag
	}
	fmt.Fprintln(stderr, err)
	return exitDiag
}

func configByName(name string) (core.Config, error) {
	switch name {
	case "ref", "reference":
		return core.Reference(), nil
	case "mono":
		return core.Config{Monomorphize: true}, nil
	case "norm":
		return core.Config{Monomorphize: true, Normalize: true}, nil
	case "full":
		return core.Compiled(), nil
	}
	return core.Config{}, fmt.Errorf("unknown config %q (want ref, mono, norm, or full)", name)
}

func printStats(stdout, stderr io.Writer, srcs []core.File) int {
	comp, err := core.CompileFiles(srcs, core.Compiled())
	if err != nil {
		return report(stderr, err)
	}
	ms := comp.MonoStats
	fmt.Fprintf(stdout, "monomorphization (§4.3):\n")
	fmt.Fprintf(stdout, "  functions: %d -> %d\n", ms.FuncsBefore, ms.FuncsAfter)
	fmt.Fprintf(stdout, "  classes:   %d -> %d\n", ms.ClassesBefore, ms.ClassesAfter)
	fmt.Fprintf(stdout, "  instrs:    %d -> %d (expansion %.2fx)\n", ms.InstrsBefore, ms.InstrsAfter, ms.ExpansionFactor())
	fmt.Fprintf(stdout, "  top specializations:\n")
	for i, fe := range ms.PerFunc {
		if i >= 10 || fe.Instances < 2 {
			break
		}
		fmt.Fprintf(stdout, "    %-30s %3d instances, %4d -> %4d instrs\n", fe.Name, fe.Instances, fe.InstrsBefore, fe.InstrsAfter)
	}
	ns := comp.NormStats
	fmt.Fprintf(stdout, "normalization (§4.2):\n")
	fmt.Fprintf(stdout, "  tuples eliminated: %d\n", ns.TuplesEliminated)
	fmt.Fprintf(stdout, "  fields split:      %d\n", ns.FieldsSplit)
	fmt.Fprintf(stdout, "  globals split:     %d\n", ns.GlobalsSplit)
	fmt.Fprintf(stdout, "  params split:      %d\n", ns.ParamsSplit)
	osStats := comp.OptStats
	fmt.Fprintf(stdout, "optimization (§3.3):\n")
	fmt.Fprintf(stdout, "  instrs:          %d -> %d\n", osStats.InstrsBefore, osStats.InstrsAfter)
	fmt.Fprintf(stdout, "  queries folded:  %d\n", osStats.QueriesFolded)
	fmt.Fprintf(stdout, "  casts elided:    %d\n", osStats.CastsElided)
	fmt.Fprintf(stdout, "  branches folded: %d\n", osStats.BranchesFolded)
	fmt.Fprintf(stdout, "  calls inlined:   %d\n", osStats.Inlined)
	fmt.Fprintf(stdout, "timings: parse %v, check %v, lower %v, mono %v, norm %v, opt %v, total %v\n",
		comp.Timings.Parse, comp.Timings.Check, comp.Timings.Lower,
		comp.Timings.Mono, comp.Timings.Norm, comp.Timings.Opt, comp.Timings.Total)
	return exitOK
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `usage: virgil <command> [-config ref|mono|norm|full] [-engine bytecode|switch] [-analyze=bool] [-verify-ir] [-max-errors n] [-max-steps n] [-max-depth n] [-max-heap n] [-timeout d] [-profile-out file] [-profile-in file] file.v...
       virgil serve [-addr host:port] [-engine bytecode|switch] [-max-concurrent n] [-queue n] [-default-timeout d] [-max-timeout d] [-drain-timeout d] [-tier-after n] [-max-request-bytes n] [-peers url,...] [-self url] [-peer-timeout d] [-peer-attempts n]

commands:
  run      compile and execute the program (-profile-out records an execution profile, -profile-in optimizes with one)
  check    compile under the selected config without executing
  dump     print the IR after the selected pipeline stages
  lint     report advisory diagnostics (unused code, pure calls, loop allocs, ...); -lint-strict makes them errors
  analyze  print the whole-program static analysis (call graph, escapes, effects) as JSON
  profile  run the program (output discarded) and print its execution profile as stable JSON
  stats    print per-stage compilation statistics
  serve    run the compiler as an HTTP JSON service (/compile, /run, /healthz, /stats)

exit codes: 0 ok; 1 diagnostics, trap, resource limit, or strict lint findings; 2 usage or lint findings; 3 internal compiler error`)
}
