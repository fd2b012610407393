package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
)

const ctxProg = `
def work(n: int) -> int {
	var s = 0;
	for (i = 0; i < n; i = i + 1) s = s + i;
	return s;
}
def main() {
	System.puti(work(10));
	System.ln();
}
`

// TestCompileCancelledBeforeStart: a ctx that is already done must stop
// the pipeline at the first stage boundary with a wrapped ctx error.
func TestCompileCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileFilesContext(ctx, []File{{Name: "t.v", Source: ctxProg}}, Compiled())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "parse") {
		t.Fatalf("cancellation not attributed to the first stage: %v", err)
	}
}

// TestCompileCancelledMidPipeline arms a long ctx-aware delay at the
// mono boundary of the largest corpus program, cancels shortly after
// starting, and asserts the pipeline unwinds promptly — the
// cancellation bound that internal/serve relies on to free slots. It
// then compiles a large generated program under a deadline that ends
// midway through the compile, which the per-function ctx checks inside
// the stages must honor.
func TestCompileCancelledMidPipeline(t *testing.T) {
	r, perr := faultinject.Parse("mono:delay:0:10000")
	if perr != nil {
		t.Fatal(perr)
	}
	defer faultinject.Set(r)()

	p := largestCorpusProg()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CompileFilesContext(ctx, []File{{Name: p.Name + ".v", Source: p.Source}}, Compiled())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("compilation did not unwind within 100ms of cancellation")
	}

	files := []File{{Name: "scale8.v", Source: progen.Generate(progen.Scale(8))}}
	start := time.Now()
	if _, err := CompileFilesContext(context.Background(), files, Compiled()); err != nil {
		t.Fatalf("uncancelled compile: %v", err)
	}
	full := time.Since(start)
	dctx, dcancel := context.WithTimeout(context.Background(), full/2)
	defer dcancel()
	if _, err := CompileFilesContext(dctx, files, Compiled()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("compile under a %v deadline (full compile %v): err = %v, want context.DeadlineExceeded", full/2, full, err)
	}
}

// largestCorpusProg returns the corpus program with the longest source.
func largestCorpusProg() testprogs.Prog {
	all := testprogs.All()
	best := all[0]
	for _, p := range all {
		if len(p.Source) > len(best.Source) {
			best = p
		}
	}
	return best
}

// TestRunContextCancelled: a cancelled ctx stops the interpreter's step
// loop with a structured ResourceError, not a hang or a panic.
func TestRunContextCancelled(t *testing.T) {
	src := `
def main() {
	var i = 0;
	while (true) i = i + 1;
}
`
	comp, err := Compile("loop.v", src, Compiled())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := comp.RunContext(ctx)
	var re *interp.ResourceError
	if !errors.As(res.Err, &re) || re.Kind != "cancelled" {
		t.Fatalf("Err = %v, want ResourceError{cancelled}", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

// TestFaultMatrixEveryStage injects each fault kind at every pipeline
// boundary (including the interpreter) and asserts the
// outcome is always structured: panics become stage-tagged ICEs, errors
// surface wrapping ErrInjected, delays only slow the run — and a clean
// compile of the same source still succeeds afterwards (no corrupted
// shared state in types.Cache).
func TestFaultMatrixEveryStage(t *testing.T) {
	stages := []string{"parse", "check", "lower", "mono", "norm", "opt", "validate", "interp",
		"verify-lower", "verify-mono", "verify-norm", "verify-opt"}
	cfg := Compiled()
	cfg.VerifyIR = true
	for _, stage := range stages {
		for _, kind := range []string{faultinject.KindPanic, faultinject.KindErr, faultinject.KindDelay} {
			t.Run(stage+"/"+kind, func(t *testing.T) {
				r, perr := faultinject.Parse(fmt.Sprintf("%s:%s:0:10", stage, kind))
				if perr != nil {
					t.Fatal(perr)
				}
				restore := faultinject.Set(r)
				comp, err := Compile("t.v", ctxProg, cfg)
				var runErr error
				if err == nil {
					runErr = comp.Run().Err
				}
				restore()

				switch kind {
				case faultinject.KindDelay:
					if err != nil || runErr != nil {
						t.Fatalf("delay fault must not fail the pipeline: compile=%v run=%v", err, runErr)
					}
				case faultinject.KindErr:
					got := err
					if got == nil {
						got = runErr
					}
					if !errors.Is(got, faultinject.ErrInjected) {
						t.Fatalf("compile=%v run=%v, want ErrInjected", err, runErr)
					}
				case faultinject.KindPanic:
					got := err
					if got == nil {
						got = runErr
					}
					var ice *src.ICE
					if !errors.As(got, &ice) {
						t.Fatalf("compile=%v run=%v, want *src.ICE", err, runErr)
					}
					if !strings.Contains(ice.Msg, "injected panic") {
						t.Fatalf("ICE does not carry the injected panic: %v", ice)
					}
				}

				// The same process must compile and run cleanly afterwards.
				comp, err = Compile("t.v", ctxProg, cfg)
				if err != nil {
					t.Fatalf("clean compile after %s:%s failed: %v", stage, kind, err)
				}
				if res := comp.Run(); res.Err != nil || res.Output != "45\n" {
					t.Fatalf("clean run after %s:%s: out=%q err=%v", stage, kind, res.Output, res.Err)
				}
			})
		}
	}
}

// TestBytecodeFaultPointsNthHit drives the two bytecode-only points
// ("translate" before IR-to-bytecode translation, "engine" before the
// first bytecode instruction) through the nth-hit protocol: with a
// fault armed for crossing n, runs 0..n-1 are clean, run n fails with
// the structured form of the fault (stage-tagged ICE for panics, a
// wrapped ErrInjected for errs, nothing at all for delays), and runs
// after n are clean again — the fault fires exactly once per arming.
func TestBytecodeFaultPointsNthHit(t *testing.T) {
	for _, stage := range []string{"translate", "engine"} {
		for _, tt := range []struct {
			kind string
			nth  int
		}{
			{faultinject.KindPanic, 0},
			{faultinject.KindPanic, 2},
			{faultinject.KindErr, 0},
			{faultinject.KindErr, 2},
			{faultinject.KindDelay, 0},
		} {
			t.Run(fmt.Sprintf("%s/%s/nth=%d", stage, tt.kind, tt.nth), func(t *testing.T) {
				r, perr := faultinject.Parse(fmt.Sprintf("%s:%s:%d:10", stage, tt.kind, tt.nth))
				if perr != nil {
					t.Fatal(perr)
				}
				defer faultinject.Set(r)()

				comp, err := Compile("t.v", ctxProg, Compiled())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				// Every Run crosses each execution point exactly once.
				for run := 0; run <= tt.nth+1; run++ {
					runErr := comp.Run().Err
					if run != tt.nth || tt.kind == faultinject.KindDelay {
						if runErr != nil {
							t.Fatalf("run %d: %v, want clean (fault armed for crossing %d)", run, runErr, tt.nth)
						}
						continue
					}
					switch tt.kind {
					case faultinject.KindErr:
						if !errors.Is(runErr, faultinject.ErrInjected) {
							t.Fatalf("run %d: %v, want ErrInjected", run, runErr)
						}
					case faultinject.KindPanic:
						var ice *src.ICE
						if !errors.As(runErr, &ice) {
							t.Fatalf("run %d: %v, want *src.ICE", run, runErr)
						}
						if !strings.Contains(ice.Msg, "injected panic at "+stage) {
							t.Fatalf("ICE does not name the point: %v", ice)
						}
					}
				}
			})
		}
	}
}

// TestSwitchEngineSkipsBytecodePoints: the switch interpreter must
// never cross translate/engine. This invariant is what makes the serve
// watchdog's fallback re-run safe while the fault is still armed.
func TestSwitchEngineSkipsBytecodePoints(t *testing.T) {
	for _, stage := range []string{"translate", "engine"} {
		func() {
			r, perr := faultinject.Parse(stage + ":panic:0")
			if perr != nil {
				t.Fatal(perr)
			}
			defer faultinject.Set(r)()
			cfg := Compiled()
			cfg.Engine = EngineSwitch
			comp, err := Compile("t.v", ctxProg, cfg)
			if err != nil {
				t.Fatalf("[%s] compile: %v", stage, err)
			}
			if res := comp.Run(); res.Err != nil || res.Output != "45\n" {
				t.Fatalf("[%s] switch run crossed a bytecode-only point: out=%q err=%v", stage, res.Output, res.Err)
			}
		}()
	}
}

// TestMaxErrorsCap pins the configurable diagnostic cap: MaxErrors
// diagnostics are reported followed by the sentinel carrying the true
// total.
func TestMaxErrorsCap(t *testing.T) {
	var b strings.Builder
	b.WriteString("def main() {\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "\tbogus%d();\n", i)
	}
	b.WriteString("}\n")

	// Each bogus call yields two diagnostics (unknown name + bad call),
	// so the program produces 60 in total.
	for _, tt := range []struct {
		maxErrors int
		wantLen   int
	}{
		{maxErrors: 0, wantLen: src.MaxReported + 1}, // default cap + sentinel
		{maxErrors: 3, wantLen: 4},
		{maxErrors: 100, wantLen: 60}, // under the cap: no sentinel
	} {
		cfg := Reference()
		cfg.MaxErrors = tt.maxErrors
		_, err := Compile("many.v", b.String(), cfg)
		var list *src.ErrorList
		if !errors.As(err, &list) {
			t.Fatalf("MaxErrors=%d: err = %T %v, want *src.ErrorList", tt.maxErrors, err, err)
		}
		if len(list.Errors) != tt.wantLen {
			t.Fatalf("MaxErrors=%d: %d diagnostics, want %d", tt.maxErrors, len(list.Errors), tt.wantLen)
		}
		if tt.maxErrors != 100 {
			last := list.Errors[len(list.Errors)-1]
			if !strings.Contains(last.Msg, "too many errors (60 total)") {
				t.Fatalf("MaxErrors=%d: sentinel = %q", tt.maxErrors, last.Msg)
			}
		}
	}
}
