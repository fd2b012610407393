package main

import (
	"context"
	"errors"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/src"
)

// outcome is the comparable result of compiling and running a program:
// how it ended and what it printed.
type outcome struct {
	kind   string // ok, diag, trap:<name>, resource, or error
	output string
}

// runKind classifies how a run ended.
func runKind(err error) string {
	var ve *interp.VirgilError
	var re *interp.ResourceError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ve):
		return "trap:" + ve.Name
	case errors.As(err, &re):
		return "resource"
	}
	return "error"
}

// compileKind classifies a failed compile.
func compileKind(err error) string {
	var list *src.ErrorList
	if errors.As(err, &list) {
		return "diag"
	}
	return "error"
}

// referenceOutcome compiles files under core.Reference() and runs them
// on the switch interpreter: no monomorphization, normalization,
// optimization, analysis or bytecode, so it is independent of the
// layers the workloads measure. Limits of zero keep the defaults.
func referenceOutcome(files []core.File, maxSteps, maxHeap int64) outcome {
	cfg := core.Reference()
	cfg.Engine = core.EngineSwitch
	cfg.Jobs = 1
	cfg.MaxSteps, cfg.MaxHeap = maxSteps, maxHeap
	comp, err := core.CompileFiles(files, cfg)
	if err != nil {
		return outcome{kind: compileKind(err)}
	}
	return runOutcome(comp)
}

// runOutcome runs a compilation on its configured engine.
func runOutcome(comp *core.Compilation) outcome {
	var b strings.Builder
	_, err := comp.RunWith(context.Background(), &b, core.RunOpts{})
	return outcome{kind: runKind(err), output: b.String()}
}

func oneFile(name, source string) []core.File {
	return []core.File{{Name: name, Source: source}}
}
