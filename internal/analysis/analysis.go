package analysis

import (
	"context"

	"repro/internal/ir"
)

// Config controls how Analyze runs. The zero value is valid.
type Config struct {
	// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
	Jobs int
}

// AllocSite is one heap-charged allocation instruction and its escape
// verdict.
type AllocSite struct {
	Instr   *ir.Instr
	Escapes bool
}

// FuncFacts is everything the analyses learned about one function.
type FuncFacts struct {
	Fn  *ir.Func
	CFG *CFG
	// Effects is the interprocedural effect summary.
	Effects Effect
	// ParamEscapes[i] reports whether parameter i may escape the
	// function (including by being returned).
	ParamEscapes []bool
	// EscapingRegs is the full may-escape register set.
	EscapingRegs map[*ir.Reg]bool
	// AllocSites lists every heap-charged allocation in instruction
	// order with its verdict; NonEscaping is the subset that stays
	// frame-local.
	AllocSites  []AllocSite
	NonEscaping []*ir.Instr
	// Intervals maps integer registers to their value ranges.
	Intervals map[*ir.Reg]Interval
}

// Result is the whole-program analysis output.
type Result struct {
	Mod       *ir.Module
	CallGraph *CallGraph
	// Funcs is index-aligned with Mod.Funcs.
	Funcs []*FuncFacts

	byFn map[*ir.Func]*FuncFacts
}

// FactsFor returns the facts of fn, or nil for a function outside the
// analyzed module.
func (r *Result) FactsFor(fn *ir.Func) *FuncFacts { return r.byFn[fn] }

// Analyze runs the whole analysis stack over mod: per-function CFGs,
// the call graph, then the escape, effect, and interval fixpoints.
// It never mutates mod, so stale results can coexist with further
// transformation — consumers re-run Analyze after changing the IR.
func Analyze(ctx context.Context, mod *ir.Module, cfg Config) (*Result, error) {
	res := &Result{
		Mod:   mod,
		Funcs: make([]*FuncFacts, len(mod.Funcs)),
		byFn:  make(map[*ir.Func]*FuncFacts, len(mod.Funcs)),
	}
	for i, f := range mod.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		facts := &FuncFacts{Fn: f, CFG: BuildCFG(f)}
		facts.Intervals = computeIntervals(f, facts.CFG)
		res.Funcs[i] = facts
		res.byFn[f] = facts
	}
	// Whole-program phases; each is deterministic given the module.
	res.CallGraph = buildCallGraph(mod)
	computeEscapes(res)
	computeEffects(res)
	return res, nil
}
