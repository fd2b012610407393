package analysis

// Test-only hooks for the external tests in package analysis_test,
// which compile through core and so cannot live in this package.

// HasLoop exposes hasLoop.
var HasLoop = hasLoop

// SweepEscapes is the reference for computeEscapes' worklist: the
// escape fixpoint computed by recomputing every function, in module
// order, until a whole sweep grows no summary. The sets of that last
// sweep are the facts. It returns fresh facts for res's module,
// index-aligned with res.Funcs; only the escape fields are filled.
func SweepEscapes(res *Result) []*FuncFacts {
	ref := &Result{Mod: res.Mod, CallGraph: res.CallGraph, Funcs: make([]*FuncFacts, len(res.Funcs))}
	for i, f := range res.Mod.Funcs {
		ref.Funcs[i] = &FuncFacts{Fn: f}
	}
	es := newEscapeState(ref)
	escs := make([][]bool, len(res.Mod.Funcs))
	for changed := true; changed; {
		changed = false
		for i, f := range res.Mod.Funcs {
			escs[i] = es.escapingRegs(f, nil)
			if es.widen(f, escs[i]) {
				changed = true
			}
		}
	}
	es.record(escs)
	return ref.Funcs
}
