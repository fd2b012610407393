package analysis

import (
	"strings"

	"repro/internal/ir"
)

// Effect is a bitmask summarizing what executing a function may do
// beyond computing its results.
type Effect uint16

// Effect bits.
const (
	// EffIO: writes to the output stream or raises a user error
	// (builtin calls).
	EffIO Effect = 1 << iota
	// EffGlobalRead reads a program global.
	EffGlobalRead
	// EffGlobalWrite writes a program global.
	EffGlobalWrite
	// EffHeapWrite stores into an object or array.
	EffHeapWrite
	// EffAlloc allocates on the modeled heap.
	EffAlloc
	// EffTrap may raise a Virgil trap (divide, null, bounds, cast,
	// explicit throw, …).
	EffTrap
	// EffDiverge may fail to terminate: a CFG cycle or call-graph
	// recursion.
	EffDiverge
	// EffUnknown calls through an unresolved site; assume anything.
	EffUnknown
)

// effAll is the conservative top.
const effAll = EffIO | EffGlobalRead | EffGlobalWrite | EffHeapWrite |
	EffAlloc | EffTrap | EffDiverge | EffUnknown

// Pure reports whether a function with these effects is removable when
// its results are unused: no observable action, no trap, and it
// provably terminates. Reading globals and allocating are allowed —
// a dropped read is unobservable, and a dropped allocation only lowers
// the modeled heap meter, exactly like stack promotion.
func (e Effect) Pure() bool {
	return e&(EffIO|EffGlobalWrite|EffHeapWrite|EffTrap|EffDiverge|EffUnknown) == 0
}

// Deterministic reports whether the function's results depend only on
// its arguments (pure and does not read mutable globals) — the
// precondition for common-subexpression elimination across calls.
func (e Effect) Deterministic() bool {
	return e.Pure() && e&EffGlobalRead == 0
}

// String renders the effect set as a stable comma-separated list.
func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	names := []struct {
		bit  Effect
		name string
	}{
		{EffIO, "io"},
		{EffGlobalRead, "global-read"},
		{EffGlobalWrite, "global-write"},
		{EffHeapWrite, "heap-write"},
		{EffAlloc, "alloc"},
		{EffTrap, "trap"},
		{EffDiverge, "diverge"},
		{EffUnknown, "unknown"},
	}
	var parts []string
	for _, n := range names {
		if e&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ",")
}

// Names returns the individual effect names, for the JSON report.
func (e Effect) Names() []string {
	if e == 0 {
		return []string{}
	}
	return strings.Split(e.String(), ",")
}

// localEffects computes the intraprocedural effect bits of in.
func localEffects(in *ir.Instr) Effect {
	var e Effect
	switch in.Op {
	case ir.OpCallBuiltin:
		// Builtins write output (puts/puti/putc/putb/ln), read the clock,
		// or raise !error; all are observable.
		e |= EffIO
	case ir.OpGlobalLoad:
		e |= EffGlobalRead
	case ir.OpGlobalStore:
		e |= EffGlobalWrite
	case ir.OpFieldStore, ir.OpArrayStore:
		e |= EffHeapWrite
	case ir.OpThrow:
		e |= EffTrap
	}
	if MayTrap(in) {
		e |= EffTrap
	}
	if IsAlloc(in) {
		e |= EffAlloc
	}
	return e
}

// computeEffects fills FuncFacts.Effects with a least-fixpoint over
// the call graph: a function's effects are its own instructions'
// effects plus every resolved callee's, plus divergence for loops and
// recursion, plus everything for unresolved call sites.
func computeEffects(res *Result) {
	// Seed with local effects.
	for i, f := range res.Mod.Funcs {
		facts := res.Funcs[i]
		var e Effect
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				e |= localEffects(in)
			}
		}
		if facts.HasLoop {
			e |= EffDiverge
		}
		node := res.CallGraph.NodeFor(f)
		if node != nil {
			if node.InCycle {
				e |= EffDiverge
			}
			if node.Unresolved > 0 {
				e |= effAll
			}
		}
		facts.Effects = e
	}
	// Propagate callee effects to callers until stable (monotone, so
	// the visit order does not affect the result — only how fast it
	// converges).
	for changed := true; changed; {
		changed = false
		for i, f := range res.Mod.Funcs {
			facts := res.Funcs[i]
			node := res.CallGraph.NodeFor(f)
			if node == nil {
				continue
			}
			e := facts.Effects
			for _, callee := range node.Callees {
				if cf := res.FactsFor(callee); cf != nil {
					e |= cf.Effects
				} else {
					e |= effAll
				}
			}
			if e != facts.Effects {
				facts.Effects = e
				changed = true
			}
		}
	}
}
