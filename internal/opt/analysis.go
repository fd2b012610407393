package opt

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// The analysis-driven passes. They replace the old local-only
// devirtualization heuristic (which saw only the class hierarchy, not
// which classes the program instantiates, and could not resolve
// indirect calls at all) with facts from the whole-program call graph,
// and add two passes the local heuristic could never support:
// elimination of calls to provably pure functions whose results are
// unused, and stack promotion of allocations that never escape their
// frame.

// devirtualizeCG binds call sites with exactly one possible runtime
// target to direct calls, using the RTA call graph: virtual sites
// resolve over instantiated subclasses only, and indirect sites (a
// first-class function value invoked) resolve over the taken-closure
// set. Both keep the implicit null check of the original dispatch.
// Only sound after monomorphization: before it, one IR class stands
// for every instantiation and vtable identity is not meaningful.
func (o *optimizer) devirtualizeCG(res *analysis.Result) bool {
	if !o.mod.Monomorphic {
		return false
	}
	changed := false
	for _, f := range o.mod.Funcs {
		node := res.CallGraph.NodeFor(f)
		if node == nil {
			continue
		}
		for _, blk := range f.Blocks {
			var out []*ir.Instr // nil until the first rewrite; then a copy
			for i, in := range blk.Instrs {
				var repl [2]*ir.Instr // null check + direct call, or nothing
				if in.Op == ir.OpCallVirtual || in.Op == ir.OpCallIndirect {
					repl = o.devirtualizeSite(node, res.CallGraph, in)
				}
				if repl[0] == nil {
					if out != nil {
						out = append(out, in)
					}
					continue
				}
				if out == nil {
					out = append(make([]*ir.Instr, 0, len(blk.Instrs)+1), blk.Instrs[:i]...)
				}
				out = append(out, repl[0], repl[1])
				changed = true
			}
			if out != nil {
				blk.Instrs = out
			}
		}
	}
	return changed
}

// devirtualizeSite returns the null check and direct call that replace
// the virtual or indirect call in, or two nils when the site does not
// have exactly one callable target.
func (o *optimizer) devirtualizeSite(node *analysis.CGNode, cg *analysis.CallGraph, in *ir.Instr) [2]*ir.Instr {
	ts := node.Sites[in]
	if ts == nil {
		return [2]*ir.Instr{}
	}
	switch {
	case in.Op == ir.OpCallVirtual && len(ts) == 1 && len(ts[0].Params) == len(in.Args):
		// The virtual dispatch null-checked the receiver; keep that trap.
		o.st.Devirtualized++
		return [2]*ir.Instr{
			{Op: ir.OpNullCheck, Args: []*ir.Reg{in.Args[0]}, Pos: in.Pos},
			{Op: ir.OpCallStatic, Dst: in.Dst, Fn: ts[0], Args: in.Args, Pos: in.Pos},
		}
	case in.Op == ir.OpCallIndirect:
		target, ok := cg.UniqueIndirectTarget(len(in.Args) - 1)
		if !ok {
			return [2]*ir.Instr{}
		}
		// Invoking a null function value traps; keep that trap.
		// Args[0] is the closure, the rest are the values.
		o.st.DevirtIndirect++
		return [2]*ir.Instr{
			{Op: ir.OpNullCheck, Args: []*ir.Reg{in.Args[0]}, Pos: in.Pos},
			{Op: ir.OpCallStatic, Dst: in.Dst, Fn: target, Args: in.Args[1:], Pos: in.Pos},
		}
	}
	return [2]*ir.Instr{}
}

// elimPureCalls removes static calls to pure functions whose results
// are all unused, and merges repeated deterministic calls with
// identical arguments inside a block (a conservative, local CSE). Both
// rely on the interprocedural effect summaries: "pure" here means no
// observable action, no trap, and guaranteed termination, so deleting
// the call can only reduce the modeled heap/step meters — exactly the
// change the analysis-off differential is built to tolerate.
func (o *optimizer) elimPureCalls(res *analysis.Result) bool {
	changed := false
	for _, f := range o.mod.Funcs {
		// used / defCount over the whole function: a register IR is not
		// SSA, so CSE and dead-call checks must see every definition.
		// The tables are indexed by Reg.ID.
		n := f.NumRegs()
		used := table(&o.used, n)
		defCount := table(&o.defCount, n)
		defInstr := table(&o.defInstr, n)
		for _, p := range f.Params {
			defCount[p.ID]++
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, a := range in.Args {
					used[a.ID] = true
				}
				for _, d := range in.Dst {
					defCount[d.ID]++
					defInstr[d.ID] = in
				}
			}
		}
		singleDef := func(r *ir.Reg) bool { return defCount[r.ID] == 1 }
		for _, blk := range f.Blocks {
			var seen map[string]*ir.Instr // CSE candidates; made at first use
			var out []*ir.Instr           // nil until the first edit; then a copy
			edit := func(i int) {
				if out == nil {
					out = append(make([]*ir.Instr, 0, len(blk.Instrs)), blk.Instrs[:i]...)
				}
			}
			for i, in := range blk.Instrs {
				facts := (*analysis.FuncFacts)(nil)
				if in.Op == ir.OpCallStatic && in.Fn != nil {
					facts = res.FactsFor(in.Fn)
				}
				if facts == nil {
					if out != nil {
						out = append(out, in)
					}
					continue
				}
				// Dead pure call: no result is ever read.
				if facts.Effects.Pure() {
					dead := true
					for _, d := range in.Dst {
						if used[d.ID] {
							dead = false
							break
						}
					}
					if dead {
						edit(i)
						o.st.PureCallsRemoved++
						changed = true
						continue
					}
				}
				// Local CSE of deterministic calls. Sound only when the
				// key registers are single-definition, so their values
				// cannot differ between the two sites.
				if facts.Effects.Deterministic() && len(in.TypeArgs) == 0 {
					ok := true
					for _, a := range in.Args {
						if !singleDef(a) {
							ok = false
							break
						}
					}
					if ok {
						key := cseKey(in, defCount, defInstr)
						if prev, dup := seen[key]; dup && len(prev.Dst) == len(in.Dst) && prevDstsSingle(prev, defCount) {
							edit(i)
							for k, d := range in.Dst {
								out = append(out, &ir.Instr{
									Op: ir.OpMove, Dst: []*ir.Reg{d},
									Args: []*ir.Reg{prev.Dst[k]}, Pos: in.Pos,
								})
							}
							o.st.PureCallsCSEd++
							changed = true
							continue
						}
						if seen == nil {
							seen = map[string]*ir.Instr{}
						}
						seen[key] = in
					}
				}
				if out != nil {
					out = append(out, in)
				}
			}
			if out != nil {
				blk.Instrs = out
			}
		}
	}
	return changed
}

func prevDstsSingle(in *ir.Instr, defCount []int) bool {
	for _, d := range in.Dst {
		if defCount[d.ID] != 1 {
			return false
		}
	}
	return true
}

// cseKey identifies a deterministic call by target and arguments.
// Single-definition registers holding a scalar constant key by their
// value — two materializations of the same literal are interchangeable
// even though they are distinct registers — everything else keys by
// register identity. defCount and defInstr are indexed by Reg.ID.
func cseKey(in *ir.Instr, defCount []int, defInstr []*ir.Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%p", in.Fn)
	for _, a := range in.Args {
		if def := defInstr[a.ID]; def != nil && defCount[a.ID] == 1 {
			switch def.Op {
			case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool, ir.OpConstEnum:
				fmt.Fprintf(&b, ",%s:%d", def.Op, def.IVal)
				continue
			case ir.OpConstVoid:
				b.WriteString(",void")
				continue
			}
		}
		fmt.Fprintf(&b, ",%d", a.ID)
	}
	return b.String()
}

// promoteAllocations marks non-escaping statically-sized allocations
// StackAlloc, so both engines skip their modeled heap charge. res must
// be a fresh analysis of the module in its final shape — core re-runs
// the analysis once more afterwards and ICEs if any mark cannot be
// re-proven (analysis.VerifyPromotions).
func (o *optimizer) promoteAllocations(res *analysis.Result) {
	for _, f := range o.mod.Funcs {
		facts := res.FactsFor(f)
		if facts == nil {
			continue
		}
		for _, in := range facts.NonEscaping {
			if analysis.Promotable(in) && !in.StackAlloc {
				in.StackAlloc = true
				o.st.StackPromoted++
			}
		}
	}
}

// runAnalysis is the optimizer's entry to the analysis stack.
func (o *optimizer) runAnalysis(ctx context.Context) (*analysis.Result, error) {
	return analysis.Analyze(ctx, o.mod, analysis.Config{})
}
