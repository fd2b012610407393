package lint

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/src"
)

// RunIR lints the post-mono IR with facts from the whole-program
// analysis. These rules need interprocedural knowledge the AST pass
// cannot have: whether a callee is pure, whether a loop can exit, and
// whether an allocation escapes. The driver runs it on the mono+norm
// (unoptimized) module so the offenses are still present — the
// optimizer would delete a dead pure call, which is exactly why the
// user should hear about it.
//
// Findings are deduplicated by (position, category, message):
// monomorphization copies a generic function once per instantiation,
// and the user wrote the offending line once. Synthesized functions
// (allocators, wrappers, the global initializer) are skipped — their
// bodies have no source lines the user can act on.
func RunIR(mod *ir.Module, res *analysis.Result) []Finding {
	var findings []Finding
	seen := map[string]bool{}
	report := func(f Finding) {
		key := f.Pos.String() + "\x00" + f.Category + "\x00" + f.Msg
		if seen[key] {
			return
		}
		seen[key] = true
		findings = append(findings, f)
	}
	for _, f := range mod.Funcs {
		switch f.Kind {
		case ir.KindAlloc, ir.KindWrapper, ir.KindInit:
			continue
		}
		facts := res.FactsFor(f)
		if facts == nil {
			continue
		}
		lintPureCalls(f, res, report)
		g := analysis.BuildCFG(f)
		lintInfiniteLoops(g, report)
		lintAllocInLoop(g, facts, report)
	}
	SortFindings(findings)
	return findings
}

type irReport func(f Finding)

// lintPureCalls flags static calls to pure functions whose results are
// never read: the call computes nothing observable and is either a
// leftover or a misunderstanding (e.g. calling a getter for effect).
func lintPureCalls(f *ir.Func, res *analysis.Result, report irReport) {
	used := map[*ir.Reg]bool{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			for _, a := range in.Args {
				used[a] = true
			}
		}
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op != ir.OpCallStatic || in.Fn == nil || !in.Pos.IsValid() {
				continue
			}
			cf := res.FactsFor(in.Fn)
			if cf == nil || !cf.Effects.Pure() || len(in.Dst) == 0 {
				continue
			}
			dead := true
			for _, d := range in.Dst {
				if used[d] {
					dead = false
					break
				}
			}
			if dead {
				report(Finding{
					Pos:      in.Pos,
					Category: CatPureCallUnused,
					Msg:      fmt.Sprintf("result of pure call to %s is unused", in.Fn.Name),
				})
			}
		}
	}
}

// lintInfiniteLoops flags loops that provably never terminate: an SCC
// of the CFG with no edge leaving it, no call (a callee could throw or
// run forever legitimately), and no potentially-trapping instruction.
// Under the interpreter's step budget such a loop always dies as
// !ResourceExhausted, so the program cannot be correct.
func lintInfiniteLoops(g *analysis.CFG, report irReport) {
	for _, scc := range g.SCCs() {
		if len(scc) == 1 {
			self := false
			for _, s := range g.Succs[scc[0]] {
				if s == scc[0] {
					self = true
				}
			}
			if !self {
				continue
			}
		}
		in := map[int]bool{}
		for _, b := range scc {
			in[b] = true
		}
		exits := false
		escapesLoop := false
		for _, b := range scc {
			for _, s := range g.Succs[b] {
				if !in[s] {
					exits = true
				}
			}
			for _, instr := range g.Blocks[b].Instrs {
				switch instr.Op {
				case ir.OpCallStatic, ir.OpCallVirtual, ir.OpCallIndirect, ir.OpCallBuiltin,
					ir.OpThrow, ir.OpRet:
					escapesLoop = true
				default:
					if analysis.MayTrap(instr) {
						escapesLoop = true
					}
				}
			}
		}
		if exits || escapesLoop {
			continue
		}
		pos := firstValidPos(g, scc)
		if !pos.IsValid() {
			continue
		}
		report(Finding{
			Pos:      pos,
			Category: CatInfiniteLoop,
			Msg:      "loop never terminates and will exhaust the step budget",
		})
	}
}

// firstValidPos returns the first source position found in the blocks.
func firstValidPos(g *analysis.CFG, blocks []int) (pos src.Pos) {
	for _, b := range blocks {
		for _, instr := range g.Blocks[b].Instrs {
			if instr.Pos.IsValid() {
				return instr.Pos
			}
		}
	}
	return pos
}

// lintAllocInLoop flags escaping allocations inside loops: each
// iteration charges the modeled heap, and because the value escapes,
// the optimizer cannot stack-promote the charge away. Advisory — the
// allocation may well be the point of the loop.
func lintAllocInLoop(g *analysis.CFG, facts *analysis.FuncFacts, report irReport) {
	escapes := map[*ir.Instr]bool{}
	for _, site := range facts.AllocSites {
		escapes[site.Instr] = site.Escapes
	}
	for bi, blk := range g.Blocks {
		if !g.InLoop[bi] {
			continue
		}
		for _, in := range blk.Instrs {
			if !analysis.IsAlloc(in) || !in.Pos.IsValid() {
				continue
			}
			if esc, ok := escapes[in]; ok && !esc {
				continue // stack-promoted: no heap charge survives
			}
			report(Finding{
				Pos:      in.Pos,
				Category: CatAllocInLoop,
				Msg:      fmt.Sprintf("%s allocates on every loop iteration", in.Op),
			})
		}
	}
}
