package mono

import (
	"context"

	"repro/internal/ir"
	"repro/internal/types"
)

// refMonomorphize is a copying monomorphizer, kept as a test oracle:
// the same discovery fixpoint, then every planned body copied by
// refCopyBody, closed functions included, leaving the input's bodies
// in place.
func refMonomorphize(ctx context.Context, mod *ir.Module) (*ir.Module, error) {
	m, err := discover(ctx, mod, Config{})
	if err != nil {
		return nil, err
	}
	for _, p := range m.plans {
		if p.move {
			refFreshParams(m, p)
		}
		refCopyBody(m, p)
	}
	return m.out, nil
}

// refFreshParams gives a closed function's instance fresh parameter
// registers, numbered from 0, as the copying monomorphizer declared
// every instance's parameters; discovery instead hands the instance the
// lowered parameters themselves.
func refFreshParams(m *monomorphizer, p *bodyPlan) {
	g := p.dst
	g.SetRegCount(0)
	g.Params = make([]*ir.Reg, len(p.src.Params))
	for i, pr := range p.src.Params {
		g.Params[i] = g.NewReg(m.tc.Subst(pr.Type, p.env), pr.Name)
	}
}

// refCopyBody copies the planned body from p.src into p.dst,
// substituting types and installing the resolutions planBody recorded.
func refCopyBody(m *monomorphizer, p *bodyPlan) {
	f, g, env := p.src, p.dst, p.env
	fi, si := 0, 0
	regMap := map[*ir.Reg]*ir.Reg{}
	for i, pr := range f.Params {
		regMap[pr] = g.Params[i]
	}
	mapReg := func(r *ir.Reg) *ir.Reg {
		if nr, ok := regMap[r]; ok {
			return nr
		}
		nr := g.NewReg(m.tc.Subst(r.Type, env), r.Name)
		regMap[r] = nr
		return nr
	}
	blockMap := map[*ir.Block]*ir.Block{}
	for _, blk := range f.Blocks {
		blockMap[blk] = g.NewBlock()
	}
	subst := func(t types.Type) types.Type {
		if t == nil {
			return nil
		}
		return m.tc.Subst(t, env)
	}
	for _, blk := range f.Blocks {
		nb := blockMap[blk]
		for _, in := range blk.Instrs {
			ni := &ir.Instr{
				Op: in.Op, FieldSlot: in.FieldSlot, IVal: in.IVal,
				SVal: in.SVal, Global: in.Global, Pos: in.Pos,
			}
			for _, d := range in.Dst {
				ni.Dst = append(ni.Dst, mapReg(d))
			}
			for _, a := range in.Args {
				ni.Args = append(ni.Args, mapReg(a))
			}
			for _, tb := range in.Blocks {
				ni.Blocks = append(ni.Blocks, blockMap[tb])
			}
			ni.Type = subst(in.Type)
			ni.Type2 = subst(in.Type2)
			switch in.Op {
			case ir.OpConstNull:
				refEmitDefault(g, nb, ni.Dst[0], ni.Type)
				continue
			case ir.OpCallStatic, ir.OpMakeClosure:
				ni.Fn = p.fns[fi]
				fi++
			case ir.OpCallVirtual, ir.OpMakeBound:
				ni.FieldSlot = p.slots[si]
				si++
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
}

// refEmitDefault appends instructions materializing the default value
// of a closed type into dst.
func refEmitDefault(g *ir.Func, blk *ir.Block, dst *ir.Reg, t types.Type) {
	switch t := t.(type) {
	case *types.Prim:
		switch t.Kind {
		case types.KindInt:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{dst}})
		case types.KindByte:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstByte, Dst: []*ir.Reg{dst}})
		case types.KindBool:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{dst}})
		case types.KindVoid:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstVoid, Dst: []*ir.Reg{dst}})
		default:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{dst}, Type: t})
		}
	case *types.Enum:
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstEnum, Dst: []*ir.Reg{dst}, Type: t})
	case *types.Tuple:
		elems := make([]*ir.Reg, len(t.Elems))
		for i, et := range t.Elems {
			er := g.NewReg(et, "")
			refEmitDefault(g, blk, er, et)
			elems[i] = er
		}
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpMakeTuple, Dst: []*ir.Reg{dst}, Args: elems, Type: t})
	default:
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{dst}, Type: t})
	}
}
