// Package norm implements whole-program tuple normalization (§4.2):
// scalar replacement of aggregates. Every register, parameter, return
// value, field, global, and array of tuple type is rewritten into zero
// or more scalars, so that after this pass:
//
//   - no OpMakeTuple/OpTupleGet instructions remain,
//   - all calls pass scalar arguments and return scalar results,
//   - arrays of tuples are parallel scalar arrays,
//   - fields of type void are removed (accesses become null checks),
//   - Array<void> is a length-only array with bounds checks preserved,
//
// which guarantees no implicit heap allocation for tuples and removes
// the calling-convention ambiguity of §4.1.
//
// Normalization requires a monomorphic module: it relies on knowing the
// closed type of every expression (§4.2, last paragraph).
package norm

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/src"
	"repro/internal/types"
)

// Stats summarizes the normalization transformation.
type Stats struct {
	TuplesEliminated int // MakeTuple instructions removed
	FieldsSplit      int // class fields that expanded to != 1 scalars
	GlobalsSplit     int
	ParamsSplit      int
}

type normalizer struct {
	in  *ir.Module
	out *ir.Module
	tc  *types.Cache

	funcMap   map[*ir.Func]*ir.Func
	classMap  map[*ir.Class]*ir.Class
	globalMap map[*ir.Global][]*ir.Global
	// fieldMap[class][oldSlot] = (start, count) in the new layout.
	fieldMap map[*ir.Class][][2]int
	inByType map[*types.Class]*ir.Class
	stats    Stats

	// flat memoizes scalar expansions. Types are interned, so the
	// pointer is the key. Callers must not mutate returned slices.
	flat map[types.Type][]types.Type
}

// Normalize flattens all tuples in a monomorphic module, returning a
// new module. The declaration phases and vtable layout run first, then
// function bodies are rewritten one at a time in module order.
// The jobs parameter is ignored.
// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
func Normalize(ctx context.Context, mod *ir.Module, jobs int) (*ir.Module, *Stats, error) {
	return NormalizeSkip(ctx, mod, nil)
}

// NormalizeSkip is Normalize with a body filter: functions skip reports
// true for (by name) keep their declarations — signature flattening,
// vtable entries, order — but get no body. The declaration phases run
// in full either way. Incremental compilation uses this to skip bodies
// it replaces with cached artifacts.
func NormalizeSkip(ctx context.Context, mod *ir.Module, skip func(name string) bool) (*ir.Module, *Stats, error) {
	if !mod.Monomorphic {
		return nil, nil, fmt.Errorf("norm: module must be monomorphized first (§4.2)")
	}
	n := &normalizer{
		in: mod,
		tc: mod.Types,
		out: &ir.Module{
			Types:       mod.Types,
			Monomorphic: true,
			Normalized:  true,
		},
		funcMap:   map[*ir.Func]*ir.Func{},
		classMap:  map[*ir.Class]*ir.Class{},
		globalMap: map[*ir.Global][]*ir.Global{},
		fieldMap:  map[*ir.Class][][2]int{},
		inByType:  map[*types.Class]*ir.Class{},
		flat:      map[types.Type][]types.Type{},
	}
	for _, c := range mod.Classes {
		n.inByType[c.Type] = c
	}
	n.declareGlobals()
	n.declareClasses()
	n.declareFuncs()
	n.fillVtables()
	for _, f := range mod.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if skip != nil && skip(f.Name) {
			continue
		}
		if err := n.normalizeBody(f); err != nil {
			return nil, nil, err
		}
	}
	if mod.Init != nil {
		n.out.Init = n.funcMap[mod.Init]
	}
	if mod.Main != nil {
		n.out.Main = n.funcMap[mod.Main]
	}
	return n.out, &n.stats, nil
}

// flatten returns the scalar expansion of t, memoized per module.
func (n *normalizer) flatten(t types.Type) []types.Type {
	fs, ok := n.flat[t]
	if !ok {
		fs = types.Flatten(n.tc, t, nil)
		n.flat[t] = fs
	}
	return fs
}

func (n *normalizer) declareGlobals() {
	idx := 0
	for _, g := range n.in.Globals {
		parts := n.flatten(g.Type)
		var ngs []*ir.Global
		for k, pt := range parts {
			name := g.Name
			if len(parts) > 1 {
				name = fmt.Sprintf("%s.%d", g.Name, k)
			}
			ng := &ir.Global{Name: name, Type: pt, Index: idx}
			idx++
			ngs = append(ngs, ng)
			n.out.Globals = append(n.out.Globals, ng)
		}
		if len(parts) != 1 {
			n.stats.GlobalsSplit++
		}
		n.globalMap[g] = ngs
	}
}

func (n *normalizer) declareClasses() {
	var decl func(c *ir.Class) *ir.Class
	decl = func(c *ir.Class) *ir.Class {
		if nc, ok := n.classMap[c]; ok {
			return nc
		}
		nc := &ir.Class{
			Name:  c.Name,
			Def:   c.Def,
			Args:  c.Args,
			Depth: c.Depth,
			Type:  c.Type,
		}
		n.classMap[c] = nc
		if c.Parent != nil {
			nc.Parent = decl(c.Parent)
		}
		slots := make([][2]int, len(c.Fields))
		for i, fd := range c.Fields {
			parts := n.flatten(fd.Type)
			slots[i] = [2]int{len(nc.Fields), len(parts)}
			for k, pt := range parts {
				name := fd.Name
				if len(parts) > 1 {
					name = fmt.Sprintf("%s.%d", fd.Name, k)
				}
				nc.Fields = append(nc.Fields, ir.Field{Name: name, Type: pt})
			}
			if len(parts) != 1 {
				n.stats.FieldsSplit++
			}
		}
		n.fieldMap[c] = slots
		n.out.Classes = append(n.out.Classes, nc)
		return nc
	}
	for _, c := range n.in.Classes {
		decl(c)
	}
}

func (n *normalizer) declareFuncs() {
	for _, f := range n.in.Funcs {
		nf := &ir.Func{Name: f.Name, Kind: f.Kind, VtSlot: f.VtSlot}
		if f.Class != nil {
			nf.Class = n.classMap[f.Class]
		}
		for _, p := range f.Params {
			parts := n.flatten(p.Type)
			if len(parts) != 1 {
				n.stats.ParamsSplit++
			}
			for k, pt := range parts {
				name := p.Name
				if len(parts) > 1 {
					name = fmt.Sprintf("%s.%d", p.Name, k)
				}
				nf.Params = append(nf.Params, nf.NewReg(pt, name))
			}
		}
		for _, rt := range f.Results {
			nf.Results = append(nf.Results, n.flatten(rt)...)
		}
		n.funcMap[f] = nf
		n.out.Funcs = append(n.out.Funcs, nf)
	}
}

func (n *normalizer) fillVtables() {
	for _, c := range n.in.Classes {
		nc := n.classMap[c]
		nc.Vtable = make([]*ir.Func, len(c.Vtable))
		for i, f := range c.Vtable {
			if f != nil {
				nc.Vtable[i] = n.funcMap[f]
			}
		}
	}
}

// bodyNormalizer rewrites one function body.
type bodyNormalizer struct {
	n      *normalizer
	f      *ir.Func // source
	nf     *ir.Func // destination
	regMap map[*ir.Reg][]*ir.Reg
	blkMap map[*ir.Block]*ir.Block
	cur    *ir.Block
	// pos is the source position of the instruction being normalized;
	// emit stamps it so flattened code keeps source-level traces.
	pos src.Pos
}

func (n *normalizer) normalizeBody(f *ir.Func) error {
	nf := n.funcMap[f]
	b := &bodyNormalizer{n: n, f: f, nf: nf, regMap: map[*ir.Reg][]*ir.Reg{}, blkMap: map[*ir.Block]*ir.Block{}}
	// Parameter registers map to the already-created flattened params.
	idx := 0
	for _, p := range f.Params {
		cnt := len(n.flatten(p.Type))
		b.regMap[p] = nf.Params[idx : idx+cnt]
		idx += cnt
	}
	for _, blk := range f.Blocks {
		b.blkMap[blk] = nf.NewBlock()
	}
	for _, blk := range f.Blocks {
		b.cur = b.blkMap[blk]
		for _, in := range blk.Instrs {
			if err := b.instr(in); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
	}
	return nil
}

// regs returns the flattened registers for a source register, creating
// them on first use. The result is a fresh slice: instruction Dst and
// Args lists must never alias each other, or later passes rewriting one
// would corrupt the other.
func (b *bodyNormalizer) regs(r *ir.Reg) []*ir.Reg {
	rs, ok := b.regMap[r]
	if !ok {
		parts := b.n.flatten(r.Type)
		rs = make([]*ir.Reg, len(parts))
		for i, pt := range parts {
			name := r.Name
			if len(parts) > 1 {
				name = fmt.Sprintf("%s.%d", r.Name, i)
			}
			rs[i] = b.nf.NewReg(pt, name)
		}
		b.regMap[r] = rs
	}
	out := make([]*ir.Reg, len(rs))
	copy(out, rs)
	return out
}

// flatArgs concatenates the flattened registers of several source regs.
func (b *bodyNormalizer) flatArgs(args []*ir.Reg) []*ir.Reg {
	var out []*ir.Reg
	for _, a := range args {
		out = append(out, b.regs(a)...)
	}
	return out
}

func (b *bodyNormalizer) emit(in *ir.Instr) {
	if !in.Pos.IsValid() {
		in.Pos = b.pos
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// moveAll emits pairwise moves from src to dst registers.
func (b *bodyNormalizer) moveAll(dst, src []*ir.Reg) error {
	if len(dst) != len(src) {
		return fmt.Errorf("norm: move shape mismatch: %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		b.emit(&ir.Instr{Op: ir.OpMove, Dst: []*ir.Reg{dst[i]}, Args: []*ir.Reg{src[i]}})
	}
	return nil
}

// tupleOffsets returns, for tuple type t, the flattened offset and width
// of element idx.
func (b *bodyNormalizer) tupleOffsets(t types.Type, idx int) (int, int, error) {
	tt, ok := t.(*types.Tuple)
	if !ok {
		if idx == 0 {
			return 0, len(b.n.flatten(t)), nil
		}
		return 0, 0, fmt.Errorf("norm: tuple access on non-tuple %s", t)
	}
	off := 0
	for i := 0; i < idx; i++ {
		off += len(b.n.flatten(tt.Elems[i]))
	}
	return off, len(b.n.flatten(tt.Elems[idx])), nil
}

func (b *bodyNormalizer) instr(in *ir.Instr) error {
	b.pos = in.Pos
	switch in.Op {
	case ir.OpNop:
		return nil
	case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool, ir.OpConstString:
		b.emit(&ir.Instr{Op: in.Op, Dst: b.regs(in.Dst[0]), IVal: in.IVal, SVal: in.SVal})
		return nil
	case ir.OpConstVoid:
		b.regs(in.Dst[0]) // expands to no registers
		return nil
	case ir.OpConstEnum:
		b.emit(&ir.Instr{Op: in.Op, Dst: b.regs(in.Dst[0]), IVal: in.IVal, Type: in.Type})
		return nil
	case ir.OpEnumTag, ir.OpEnumName:
		b.emit(&ir.Instr{Op: in.Op, Dst: b.regs(in.Dst[0]), Args: b.flatArgs(in.Args)})
		return nil
	case ir.OpConstNull:
		dst := b.regs(in.Dst[0])
		if len(dst) == 1 {
			b.emit(&ir.Instr{Op: ir.OpConstNull, Dst: dst, Type: in.Type})
		} else if len(dst) != 0 {
			return fmt.Errorf("norm: const.null of non-scalar type %s", in.Type)
		}
		return nil
	case ir.OpMove:
		return b.moveAll(b.regs(in.Dst[0]), b.regs(in.Args[0]))

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpShl,
		ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNeg, ir.OpNot,
		ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpBoolAnd, ir.OpBoolOr:
		b.emit(&ir.Instr{Op: in.Op, Dst: b.regs(in.Dst[0]), Args: b.flatArgs(in.Args), Type: in.Type})
		return nil

	case ir.OpEq, ir.OpNe:
		return b.equality(in)

	case ir.OpMakeTuple:
		// (§4.2 q1'): the tuple's registers are its elements' registers.
		b.n.stats.TuplesEliminated++
		return b.moveAll(b.regs(in.Dst[0]), b.flatArgs(in.Args))
	case ir.OpTupleGet:
		src := b.regs(in.Args[0])
		off, width, err := b.tupleOffsets(in.Args[0].Type, in.FieldSlot)
		if err != nil {
			return err
		}
		return b.moveAll(b.regs(in.Dst[0]), src[off:off+width])

	case ir.OpNewObject:
		b.emit(&ir.Instr{Op: ir.OpNewObject, Dst: b.regs(in.Dst[0]), Type: in.Type})
		return nil
	case ir.OpFieldLoad, ir.OpFieldStore:
		return b.fieldAccess(in)
	case ir.OpNullCheck:
		b.emit(&ir.Instr{Op: ir.OpNullCheck, Args: b.regs(in.Args[0])})
		return nil

	case ir.OpArrayNew:
		at := in.Type.(*types.Array)
		parts := b.n.flatten(at.Elem)
		dst := b.regs(in.Dst[0])
		lenReg := b.regs(in.Args[0])
		if len(parts) == 0 {
			// Array<void>: a single length-only array (§4.2).
			b.emit(&ir.Instr{Op: ir.OpArrayNew, Dst: dst, Args: lenReg, Type: at})
			return nil
		}
		for k, pt := range parts {
			b.emit(&ir.Instr{Op: ir.OpArrayNew, Dst: []*ir.Reg{dst[k]}, Args: lenReg, Type: b.n.tc.ArrayOf(pt)})
		}
		return nil
	case ir.OpArrayLoad:
		arrs := b.regs(in.Args[0])
		idx := b.regs(in.Args[1])
		dst := b.regs(in.Dst[0])
		if len(dst) == 0 {
			// Void element: the access is still bounds-checked (§4.2).
			b.emit(&ir.Instr{Op: ir.OpArrayLoad, Args: []*ir.Reg{arrs[0], idx[0]}})
			return nil
		}
		for k := range dst {
			b.emit(&ir.Instr{Op: ir.OpArrayLoad, Dst: []*ir.Reg{dst[k]}, Args: []*ir.Reg{arrs[k], idx[0]}})
		}
		return nil
	case ir.OpArrayStore:
		arrs := b.regs(in.Args[0])
		idx := b.regs(in.Args[1])
		vals := b.regs(in.Args[2])
		if len(vals) == 0 {
			b.emit(&ir.Instr{Op: ir.OpArrayLoad, Args: []*ir.Reg{arrs[0], idx[0]}})
			return nil
		}
		for k := range vals {
			b.emit(&ir.Instr{Op: ir.OpArrayStore, Args: []*ir.Reg{arrs[k], idx[0], vals[k]}})
		}
		return nil
	case ir.OpArrayLen:
		arrs := b.regs(in.Args[0])
		b.emit(&ir.Instr{Op: ir.OpArrayLen, Dst: b.regs(in.Dst[0]), Args: []*ir.Reg{arrs[0]}})
		return nil

	case ir.OpGlobalLoad:
		ngs := b.n.globalMap[in.Global]
		dst := b.regs(in.Dst[0])
		for k, g := range ngs {
			b.emit(&ir.Instr{Op: ir.OpGlobalLoad, Dst: []*ir.Reg{dst[k]}, Global: g})
		}
		return nil
	case ir.OpGlobalStore:
		ngs := b.n.globalMap[in.Global]
		vals := b.regs(in.Args[0])
		for k, g := range ngs {
			b.emit(&ir.Instr{Op: ir.OpGlobalStore, Global: g, Args: []*ir.Reg{vals[k]}})
		}
		return nil

	case ir.OpCallStatic:
		var dst []*ir.Reg
		for _, d := range in.Dst {
			dst = append(dst, b.regs(d)...)
		}
		b.emit(&ir.Instr{Op: ir.OpCallStatic, Dst: dst, Fn: b.n.funcMap[in.Fn], Args: b.flatArgs(in.Args)})
		return nil
	case ir.OpCallVirtual:
		var dst []*ir.Reg
		for _, d := range in.Dst {
			dst = append(dst, b.regs(d)...)
		}
		recv := b.regs(in.Args[0])
		args := append(append([]*ir.Reg{}, recv...), b.flatArgs(in.Args[1:])...)
		b.emit(&ir.Instr{Op: ir.OpCallVirtual, Dst: dst, Args: args, FieldSlot: in.FieldSlot, Type: in.Type})
		return nil
	case ir.OpCallIndirect:
		var dst []*ir.Reg
		for _, d := range in.Dst {
			dst = append(dst, b.regs(d)...)
		}
		cl := b.regs(in.Args[0])
		args := append(append([]*ir.Reg{}, cl...), b.flatArgs(in.Args[1:])...)
		b.emit(&ir.Instr{Op: ir.OpCallIndirect, Dst: dst, Args: args})
		return nil
	case ir.OpCallBuiltin:
		var dst []*ir.Reg
		for _, d := range in.Dst {
			dst = append(dst, b.regs(d)...)
		}
		b.emit(&ir.Instr{Op: ir.OpCallBuiltin, Dst: dst, SVal: in.SVal, Args: b.flatArgs(in.Args)})
		return nil

	case ir.OpMakeClosure:
		b.emit(&ir.Instr{Op: ir.OpMakeClosure, Dst: b.regs(in.Dst[0]), Fn: b.n.funcMap[in.Fn], Type2: in.Type2})
		return nil
	case ir.OpMakeBound:
		b.emit(&ir.Instr{Op: ir.OpMakeBound, Dst: b.regs(in.Dst[0]), Args: b.regs(in.Args[0]), FieldSlot: in.FieldSlot, Type: in.Type, Type2: in.Type2})
		return nil

	case ir.OpTypeCast:
		return b.cast(in)
	case ir.OpTypeQuery:
		return b.query(in)

	case ir.OpRet:
		b.emit(&ir.Instr{Op: ir.OpRet, Args: b.flatArgs(in.Args)})
		return nil
	case ir.OpJump:
		b.emit(&ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{b.blkMap[in.Blocks[0]]}})
		return nil
	case ir.OpBranch:
		b.emit(&ir.Instr{Op: ir.OpBranch, Args: b.regs(in.Args[0]), Blocks: []*ir.Block{b.blkMap[in.Blocks[0]], b.blkMap[in.Blocks[1]]}})
		return nil
	case ir.OpThrow:
		b.emit(&ir.Instr{Op: ir.OpThrow, SVal: in.SVal})
		return nil
	}
	return fmt.Errorf("norm: unhandled op %s", in.Op)
}

// fieldAccess remaps a field slot through the flattened class layout.
func (b *bodyNormalizer) fieldAccess(in *ir.Instr) error {
	ct, ok := in.Args[0].Type.(*types.Class)
	if !ok {
		return fmt.Errorf("norm: field access on non-class %s", in.Args[0].Type)
	}
	// Find the IR class for the receiver's static type.
	src := b.n.inByType[ct]
	if src == nil {
		return fmt.Errorf("norm: unknown class %s", ct)
	}
	slots := b.n.fieldMap[src]
	start, count := slots[in.FieldSlot][0], slots[in.FieldSlot][1]
	obj := b.regs(in.Args[0])
	if count == 0 {
		// Void field: the access reduces to a null check (§4.2).
		b.emit(&ir.Instr{Op: ir.OpNullCheck, Args: obj})
		if in.Op == ir.OpFieldLoad {
			b.regs(in.Dst[0])
		}
		return nil
	}
	if in.Op == ir.OpFieldLoad {
		dst := b.regs(in.Dst[0])
		for k := 0; k < count; k++ {
			b.emit(&ir.Instr{Op: ir.OpFieldLoad, Dst: []*ir.Reg{dst[k]}, Args: obj, FieldSlot: start + k})
		}
		return nil
	}
	vals := b.regs(in.Args[1])
	for k := 0; k < count; k++ {
		b.emit(&ir.Instr{Op: ir.OpFieldStore, Args: []*ir.Reg{obj[0], vals[k]}, FieldSlot: start + k})
	}
	return nil
}

// equality expands tuple equality into elementwise comparisons combined
// with boolean operators (§2.3's recursive equality).
func (b *bodyNormalizer) equality(in *ir.Instr) error {
	l := b.regs(in.Args[0])
	r := b.regs(in.Args[1])
	dst := b.regs(in.Dst[0])
	if len(l) != len(r) {
		return fmt.Errorf("norm: equality shape mismatch %d vs %d", len(l), len(r))
	}
	eqOp, combine := ir.OpEq, ir.OpBoolAnd
	if in.Op == ir.OpNe {
		eqOp, combine = ir.OpNe, ir.OpBoolOr
	}
	if len(l) == 0 {
		// void == void is always true; void != void always false.
		b.emit(&ir.Instr{Op: ir.OpConstBool, Dst: dst, IVal: boolVal(in.Op == ir.OpEq)})
		return nil
	}
	if len(l) == 1 {
		b.emit(&ir.Instr{Op: eqOp, Dst: dst, Args: []*ir.Reg{l[0], r[0]}})
		return nil
	}
	acc := b.nf.NewReg(b.n.tc.Bool(), "")
	b.emit(&ir.Instr{Op: eqOp, Dst: []*ir.Reg{acc}, Args: []*ir.Reg{l[0], r[0]}})
	for k := 1; k < len(l); k++ {
		t := b.nf.NewReg(b.n.tc.Bool(), "")
		b.emit(&ir.Instr{Op: eqOp, Dst: []*ir.Reg{t}, Args: []*ir.Reg{l[k], r[k]}})
		nacc := b.nf.NewReg(b.n.tc.Bool(), "")
		b.emit(&ir.Instr{Op: combine, Dst: []*ir.Reg{nacc}, Args: []*ir.Reg{acc, t}})
		acc = nacc
	}
	b.emit(&ir.Instr{Op: ir.OpMove, Dst: dst, Args: []*ir.Reg{acc}})
	return nil
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cast expands a tuple cast elementwise (§2.3); scalar casts pass
// through. A cast whose shapes cannot match throws at runtime.
func (b *bodyNormalizer) cast(in *ir.Instr) error {
	src := b.regs(in.Args[0])
	dst := b.regs(in.Dst[0])
	return b.castParts(in.Type2, in.Type, src, dst)
}

func (b *bodyNormalizer) castParts(from, to types.Type, src, dst []*ir.Reg) error {
	ft, fok := from.(*types.Tuple)
	tt, tok := to.(*types.Tuple)
	switch {
	case fok && tok && len(ft.Elems) == len(tt.Elems):
		fo, to2 := 0, 0
		for k := range ft.Elems {
			fw := len(b.n.flatten(ft.Elems[k]))
			tw := len(b.n.flatten(tt.Elems[k]))
			if err := b.castParts(ft.Elems[k], tt.Elems[k], src[fo:fo+fw], dst[to2:to2+tw]); err != nil {
				return err
			}
			fo += fw
			to2 += tw
		}
		return nil
	case fok != tok || (fok && tok && len(ft.Elems) != len(tt.Elems)):
		// Statically impossible tuple-shape cast: always throws.
		b.emit(&ir.Instr{Op: ir.OpThrow, SVal: "!TypeCheckException"})
		return nil
	}
	// Scalar (possibly void) cast.
	if len(dst) == 0 && len(src) == 0 {
		return nil // void cast to void
	}
	if len(dst) != 1 || len(src) != 1 {
		b.emit(&ir.Instr{Op: ir.OpThrow, SVal: "!TypeCheckException"})
		return nil
	}
	b.emit(&ir.Instr{Op: ir.OpTypeCast, Dst: dst, Args: src, Type: to, Type2: from})
	return nil
}

// query expands a tuple query elementwise, combining with boolean and.
func (b *bodyNormalizer) query(in *ir.Instr) error {
	src := b.regs(in.Args[0])
	dst := b.regs(in.Dst[0])
	res, err := b.queryParts(in.Type2, in.Type, src)
	if err != nil {
		return err
	}
	b.emit(&ir.Instr{Op: ir.OpMove, Dst: dst, Args: []*ir.Reg{res}})
	return nil
}

func (b *bodyNormalizer) queryParts(from, to types.Type, src []*ir.Reg) (*ir.Reg, error) {
	tc := b.n.tc
	constBool := func(v bool) *ir.Reg {
		r := b.nf.NewReg(tc.Bool(), "")
		b.emit(&ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{r}, IVal: boolVal(v)})
		return r
	}
	ft, fok := from.(*types.Tuple)
	tt, tok := to.(*types.Tuple)
	switch {
	case fok && tok && len(ft.Elems) == len(tt.Elems):
		var acc *ir.Reg
		fo := 0
		for k := range ft.Elems {
			fw := len(b.n.flatten(ft.Elems[k]))
			r, err := b.queryParts(ft.Elems[k], tt.Elems[k], src[fo:fo+fw])
			if err != nil {
				return nil, err
			}
			fo += fw
			if acc == nil {
				acc = r
			} else {
				nacc := b.nf.NewReg(tc.Bool(), "")
				b.emit(&ir.Instr{Op: ir.OpBoolAnd, Dst: []*ir.Reg{nacc}, Args: []*ir.Reg{acc, r}})
				acc = nacc
			}
		}
		if acc == nil {
			acc = constBool(true)
		}
		return acc, nil
	case fok != tok || (fok && tok && len(ft.Elems) != len(tt.Elems)):
		return constBool(false), nil
	}
	if len(src) == 0 {
		// void value queried against a scalar type.
		return constBool(to == tc.Void()), nil
	}
	r := b.nf.NewReg(tc.Bool(), "")
	b.emit(&ir.Instr{Op: ir.OpTypeQuery, Dst: []*ir.Reg{r}, Args: []*ir.Reg{src[0]}, Type: to, Type2: from})
	return r, nil
}
