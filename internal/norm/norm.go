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
//
// Declarations (globals, classes, signatures) are flattened into a new
// module, but bodies are rewritten in place: each moves into its
// normalized function, an instruction that maps to one instruction
// keeps its Instr, and a register that flattens to one register of its
// own type keeps its Reg. The input module is consumed.
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

	body bodyNormalizer
}

// Normalize flattens all tuples in a monomorphic module, returning the
// normalized module. The declaration phases and vtable layout run
// first, then function bodies are rewritten one at a time in module
// order. It consumes mod: each body moves into its normalized function
// and is rewritten in place, so callers must not read mod's function
// bodies afterwards. The jobs parameter is ignored.
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
	n, err := declare(mod)
	if err != nil {
		return nil, nil, err
	}
	n.body.n = n
	for _, f := range mod.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if skip != nil && skip(f.Name) {
			continue
		}
		if err := n.body.normalizeBody(f); err != nil {
			return nil, nil, err
		}
	}
	n.finish()
	return n.out, &n.stats, nil
}

// declare runs the declaration phases: globals, classes and function
// signatures are flattened into the output module and vtables filled.
// Bodies are left to the caller.
func declare(mod *ir.Module) (*normalizer, error) {
	if !mod.Monomorphic {
		return nil, fmt.Errorf("norm: module must be monomorphized first (§4.2)")
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
	return n, nil
}

// finish points the output module's entry functions at their
// normalized versions.
func (n *normalizer) finish() {
	if n.in.Init != nil {
		n.out.Init = n.funcMap[n.in.Init]
	}
	if n.in.Main != nil {
		n.out.Main = n.funcMap[n.in.Main]
	}
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
		np := 0
		for _, p := range f.Params {
			np += len(n.flatten(p.Type))
		}
		nf.Params = make([]*ir.Reg, 0, np)
		for _, p := range f.Params {
			parts := n.flatten(p.Type)
			if len(parts) != 1 {
				n.stats.ParamsSplit++
			}
			if len(parts) == 1 && parts[0] == p.Type {
				// A kept register, as in a body: the parameter stays,
				// renumbered into nf. normalizeBody recognizes it by
				// identity.
				nf.AdoptReg(p)
				nf.Params = append(nf.Params, p)
				continue
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

// bodyNormalizer rewrites function bodies in place. One serves every
// body of a module, so its tables are allocated once per module.
type bodyNormalizer struct {
	n  *normalizer
	nf *ir.Func // destination of the body being rewritten
	// in is the source instruction being normalized. The first
	// instruction it expands to reuses its object and, where they fit,
	// its operand lists; pos is its source position, which every
	// instruction it expands to carries, so flattened code keeps
	// source-level traces.
	in   *ir.Instr
	used bool
	pos  src.Pos

	// seen[id] == r marks r as a kept register: it flattens to one
	// register of its own type, so it stays, renumbered into nf at its
	// first use. A register not yet renumbered still carries its
	// source ID, under which seen holds some other register or nothing.
	seen []*ir.Reg
	// parts[id], when its gen is the current body's, locates in arena
	// the fresh registers replacing the source register with that ID
	// (a parameter, or a tuple-typed, void or retyped register). Such a
	// register is never renumbered, so its source ID stays its key.
	parts []partsRef
	arena []*ir.Reg
	gen   int32
	// dbuf and abuf hold the concatenated parts of an instruction's
	// Dst and Args lists while it is normalized.
	dbuf, abuf []*ir.Reg

	// The current block: src is its instruction slice as it was, k the
	// number of instructions emitted so far, and out its rebuilt slice,
	// made at the first expansion or deletion.
	src []*ir.Instr
	k   int
	out []*ir.Instr
}

// partsRef is a span of bodyNormalizer.arena.
type partsRef struct {
	gen    int32
	off, n int32
}

// normalizeBody moves f's body into its normalized function and
// rewrites it in place. Registers and blocks come out numbered exactly
// as a copy would number them: parameters first, then each register at
// its first use in walk order. f is left without a body.
func (b *bodyNormalizer) normalizeBody(f *ir.Func) error {
	nf := b.n.funcMap[f]
	b.nf = nf
	b.gen++
	b.arena = b.arena[:0]
	// Parameters map to nf's flattened parameters: a kept one is its
	// own flattening, already renumbered by declareFuncs; any other
	// still has its source ID and maps to the parameters made for it.
	idx := 0
	for _, p := range f.Params {
		cnt := len(b.n.flatten(p.Type))
		if cnt == 1 && nf.Params[idx] == p {
			b.keep(p)
		} else {
			off := len(b.arena)
			b.arena = append(b.arena, nf.Params[idx:idx+cnt]...)
			b.setRef(p.ID, off)
		}
		idx += cnt
	}
	nf.AdoptBlocks(f.Blocks)
	f.Blocks = nil
	for _, blk := range nf.Blocks {
		b.src, b.k, b.out = blk.Instrs, 0, nil
		for _, in := range b.src {
			b.in, b.used, b.pos = in, false, in.Pos
			if err := b.instr(in); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
		if b.out != nil {
			blk.Instrs = b.out
		} else {
			blk.Instrs = b.src[:b.k]
		}
	}
	b.src, b.out, b.in = nil, nil, nil
	return nil
}

// setRef records arena[off:] as the parts of the source register with
// ID id.
func (b *bodyNormalizer) setRef(id, off int) {
	for len(b.parts) <= id {
		b.parts = append(b.parts, partsRef{})
	}
	b.parts[id] = partsRef{gen: b.gen, off: int32(off), n: int32(len(b.arena) - off)}
}

// regs returns the flattened registers for a source register, keeping
// or creating them on first use. The result is a view into the
// normalizer's tables: callers read it, and put copies it into the
// instruction lists it builds, so no list aliases another.
func (b *bodyNormalizer) regs(r *ir.Reg) []*ir.Reg {
	id := r.ID
	if id < len(b.seen) && b.seen[id] == r {
		return b.seen[id : id+1 : id+1]
	}
	if id < len(b.parts) && b.parts[id].gen == b.gen {
		p := b.parts[id]
		return b.arena[p.off : p.off+p.n : p.off+p.n]
	}
	parts := b.n.flatten(r.Type)
	if len(parts) == 1 && parts[0] == r.Type {
		b.nf.AdoptReg(r)
		return b.keep(r)
	}
	off := len(b.arena)
	for i, pt := range parts {
		name := r.Name
		if len(parts) > 1 {
			name = fmt.Sprintf("%s.%d", r.Name, i)
		}
		b.arena = append(b.arena, b.nf.NewReg(pt, name))
	}
	b.setRef(id, off)
	return b.arena[off:len(b.arena):len(b.arena)]
}

// keep marks r, already renumbered into nf, as a kept register and
// returns its one-register flattening.
func (b *bodyNormalizer) keep(r *ir.Reg) []*ir.Reg {
	id := r.ID
	for len(b.seen) <= id {
		b.seen = append(b.seen, nil)
	}
	b.seen[id] = r
	return b.seen[id : id+1 : id+1]
}

// flatArgs concatenates the flattened registers of several source regs
// into buf, looking them up in order.
func (b *bodyNormalizer) flatArgs(buf *[]*ir.Reg, args []*ir.Reg) []*ir.Reg {
	out := (*buf)[:0]
	for _, a := range args {
		out = append(out, b.regs(a)...)
	}
	*buf = out
	return out
}

// put emits the instruction tmpl with operand lists holding dst and
// args. The first instruction a source instruction expands to is the
// source instruction itself, rewritten, with its lists' storage reused
// where the new lists fit; any further one is new.
func (b *bodyNormalizer) put(tmpl ir.Instr, dst, args []*ir.Reg) {
	in := b.in
	if b.used {
		in = &ir.Instr{}
		*in = tmpl
		in.Dst, in.Args = own(nil, dst), own(nil, args)
	} else {
		b.used = true
		oldDst, oldArgs := in.Dst, in.Args
		*in = tmpl
		in.Dst, in.Args = own(oldDst, dst), own(oldArgs, args)
	}
	in.Pos = b.pos
	b.emit(in)
}

// own returns a list holding rs, in old's storage when rs fits. old
// belongs to the instruction being rewritten, and rs never points into
// an instruction's list, so the copy cannot clobber its own input.
func own(old, rs []*ir.Reg) []*ir.Reg {
	if len(rs) == 0 {
		return nil
	}
	if cap(old) < len(rs) {
		old = make([]*ir.Reg, len(rs))
	}
	old = old[:len(rs)]
	copy(old, rs)
	return old
}

// emit appends in to the current block. While the output matches the
// block's instructions one for one, it only advances; at the first
// difference it rebuilds the block's slice from there on.
func (b *bodyNormalizer) emit(in *ir.Instr) {
	if b.out == nil {
		if b.k < len(b.src) && b.src[b.k] == in {
			b.k++
			return
		}
		b.out = append(make([]*ir.Instr, 0, len(b.src)+8), b.src[:b.k]...)
	}
	b.out = append(b.out, in)
}

// one is a one-register list for put.
func one(r *ir.Reg) []*ir.Reg { return []*ir.Reg{r} }

// moveAll emits pairwise moves from src to dst registers.
func (b *bodyNormalizer) moveAll(dst, src []*ir.Reg) error {
	if len(dst) != len(src) {
		return fmt.Errorf("norm: move shape mismatch: %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		b.put(ir.Instr{Op: ir.OpMove}, dst[i:i+1], src[i:i+1])
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

// instr normalizes one instruction. The order in which a case looks
// registers up is part of its output, since first uses fix register
// numbering: the destination comes before the operands unless noted.
func (b *bodyNormalizer) instr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpNop:
		return nil
	case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool, ir.OpConstString:
		b.put(ir.Instr{Op: in.Op, IVal: in.IVal, SVal: in.SVal}, b.regs(in.Dst[0]), nil)
		return nil
	case ir.OpConstVoid:
		b.regs(in.Dst[0]) // expands to no registers
		return nil
	case ir.OpConstEnum:
		b.put(ir.Instr{Op: in.Op, IVal: in.IVal, Type: in.Type}, b.regs(in.Dst[0]), nil)
		return nil
	case ir.OpEnumTag, ir.OpEnumName:
		dst := b.regs(in.Dst[0])
		b.put(ir.Instr{Op: in.Op}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil
	case ir.OpConstNull:
		dst := b.regs(in.Dst[0])
		if len(dst) == 1 {
			b.put(ir.Instr{Op: ir.OpConstNull, Type: in.Type}, dst, nil)
		} else if len(dst) != 0 {
			return fmt.Errorf("norm: const.null of non-scalar type %s", in.Type)
		}
		return nil
	case ir.OpMove:
		dst := b.regs(in.Dst[0])
		return b.moveAll(dst, b.regs(in.Args[0]))

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpShl,
		ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNeg, ir.OpNot,
		ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpBoolAnd, ir.OpBoolOr:
		dst := b.regs(in.Dst[0])
		b.put(ir.Instr{Op: in.Op, Type: in.Type}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil

	case ir.OpEq, ir.OpNe:
		return b.equality(in)

	case ir.OpMakeTuple:
		// (§4.2 q1'): the tuple's registers are its elements' registers.
		b.n.stats.TuplesEliminated++
		dst := b.regs(in.Dst[0])
		return b.moveAll(dst, b.flatArgs(&b.abuf, in.Args))
	case ir.OpTupleGet:
		// Operand before destination.
		src := b.regs(in.Args[0])
		off, width, err := b.tupleOffsets(in.Args[0].Type, in.FieldSlot)
		if err != nil {
			return err
		}
		return b.moveAll(b.regs(in.Dst[0]), src[off:off+width])

	case ir.OpNewObject:
		b.put(ir.Instr{Op: ir.OpNewObject, Type: in.Type}, b.regs(in.Dst[0]), nil)
		return nil
	case ir.OpFieldLoad, ir.OpFieldStore:
		return b.fieldAccess(in)
	case ir.OpNullCheck:
		b.put(ir.Instr{Op: ir.OpNullCheck}, nil, b.regs(in.Args[0]))
		return nil

	case ir.OpArrayNew:
		at := in.Type.(*types.Array)
		parts := b.n.flatten(at.Elem)
		dst := b.regs(in.Dst[0])
		lenReg := b.regs(in.Args[0])
		if len(parts) == 0 {
			// Array<void>: a single length-only array (§4.2).
			b.put(ir.Instr{Op: ir.OpArrayNew, Type: at}, dst, lenReg)
			return nil
		}
		for k, pt := range parts {
			b.put(ir.Instr{Op: ir.OpArrayNew, Type: b.n.tc.ArrayOf(pt)}, dst[k:k+1], lenReg)
		}
		return nil
	case ir.OpArrayLoad:
		// Operands before destination.
		arrs := b.regs(in.Args[0])
		idx := b.regs(in.Args[1])
		dst := b.regs(in.Dst[0])
		if len(dst) == 0 {
			// Void element: the access is still bounds-checked (§4.2).
			b.put(ir.Instr{Op: ir.OpArrayLoad}, nil, []*ir.Reg{arrs[0], idx[0]})
			return nil
		}
		for k := range dst {
			b.put(ir.Instr{Op: ir.OpArrayLoad}, dst[k:k+1], []*ir.Reg{arrs[k], idx[0]})
		}
		return nil
	case ir.OpArrayStore:
		arrs := b.regs(in.Args[0])
		idx := b.regs(in.Args[1])
		vals := b.regs(in.Args[2])
		if len(vals) == 0 {
			b.put(ir.Instr{Op: ir.OpArrayLoad}, nil, []*ir.Reg{arrs[0], idx[0]})
			return nil
		}
		for k := range vals {
			b.put(ir.Instr{Op: ir.OpArrayStore}, nil, []*ir.Reg{arrs[k], idx[0], vals[k]})
		}
		return nil
	case ir.OpArrayLen:
		// Operand before destination.
		arrs := b.regs(in.Args[0])
		b.put(ir.Instr{Op: ir.OpArrayLen}, b.regs(in.Dst[0]), arrs[:1])
		return nil

	case ir.OpGlobalLoad:
		ngs := b.n.globalMap[in.Global]
		dst := b.regs(in.Dst[0])
		for k, g := range ngs {
			b.put(ir.Instr{Op: ir.OpGlobalLoad, Global: g}, dst[k:k+1], nil)
		}
		return nil
	case ir.OpGlobalStore:
		ngs := b.n.globalMap[in.Global]
		vals := b.regs(in.Args[0])
		for k, g := range ngs {
			b.put(ir.Instr{Op: ir.OpGlobalStore, Global: g}, nil, vals[k:k+1])
		}
		return nil

	case ir.OpCallStatic:
		dst := b.flatArgs(&b.dbuf, in.Dst)
		b.put(ir.Instr{Op: ir.OpCallStatic, Fn: b.n.funcMap[in.Fn]}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil
	case ir.OpCallVirtual:
		dst := b.flatArgs(&b.dbuf, in.Dst)
		b.put(ir.Instr{Op: ir.OpCallVirtual, FieldSlot: in.FieldSlot, Type: in.Type}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil
	case ir.OpCallIndirect:
		dst := b.flatArgs(&b.dbuf, in.Dst)
		b.put(ir.Instr{Op: ir.OpCallIndirect}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil
	case ir.OpCallBuiltin:
		dst := b.flatArgs(&b.dbuf, in.Dst)
		b.put(ir.Instr{Op: ir.OpCallBuiltin, SVal: in.SVal}, dst, b.flatArgs(&b.abuf, in.Args))
		return nil

	case ir.OpMakeClosure:
		b.put(ir.Instr{Op: ir.OpMakeClosure, Fn: b.n.funcMap[in.Fn], Type2: in.Type2}, b.regs(in.Dst[0]), nil)
		return nil
	case ir.OpMakeBound:
		dst := b.regs(in.Dst[0])
		b.put(ir.Instr{Op: ir.OpMakeBound, FieldSlot: in.FieldSlot, Type: in.Type, Type2: in.Type2}, dst, b.regs(in.Args[0]))
		return nil

	case ir.OpTypeCast:
		return b.cast(in)
	case ir.OpTypeQuery:
		return b.query(in)

	case ir.OpRet:
		b.put(ir.Instr{Op: ir.OpRet}, nil, b.flatArgs(&b.abuf, in.Args))
		return nil
	case ir.OpJump:
		// Branch targets are the moved blocks themselves.
		b.put(ir.Instr{Op: ir.OpJump, Blocks: in.Blocks}, nil, nil)
		return nil
	case ir.OpBranch:
		b.put(ir.Instr{Op: ir.OpBranch, Blocks: in.Blocks}, nil, b.regs(in.Args[0]))
		return nil
	case ir.OpThrow:
		b.put(ir.Instr{Op: ir.OpThrow, SVal: in.SVal}, nil, nil)
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
		if in.Op == ir.OpFieldLoad {
			b.regs(in.Dst[0]) // expands to no registers
		}
		b.put(ir.Instr{Op: ir.OpNullCheck}, nil, obj)
		return nil
	}
	if in.Op == ir.OpFieldLoad {
		dst := b.regs(in.Dst[0])
		for k := 0; k < count; k++ {
			b.put(ir.Instr{Op: ir.OpFieldLoad, FieldSlot: start + k}, dst[k:k+1], obj)
		}
		return nil
	}
	vals := b.regs(in.Args[1])
	for k := 0; k < count; k++ {
		b.put(ir.Instr{Op: ir.OpFieldStore, FieldSlot: start + k}, nil, []*ir.Reg{obj[0], vals[k]})
	}
	return nil
}

// equality expands tuple equality into elementwise comparisons combined
// with boolean operators (§2.3's recursive equality). Operands before
// destination.
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
		b.put(ir.Instr{Op: ir.OpConstBool, IVal: boolVal(in.Op == ir.OpEq)}, dst, nil)
		return nil
	}
	if len(l) == 1 {
		b.put(ir.Instr{Op: eqOp}, dst, []*ir.Reg{l[0], r[0]})
		return nil
	}
	acc := b.nf.NewReg(b.n.tc.Bool(), "")
	b.put(ir.Instr{Op: eqOp}, one(acc), []*ir.Reg{l[0], r[0]})
	for k := 1; k < len(l); k++ {
		t := b.nf.NewReg(b.n.tc.Bool(), "")
		b.put(ir.Instr{Op: eqOp}, one(t), []*ir.Reg{l[k], r[k]})
		nacc := b.nf.NewReg(b.n.tc.Bool(), "")
		b.put(ir.Instr{Op: combine}, one(nacc), []*ir.Reg{acc, t})
		acc = nacc
	}
	b.put(ir.Instr{Op: ir.OpMove}, dst, one(acc))
	return nil
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cast expands a tuple cast elementwise (§2.3); scalar casts pass
// through. A cast whose shapes cannot match throws at runtime. Operand
// before destination.
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
		b.put(ir.Instr{Op: ir.OpThrow, SVal: "!TypeCheckException"}, nil, nil)
		return nil
	}
	// Scalar (possibly void) cast.
	if len(dst) == 0 && len(src) == 0 {
		return nil // void cast to void
	}
	if len(dst) != 1 || len(src) != 1 {
		b.put(ir.Instr{Op: ir.OpThrow, SVal: "!TypeCheckException"}, nil, nil)
		return nil
	}
	b.put(ir.Instr{Op: ir.OpTypeCast, Type: to, Type2: from}, dst, src)
	return nil
}

// query expands a tuple query elementwise, combining with boolean and.
// Operand before destination.
func (b *bodyNormalizer) query(in *ir.Instr) error {
	src := b.regs(in.Args[0])
	dst := b.regs(in.Dst[0])
	res, err := b.queryParts(in.Type2, in.Type, src)
	if err != nil {
		return err
	}
	b.put(ir.Instr{Op: ir.OpMove}, dst, one(res))
	return nil
}

func (b *bodyNormalizer) queryParts(from, to types.Type, src []*ir.Reg) (*ir.Reg, error) {
	tc := b.n.tc
	constBool := func(v bool) *ir.Reg {
		r := b.nf.NewReg(tc.Bool(), "")
		b.put(ir.Instr{Op: ir.OpConstBool, IVal: boolVal(v)}, one(r), nil)
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
				b.put(ir.Instr{Op: ir.OpBoolAnd}, one(nacc), []*ir.Reg{acc, r})
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
	b.put(ir.Instr{Op: ir.OpTypeQuery, Type: to, Type2: from}, one(r), src[:1])
	return r, nil
}
