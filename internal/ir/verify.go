package ir

import (
	"fmt"

	"repro/internal/types"
)

// Verify performs full typed verification of a module, extending the
// structural checks of Validate with type-aware rules:
//
//   - per-opcode register-type agreement: each instruction's operand
//     and result registers carry types compatible with the opcode;
//   - def-before-use: a forward dataflow over the CFG proves every
//     register is defined on all paths before each use;
//   - call-site agreement: arity and (substituted) signature of every
//     call match the callee Func, and callees/globals/vtable entries
//     belong to the module;
//   - stage-conditional invariants: after monomorphization no type
//     parameters remain anywhere (§4.3) and call sites carry no type
//     arguments; after normalization no tuple opcodes or tuple-typed
//     registers remain (§4.2).
//
// Before monomorphization register types may be open (mention type
// parameters); the verifier is deliberately tolerant there — any rule
// involving an open type is deferred to the post-mono verification,
// where every type must be closed and checks are exact.
//
// Functions are checked in module order and the first failure is
// reported, followed by the whole-program vtable-shape checks.
func (m *Module) Verify() error {
	if err := m.Validate(); err != nil {
		return err
	}
	v := newVerifier(m)
	if m.Main != nil && !v.funcs[m.Main] {
		return fmt.Errorf("main function %s is not in the module", m.Main.Name)
	}
	if m.Init != nil && !v.funcs[m.Init] {
		return fmt.Errorf("init function %s is not in the module", m.Init.Name)
	}
	for _, f := range m.Funcs {
		if err := v.verifyFunc(f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return v.verifyShapes()
}

// verifier carries the per-module lookup structures: membership sets
// for funcs and globals (call/global targets must resolve inside the
// module) and class indexes keyed both by closed instantiation type
// (post-mono) and by definition (pre-mono).
type verifier struct {
	m       *Module
	tc      *types.Cache
	funcs   map[*Func]bool
	globals map[*Global]bool
	byType  map[*types.Class]*Class
	byDef   map[*types.ClassDef]*Class
}

func newVerifier(m *Module) *verifier {
	v := &verifier{
		m:       m,
		tc:      m.Types,
		funcs:   make(map[*Func]bool, len(m.Funcs)),
		globals: make(map[*Global]bool, len(m.Globals)),
		byType:  make(map[*types.Class]*Class, len(m.Classes)),
		byDef:   make(map[*types.ClassDef]*Class, len(m.Classes)),
	}
	for _, f := range m.Funcs {
		v.funcs[f] = true
	}
	for _, g := range m.Globals {
		v.globals[g] = true
	}
	for _, c := range m.Classes {
		if c.Type != nil {
			v.byType[c.Type] = c
		}
		if c.Def != nil {
			if _, ok := v.byDef[c.Def]; !ok {
				v.byDef[c.Def] = c
			}
		}
	}
	return v
}

// classFor resolves the IR class metadata for a receiver type. After
// monomorphization every materialized instantiation is indexed by its
// closed type; before, there is exactly one IR class per definition.
// Returns nil when the type is not materialized (the caller skips the
// dependent checks rather than guessing).
func (v *verifier) classFor(ct *types.Class) *Class {
	if c, ok := v.byType[ct]; ok {
		return c
	}
	if !v.m.Monomorphic {
		return v.byDef[ct.Def]
	}
	return nil
}

// open reports whether a rule touching t must be deferred: open types
// are legal only before monomorphization, where substitution has not
// yet closed them and exact agreement cannot be decided.
func (v *verifier) open(t types.Type) bool {
	return !v.m.Monomorphic && types.HasTypeParams(t)
}

// assignable is the verifier's compatibility relation: subtyping on
// closed types, tolerance on open ones. Subtyping rather than equality
// is required because optimization legally weakens operand types (copy
// propagation substitutes subtype-typed sources; cast elision rewrites
// a cast to a move from the subtype).
func (v *verifier) assignable(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if from == to {
		return true
	}
	if v.open(from) || v.open(to) {
		return true
	}
	return v.tc.IsSubtype(from, to)
}

// comparable reports whether two operand types may hold comparable
// values: one must be assignable to the other (equality operands are
// adapted to a common static type, but optimization may narrow either
// side independently).
func (v *verifier) comparable(a, b types.Type) bool {
	return v.assignable(a, b) || v.assignable(b, a)
}

func (v *verifier) isPrim(t types.Type, k types.PrimKind) bool {
	p, ok := t.(*types.Prim)
	return ok && p.Kind == k
}

func (v *verifier) verifyFunc(f *Func) error {
	canon := map[int]*Reg{}
	note := func(r *Reg) error {
		if r == nil {
			return fmt.Errorf("nil register")
		}
		if r.ID < 0 || r.ID >= f.NumRegs() {
			return fmt.Errorf("register %s out of range [0,%d)", r, f.NumRegs())
		}
		if prev, ok := canon[r.ID]; ok && prev != r {
			return fmt.Errorf("two distinct registers share id v%d (foreign register?)", r.ID)
		}
		canon[r.ID] = r
		if r.Type == nil {
			return fmt.Errorf("register %s has no type", r)
		}
		return nil
	}
	for _, p := range f.Params {
		if err := note(p); err != nil {
			return fmt.Errorf("param: %w", err)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Dst {
				if err := note(r); err != nil {
					return fmt.Errorf("block b%d: %s: %w", b.ID, in, err)
				}
			}
			for _, r := range in.Args {
				if err := note(r); err != nil {
					return fmt.Errorf("block b%d: %s: %w", b.ID, in, err)
				}
			}
		}
	}
	if !v.m.Normalized && len(f.Results) != 1 {
		return fmt.Errorf("want exactly 1 result type before normalization, got %d", len(f.Results))
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if err := v.checkInstr(f, in); err != nil {
				return fmt.Errorf("block b%d: %s: %w", b.ID, in, err)
			}
		}
	}
	return v.checkDefUse(f)
}

// ------------------------------------------------------ def-before-use

// checkDefUse runs a forward all-paths dataflow: a register may be
// used only if it is defined on every path from entry. Unreachable
// blocks start from the optimistic "everything defined" state so dead
// merge blocks left by lowering do not trip the check.
func (v *verifier) checkDefUse(f *Func) error {
	words := (f.NumRegs() + 63) / 64
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	clone := func(s []uint64) []uint64 { return append([]uint64(nil), s...) }

	preds := map[*Block][]*Block{}
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			for _, s := range t.Blocks {
				preds[s] = append(preds[s], b)
			}
		}
	}
	entryIn := make([]uint64, words)
	for _, p := range f.Params {
		entryIn[p.ID/64] |= 1 << (p.ID % 64)
	}
	// transfer computes the out-set of b from a given in-set.
	transfer := func(b *Block, in []uint64) []uint64 {
		out := clone(in)
		for _, instr := range b.Instrs {
			for _, d := range instr.Dst {
				out[d.ID/64] |= 1 << (d.ID % 64)
			}
		}
		return out
	}
	out := map[*Block][]uint64{}
	for _, b := range f.Blocks {
		out[b] = full
	}
	inOf := func(b *Block) []uint64 {
		if len(f.Blocks) > 0 && b == f.Blocks[0] {
			return clone(entryIn)
		}
		ps := preds[b]
		if len(ps) == 0 {
			return clone(full) // unreachable: optimistic
		}
		in := clone(out[ps[0]])
		for _, p := range ps[1:] {
			po := out[p]
			for i := range in {
				in[i] &= po[i]
			}
		}
		return in
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			nout := transfer(b, inOf(b))
			old := out[b]
			for i := range nout {
				if nout[i] != old[i] {
					out[b] = nout
					changed = true
					break
				}
			}
		}
	}
	for _, b := range f.Blocks {
		live := inOf(b)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if live[a.ID/64]&(1<<(a.ID%64)) == 0 {
					return fmt.Errorf("block b%d: %s: register %s used before definition", b.ID, in, a)
				}
			}
			for _, d := range in.Dst {
				live[d.ID/64] |= 1 << (d.ID % 64)
			}
		}
	}
	return nil
}

// ------------------------------------------------------- instructions

func (v *verifier) checkInstr(f *Func, in *Instr) error {
	dt := func(i int) types.Type { return in.Dst[i].Type }
	at := func(i int) types.Type { return in.Args[i].Type }
	wantDst := func(i int, k types.PrimKind, what string) error {
		if !v.isPrim(dt(i), k) && !v.open(dt(i)) {
			return fmt.Errorf("result must be %s, got %s", what, dt(i))
		}
		return nil
	}
	wantArg := func(i int, k types.PrimKind, what string) error {
		if !v.isPrim(at(i), k) && !v.open(at(i)) {
			return fmt.Errorf("operand %d must be %s, got %s", i, what, at(i))
		}
		return nil
	}

	switch in.Op {
	case OpNop:
		return nil

	case OpConstInt:
		return wantDst(0, types.KindInt, "int")
	case OpConstByte:
		return wantDst(0, types.KindByte, "byte")
	case OpConstBool:
		return wantDst(0, types.KindBool, "bool")
	case OpConstVoid:
		return wantDst(0, types.KindVoid, "void")
	case OpConstString:
		if dt(0) != v.tc.String() && !v.open(dt(0)) {
			return fmt.Errorf("result must be Array<byte>, got %s", dt(0))
		}
		return nil
	case OpConstNull:
		if in.Type == nil {
			return fmt.Errorf("missing type")
		}
		if !v.assignable(in.Type, dt(0)) {
			return fmt.Errorf("null of %s into register of %s", in.Type, dt(0))
		}
		return nil

	case OpMove:
		if !v.assignable(at(0), dt(0)) {
			return fmt.Errorf("move %s into register of %s", at(0), dt(0))
		}
		return nil

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpShl, OpShr, OpAnd, OpOr, OpXor:
		for i := range in.Args {
			if err := wantArg(i, types.KindInt, "int"); err != nil {
				return err
			}
		}
		return wantDst(0, types.KindInt, "int")
	case OpNeg:
		if err := wantArg(0, types.KindInt, "int"); err != nil {
			return err
		}
		return wantDst(0, types.KindInt, "int")

	case OpLt, OpLe, OpGt, OpGe:
		// Type is the operand type: int or byte (§2.5 comparisons).
		if in.Type != nil && !v.open(in.Type) {
			if !v.isPrim(in.Type, types.KindInt) && !v.isPrim(in.Type, types.KindByte) {
				return fmt.Errorf("comparison on non-numeric type %s", in.Type)
			}
			for i := range in.Args {
				if !v.assignable(at(i), in.Type) {
					return fmt.Errorf("operand %d has %s, want %s", i, at(i), in.Type)
				}
			}
		}
		return wantDst(0, types.KindBool, "bool")

	case OpEq, OpNe:
		if !v.comparable(at(0), at(1)) {
			return fmt.Errorf("equality on incompatible types %s and %s", at(0), at(1))
		}
		return wantDst(0, types.KindBool, "bool")

	case OpNot, OpBoolAnd, OpBoolOr:
		for i := range in.Args {
			if err := wantArg(i, types.KindBool, "bool"); err != nil {
				return err
			}
		}
		return wantDst(0, types.KindBool, "bool")

	case OpMakeTuple:
		if in.Type == nil {
			return fmt.Errorf("missing tuple type")
		}
		if tt, ok := in.Type.(*types.Tuple); ok && !v.open(in.Type) {
			if len(in.Args) != len(tt.Elems) {
				return fmt.Errorf("tuple of %d elements built from %d operands", len(tt.Elems), len(in.Args))
			}
			for i, e := range tt.Elems {
				if !v.assignable(at(i), e) {
					return fmt.Errorf("element %d has %s, want %s", i, at(i), e)
				}
			}
		}
		if !v.assignable(in.Type, dt(0)) {
			return fmt.Errorf("tuple %s into register of %s", in.Type, dt(0))
		}
		return nil
	case OpTupleGet:
		if tt, ok := at(0).(*types.Tuple); ok {
			if in.FieldSlot < 0 || in.FieldSlot >= len(tt.Elems) {
				return fmt.Errorf("tuple index %d out of range for %s", in.FieldSlot, at(0))
			}
			if !v.assignable(tt.Elems[in.FieldSlot], dt(0)) {
				return fmt.Errorf("element %s into register of %s", tt.Elems[in.FieldSlot], dt(0))
			}
		} else if !v.open(at(0)) {
			return fmt.Errorf("tuple.get on non-tuple %s", at(0))
		}
		return nil

	case OpNewObject:
		ct, ok := in.Type.(*types.Class)
		if !ok {
			return fmt.Errorf("new of non-class type %s", in.Type)
		}
		if !v.assignable(ct, dt(0)) {
			return fmt.Errorf("new %s into register of %s", ct, dt(0))
		}
		return nil

	case OpFieldLoad, OpFieldStore:
		ct, ok := at(0).(*types.Class)
		if !ok {
			if v.open(at(0)) {
				return nil
			}
			return fmt.Errorf("field access on non-class %s", at(0))
		}
		cls := v.classFor(ct)
		if cls == nil {
			if v.m.Monomorphic {
				return fmt.Errorf("field access on unmaterialized class %s", ct)
			}
			return nil
		}
		if in.FieldSlot < 0 || in.FieldSlot >= len(cls.Fields) {
			return fmt.Errorf("field slot %d out of range for %s (%d fields)", in.FieldSlot, cls.Name, len(cls.Fields))
		}
		ftype := cls.Fields[in.FieldSlot].Type
		if len(ct.Def.TypeParams) == len(ct.Args) {
			ftype = v.tc.Subst(ftype, types.BindParams(ct.Def.TypeParams, ct.Args))
		}
		if in.Op == OpFieldLoad {
			if !v.assignable(ftype, dt(0)) {
				return fmt.Errorf("field %s of %s into register of %s", cls.Fields[in.FieldSlot].Name, ftype, dt(0))
			}
		} else if !v.assignable(at(1), ftype) {
			return fmt.Errorf("store of %s into field %s of %s", at(1), cls.Fields[in.FieldSlot].Name, ftype)
		}
		return nil

	case OpNullCheck:
		if !types.IsRefType(at(0)) && !v.open(at(0)) && !v.isPrim(at(0), types.KindNull) {
			return fmt.Errorf("nullcheck of non-reference %s", at(0))
		}
		return nil

	case OpArrayNew:
		att, ok := in.Type.(*types.Array)
		if !ok {
			if v.open(in.Type) {
				return nil
			}
			return fmt.Errorf("array.new of non-array type %s", in.Type)
		}
		if err := wantArg(0, types.KindInt, "int"); err != nil {
			return err
		}
		if !v.assignable(att, dt(0)) {
			return fmt.Errorf("new %s into register of %s", att, dt(0))
		}
		return nil
	case OpArrayLoad:
		if len(in.Args) != 2 {
			return fmt.Errorf("want 2 args, got %d", len(in.Args))
		}
		if len(in.Dst) > 1 {
			return fmt.Errorf("want at most 1 dst, got %d", len(in.Dst))
		}
		if err := wantArg(1, types.KindInt, "int"); err != nil {
			return err
		}
		att, ok := at(0).(*types.Array)
		if !ok {
			if v.open(at(0)) {
				return nil
			}
			return fmt.Errorf("array.load on non-array %s", at(0))
		}
		if len(in.Dst) == 1 && !v.assignable(att.Elem, dt(0)) {
			return fmt.Errorf("element %s into register of %s", att.Elem, dt(0))
		}
		return nil
	case OpArrayStore:
		if err := wantArg(1, types.KindInt, "int"); err != nil {
			return err
		}
		att, ok := at(0).(*types.Array)
		if !ok {
			if v.open(at(0)) {
				return nil
			}
			return fmt.Errorf("array.store on non-array %s", at(0))
		}
		if !v.assignable(at(2), att.Elem) {
			return fmt.Errorf("store of %s into array of %s", at(2), att.Elem)
		}
		return nil
	case OpArrayLen:
		if _, ok := at(0).(*types.Array); !ok && !v.open(at(0)) {
			return fmt.Errorf("array.len on non-array %s", at(0))
		}
		return wantDst(0, types.KindInt, "int")

	case OpGlobalLoad:
		if !v.globals[in.Global] {
			return fmt.Errorf("global @%s is not in the module", in.Global.Name)
		}
		if !v.assignable(in.Global.Type, dt(0)) {
			return fmt.Errorf("global %s into register of %s", in.Global.Type, dt(0))
		}
		return nil
	case OpGlobalStore:
		if !v.globals[in.Global] {
			return fmt.Errorf("global @%s is not in the module", in.Global.Name)
		}
		if !v.assignable(at(0), in.Global.Type) {
			return fmt.Errorf("store of %s into global of %s", at(0), in.Global.Type)
		}
		return nil

	case OpCallStatic:
		return v.checkCallStatic(f, in)
	case OpCallVirtual:
		return v.checkCallVirtual(f, in)
	case OpCallIndirect:
		return v.checkCallIndirect(f, in)
	case OpCallBuiltin:
		if in.SVal == "" {
			return fmt.Errorf("builtin call without a name")
		}
		return nil

	case OpMakeClosure:
		if !v.funcs[in.Fn] {
			return fmt.Errorf("closure over function %s outside the module", in.Fn.Name)
		}
		if len(in.TypeArgs) != len(in.Fn.TypeParams) {
			return fmt.Errorf("closure over %s with %d type args, want %d", in.Fn.Name, len(in.TypeArgs), len(in.Fn.TypeParams))
		}
		if in.Type2 != nil && !v.assignable(in.Type2, dt(0)) {
			return fmt.Errorf("closure of %s into register of %s", in.Type2, dt(0))
		}
		return nil
	case OpMakeBound:
		ct, ok := at(0).(*types.Class)
		if !ok {
			if v.open(at(0)) {
				return nil
			}
			return fmt.Errorf("bound closure over non-class receiver %s", at(0))
		}
		if cls := v.classFor(ct); cls != nil && in.FieldSlot >= len(cls.Vtable) {
			return fmt.Errorf("bound closure vtable slot %d out of range for %s", in.FieldSlot, cls.Name)
		}
		if in.Type2 != nil && !v.assignable(in.Type2, dt(0)) {
			return fmt.Errorf("bound closure of %s into register of %s", in.Type2, dt(0))
		}
		return nil

	case OpConstEnum:
		et, ok := in.Type.(*types.Enum)
		if !ok {
			return fmt.Errorf("const.enum of non-enum type %s", in.Type)
		}
		if in.IVal < 0 || in.IVal >= int64(len(et.Def.Cases)) {
			return fmt.Errorf("enum case %d out of range for %s", in.IVal, et)
		}
		if !v.assignable(et, dt(0)) {
			return fmt.Errorf("enum %s into register of %s", et, dt(0))
		}
		return nil
	case OpEnumTag:
		if _, ok := at(0).(*types.Enum); !ok && !v.open(at(0)) {
			return fmt.Errorf("enum.tag of non-enum %s", at(0))
		}
		return wantDst(0, types.KindInt, "int")
	case OpEnumName:
		if _, ok := at(0).(*types.Enum); !ok && !v.open(at(0)) {
			return fmt.Errorf("enum.name of non-enum %s", at(0))
		}
		if dt(0) != v.tc.String() && !v.open(dt(0)) {
			return fmt.Errorf("enum.name result must be Array<byte>, got %s", dt(0))
		}
		return nil

	case OpTypeCast:
		if in.Type == nil || in.Type2 == nil {
			return fmt.Errorf("cast without target/source types")
		}
		if !v.assignable(at(0), in.Type2) {
			return fmt.Errorf("cast operand %s does not fit declared source %s", at(0), in.Type2)
		}
		if !v.assignable(in.Type, dt(0)) {
			return fmt.Errorf("cast target %s into register of %s", in.Type, dt(0))
		}
		return nil
	case OpTypeQuery:
		if in.Type == nil || in.Type2 == nil {
			return fmt.Errorf("query without target/source types")
		}
		if !v.assignable(at(0), in.Type2) {
			return fmt.Errorf("query operand %s does not fit declared source %s", at(0), in.Type2)
		}
		return wantDst(0, types.KindBool, "bool")

	case OpRet:
		return v.checkRet(f, in)
	case OpJump:
		return nil
	case OpBranch:
		return wantArg(0, types.KindBool, "bool")
	case OpThrow:
		if in.SVal == "" {
			return fmt.Errorf("throw without an exception name")
		}
		return nil
	}
	return nil
}

// checkRet accepts a bare ret in any function (lowering emits one when
// control falls off the end of a body whose value paths all returned);
// a ret with operands must agree with the declared results.
func (v *verifier) checkRet(f *Func, in *Instr) error {
	if len(in.Args) == 0 {
		return nil
	}
	if !v.m.Normalized {
		if len(in.Args) != 1 {
			return fmt.Errorf("multi-value ret before normalization")
		}
		if !v.assignable(in.Args[0].Type, f.Results[0]) {
			return fmt.Errorf("ret of %s, want %s", in.Args[0].Type, f.Results[0])
		}
		return nil
	}
	if len(in.Args) != len(f.Results) {
		return fmt.Errorf("ret of %d values, want %d", len(in.Args), len(f.Results))
	}
	for i, r := range f.Results {
		if !v.assignable(in.Args[i].Type, r) {
			return fmt.Errorf("ret value %d has %s, want %s", i, in.Args[i].Type, r)
		}
	}
	return nil
}

// checkCallDsts verifies result registers against the callee's
// (substituted) result types: before normalization a call has one
// result register unless the result is void; after, one per scalar.
func (v *verifier) checkCallDsts(in *Instr, results []types.Type) error {
	if !v.m.Normalized {
		if len(in.Dst) > 1 {
			return fmt.Errorf("multi-result call before normalization")
		}
		if len(in.Dst) == 1 && !v.assignable(results[0], in.Dst[0].Type) {
			return fmt.Errorf("result %s into register of %s", results[0], in.Dst[0].Type)
		}
		return nil
	}
	if len(in.Dst) != len(results) {
		return fmt.Errorf("call has %d result registers, callee returns %d", len(in.Dst), len(results))
	}
	for i, r := range results {
		if !v.assignable(r, in.Dst[i].Type) {
			return fmt.Errorf("result %d of %s into register of %s", i, r, in.Dst[i].Type)
		}
	}
	return nil
}

func (v *verifier) checkCallStatic(f *Func, in *Instr) error {
	callee := in.Fn
	if !v.funcs[callee] {
		return fmt.Errorf("call targets %s outside the module", callee.Name)
	}
	if len(in.TypeArgs) != len(callee.TypeParams) {
		return fmt.Errorf("call to %s with %d type args, want %d", callee.Name, len(in.TypeArgs), len(callee.TypeParams))
	}
	if len(in.Args) != len(callee.Params) {
		return fmt.Errorf("call to %s with %d args, want %d", callee.Name, len(in.Args), len(callee.Params))
	}
	var env map[*types.TypeParamDef]types.Type
	if len(callee.TypeParams) > 0 {
		env = types.BindParams(callee.TypeParams, in.TypeArgs)
	}
	subst := func(t types.Type) types.Type {
		if env == nil {
			return t
		}
		return v.tc.Subst(t, env)
	}
	for i, p := range callee.Params {
		if want := subst(p.Type); !v.assignable(in.Args[i].Type, want) {
			return fmt.Errorf("arg %d has %s, %s wants %s", i, in.Args[i].Type, callee.Name, want)
		}
	}
	results := make([]types.Type, len(callee.Results))
	for i, r := range callee.Results {
		results[i] = subst(r)
	}
	return v.checkCallDsts(in, results)
}

func (v *verifier) checkCallVirtual(f *Func, in *Instr) error {
	ct, ok := in.Type.(*types.Class)
	if !ok {
		return fmt.Errorf("virtual call through non-class type %s", in.Type)
	}
	if !v.assignable(in.Args[0].Type, ct) {
		return fmt.Errorf("receiver %s is not a %s", in.Args[0].Type, ct)
	}
	cls := v.classFor(ct)
	if cls == nil {
		if v.m.Monomorphic {
			return fmt.Errorf("virtual call through unmaterialized class %s", ct)
		}
		return nil
	}
	if in.FieldSlot >= len(cls.Vtable) {
		return fmt.Errorf("vtable slot %d out of range for %s (%d slots)", in.FieldSlot, cls.Name, len(cls.Vtable))
	}
	callee := cls.Vtable[in.FieldSlot]
	if callee == nil {
		// Monomorphization pads remapped dispatch tables with nil for
		// slot/type-argument combinations never reached on this branch
		// of the hierarchy; such a slot cannot be invoked at runtime.
		return nil
	}
	if len(in.Args) != len(callee.Params) {
		return fmt.Errorf("virtual call to %s with %d args, want %d", callee.Name, len(in.Args), len(callee.Params))
	}
	if len(callee.TypeParams) > 0 {
		// Open callee: method type arguments must line up; parameter
		// agreement is deferred to post-mono, where slots are exact.
		if len(in.TypeArgs) != len(callee.TypeParams)-callee.NumClassParams {
			return fmt.Errorf("virtual call to %s with %d method type args, want %d",
				callee.Name, len(in.TypeArgs), len(callee.TypeParams)-callee.NumClassParams)
		}
		return nil
	}
	for i, p := range callee.Params {
		if !v.assignable(in.Args[i].Type, p.Type) {
			return fmt.Errorf("arg %d has %s, %s wants %s", i, in.Args[i].Type, callee.Name, p.Type)
		}
	}
	return v.checkCallDsts(in, callee.Results)
}

func (v *verifier) checkCallIndirect(f *Func, in *Instr) error {
	ft, ok := in.Args[0].Type.(*types.Func)
	if !ok {
		if v.open(in.Args[0].Type) {
			return nil
		}
		return fmt.Errorf("indirect call through non-function %s", in.Args[0].Type)
	}
	if !v.m.Normalized {
		// Arity adaptation between the static function type and the
		// eventual target is dynamic before normalization (§3.2); only
		// the result register is statically constrained.
		return v.checkCallDsts(in, []types.Type{ft.Ret})
	}
	params := types.Flatten(v.tc, ft.Param, nil)
	if len(in.Args)-1 != len(params) {
		return fmt.Errorf("indirect call with %d args, function type %s wants %d", len(in.Args)-1, ft, len(params))
	}
	for i, p := range params {
		if !v.assignable(in.Args[i+1].Type, p) {
			return fmt.Errorf("arg %d has %s, function type wants %s", i, in.Args[i+1].Type, p)
		}
	}
	return v.checkCallDsts(in, types.Flatten(v.tc, ft.Ret, nil))
}

// ------------------------------------------------------- stage sweeps

// verifyShapes enforces the stage-conditional whole-module invariants:
// after monomorphization, no open type and no type-argument list may
// survive anywhere (§4.3); after normalization, no tuple type may
// survive in any register, parameter, result, field, or global (§4.2).
func (v *verifier) verifyShapes() error {
	if v.m.Monomorphic {
		if err := v.sweepTypes("monomorphic", func(t types.Type) error {
			if types.HasTypeParams(t) {
				return fmt.Errorf("open type %s in monomorphic module", t)
			}
			return nil
		}); err != nil {
			return err
		}
		for _, fn := range v.m.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if len(in.TypeArgs) > 0 {
						return fmt.Errorf("func %s: block b%d: %s: type arguments in monomorphic module", fn.Name, b.ID, in)
					}
				}
			}
		}
	}
	if v.m.Normalized {
		if err := v.sweepTypes("normalized", func(t types.Type) error {
			if _, ok := t.(*types.Tuple); ok {
				return fmt.Errorf("tuple type %s in normalized module", t)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepTypes applies check to every type mentioned by the module:
// function signatures, register types, instruction type payloads,
// class fields, and globals.
func (v *verifier) sweepTypes(stage string, check func(types.Type) error) error {
	seenReg := map[*Reg]bool{}
	reg := func(where string, r *Reg) error {
		if r == nil || seenReg[r] {
			return nil
		}
		seenReg[r] = true
		if err := check(r.Type); err != nil {
			return fmt.Errorf("%s: register %s: %w", where, r, err)
		}
		return nil
	}
	for _, fn := range v.m.Funcs {
		for _, p := range fn.Params {
			if err := reg("func "+fn.Name, p); err != nil {
				return err
			}
		}
		for i, r := range fn.Results {
			if err := check(r); err != nil {
				return fmt.Errorf("func %s: result %d: %w", fn.Name, i, err)
			}
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				where := fmt.Sprintf("func %s: block b%d", fn.Name, b.ID)
				for _, r := range in.Dst {
					if err := reg(where, r); err != nil {
						return err
					}
				}
				for _, r := range in.Args {
					if err := reg(where, r); err != nil {
						return err
					}
				}
				for _, t := range [...]types.Type{in.Type, in.Type2} {
					if t == nil {
						continue
					}
					// Cast/query targets and virtual-dispatch receiver
					// types feed runtime type tests and must be closed;
					// Type2 of closures records the pre-normalization
					// static function type and may mention tuples.
					if stage == "normalized" && (in.Op == OpMakeClosure || in.Op == OpMakeBound || in.Op == OpCallIndirect) {
						continue
					}
					if err := check(t); err != nil {
						return fmt.Errorf("%s: %s: %w", where, in, err)
					}
				}
			}
		}
	}
	for _, c := range v.m.Classes {
		for _, fd := range c.Fields {
			if err := check(fd.Type); err != nil {
				return fmt.Errorf("class %s: field %s: %w", c.Name, fd.Name, err)
			}
		}
	}
	for _, g := range v.m.Globals {
		if err := check(g.Type); err != nil {
			return fmt.Errorf("global %s: %w", g.Name, err)
		}
	}
	return nil
}
