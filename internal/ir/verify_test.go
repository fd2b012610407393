package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/types"
)

// newFunc builds an empty function with one result type.
func newFunc(name string, ret types.Type) *ir.Func {
	return &ir.Func{Name: name, Results: []types.Type{ret}, VtSlot: -1}
}

func emit(b *ir.Block, in *ir.Instr) *ir.Instr {
	b.Instrs = append(b.Instrs, in)
	return in
}

// wantVerifyError asserts that Verify rejects the module with a
// message mentioning each fragment.
func wantVerifyError(t *testing.T, m *ir.Module, fragments ...string) {
	t.Helper()
	err := m.Verify()
	if err == nil {
		t.Fatalf("Verify accepted a corrupt module")
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("Verify error %q does not mention %q", err, frag)
		}
	}
}

func TestVerifyAcceptsMinimalModule(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Int())
	b := f.NewBlock()
	v := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 7})
	emit(b, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify rejected a well-formed module: %v", err)
	}
}

// TestVerifyRejectsSeededTypeMismatch seeds the deliberate corruption
// the issue asks for: an int constant moved into a bool register.
func TestVerifyRejectsSeededTypeMismatch(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	i := f.NewReg(tc.Int(), "")
	c := f.NewReg(tc.Bool(), "")
	emit(b, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{i}, IVal: 1})
	emit(b, &ir.Instr{Op: ir.OpMove, Dst: []*ir.Reg{c}, Args: []*ir.Reg{i}})
	emit(b, &ir.Instr{Op: ir.OpRet})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "move int into register of bool")
}

func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Int())
	b := f.NewBlock()
	v := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "used before definition")
}

// TestVerifyRejectsPartialDefinition defines a register on only one
// branch of a diamond; the all-paths dataflow must flag its use at the
// join.
func TestVerifyRejectsPartialDefinition(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Int())
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	cond := f.NewReg(tc.Bool(), "")
	v := f.NewReg(tc.Int(), "")
	emit(b0, &ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{cond}, IVal: 1})
	emit(b0, &ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{cond}, Blocks: []*ir.Block{b1, b2}})
	emit(b1, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 3})
	emit(b1, &ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{b3}})
	emit(b2, &ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{b3}})
	emit(b3, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "used before definition")
}

// TestVerifyAcceptsLoopAndDeadBlock exercises the two shapes that must
// NOT be flagged: a back edge to a loop header, and an unreachable
// block using registers it never saw defined (lowering leaves such
// dead merge blocks before optimization).
func TestVerifyAcceptsLoopAndDeadBlock(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Int())
	v := f.NewReg(tc.Int(), "")
	cond := f.NewReg(tc.Bool(), "")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	dead := f.NewBlock()
	emit(b0, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 0})
	emit(b0, &ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{b1}})
	emit(b1, &ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{cond}, IVal: 1})
	emit(b1, &ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{cond}, Blocks: []*ir.Block{b1, b2}})
	emit(b2, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	emit(dead, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify rejected loop/dead-block shapes: %v", err)
	}
}

func TestVerifyRejectsCallArityMismatch(t *testing.T) {
	tc := types.NewCache()
	callee := newFunc("g", tc.Int())
	callee.Params = []*ir.Reg{callee.NewReg(tc.Int(), "x")}
	cb := callee.NewBlock()
	emit(cb, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{callee.Params[0]}})

	caller := newFunc("f", tc.Void())
	b := caller.NewBlock()
	r := caller.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpCallStatic, Fn: callee, Dst: []*ir.Reg{r}})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{caller, callee}}
	wantVerifyError(t, m, "0 args, want 1")
}

func TestVerifyRejectsCallArgTypeMismatch(t *testing.T) {
	tc := types.NewCache()
	callee := newFunc("g", tc.Int())
	callee.Params = []*ir.Reg{callee.NewReg(tc.Int(), "x")}
	cb := callee.NewBlock()
	emit(cb, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{callee.Params[0]}})

	caller := newFunc("f", tc.Void())
	b := caller.NewBlock()
	s := caller.NewReg(tc.Bool(), "")
	r := caller.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{s}, IVal: 1})
	emit(b, &ir.Instr{Op: ir.OpCallStatic, Fn: callee, Dst: []*ir.Reg{r}, Args: []*ir.Reg{s}})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{caller, callee}}
	wantVerifyError(t, m, "arg 0 has bool")
}

func TestVerifyRejectsForeignCallee(t *testing.T) {
	tc := types.NewCache()
	outside := newFunc("ghost", tc.Void())
	ob := outside.NewBlock()
	emit(ob, &ir.Instr{Op: ir.OpRet})

	caller := newFunc("f", tc.Void())
	b := caller.NewBlock()
	emit(b, &ir.Instr{Op: ir.OpCallStatic, Fn: outside})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{caller}}
	wantVerifyError(t, m, "outside the module")
}

func TestVerifyRejectsForeignRegister(t *testing.T) {
	tc := types.NewCache()
	other := newFunc("g", tc.Void())
	stray := other.NewReg(tc.Int(), "")

	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	mine := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{mine}, IVal: 1})
	emit(b, &ir.Instr{Op: ir.OpMove, Dst: []*ir.Reg{f.NewReg(tc.Int(), "")}, Args: []*ir.Reg{stray}})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}}
	wantVerifyError(t, m, "share id")
}

// TestVerifyRejectsRegisterOutOfRange: a register whose ID is not below
// its function's NumRegs (built by hand, not by NewReg) breaks the
// density that Reg.ID-indexed tables rely on.
func TestVerifyRejectsRegisterOutOfRange(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Int())
	b := f.NewBlock()
	stray := &ir.Reg{ID: f.NumRegs(), Type: tc.Int()}
	emit(b, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{stray}, IVal: 1})
	emit(b, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{stray}})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "out of range")
}

// TestVerifyRejectsBlockOutOfRange: a block whose ID is not below its
// function's NumBlocks breaks the density that Block.ID-indexed tables
// rely on.
func TestVerifyRejectsBlockOutOfRange(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	emit(b, &ir.Instr{Op: ir.OpRet})
	b.ID = f.NumBlocks()
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "block b1 out of range [0,1)")
}

// TestVerifyRejectsSharedBlockID: a block spliced in from another
// function carries that function's ID, which aliases one of ours.
func TestVerifyRejectsSharedBlockID(t *testing.T) {
	tc := types.NewCache()
	other := newFunc("g", tc.Void())
	stray := other.NewBlock()
	emit(stray, &ir.Instr{Op: ir.OpRet})

	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	emit(b, &ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{stray}})
	f.Blocks = append(f.Blocks, stray)
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "two blocks share id b0")
}

// TestVerifyAcceptsDroppedBlocks: dropping blocks leaves holes below
// NumBlocks, which is legal; only range and uniqueness are required.
func TestVerifyAcceptsDroppedBlocks(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Void())
	b0, _, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	emit(b0, &ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{b2}})
	emit(b2, &ir.Instr{Op: ir.OpRet})
	f.Blocks = []*ir.Block{b0, b2}
	if err := (&ir.Module{Types: tc, Funcs: []*ir.Func{f}}).Verify(); err != nil {
		t.Fatalf("Verify rejected a function with a dropped block: %v", err)
	}
}

func TestVerifyRejectsBranchOnNonBool(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Void())
	b0, b1 := f.NewBlock(), f.NewBlock()
	v := f.NewReg(tc.Int(), "")
	emit(b0, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 1})
	emit(b0, &ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{v}, Blocks: []*ir.Block{b1, b1}})
	emit(b1, &ir.Instr{Op: ir.OpRet})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "must be bool")
}

func TestVerifyRejectsOpenTypeInMonoModule(t *testing.T) {
	tc := types.NewCache()
	tp := tc.NewTypeParamDef("T", 0, nil)
	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	v := f.NewReg(tc.ParamRef(tp), "")
	emit(b, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{v}, Type: tc.ParamRef(tp)})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}, Monomorphic: true}
	wantVerifyError(t, m, "open type")
}

func TestVerifyRejectsTypeArgsInMonoModule(t *testing.T) {
	tc := types.NewCache()
	callee := newFunc("g", tc.Void())
	cb := callee.NewBlock()
	emit(cb, &ir.Instr{Op: ir.OpRet})

	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	emit(b, &ir.Instr{Op: ir.OpCallStatic, Fn: callee, TypeArgs: []types.Type{tc.Int()}})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f, callee}, Monomorphic: true}
	wantVerifyError(t, m, "type args")
}

func TestVerifyRejectsTupleParamInNormalizedModule(t *testing.T) {
	tc := types.NewCache()
	pair := tc.TupleOf([]types.Type{tc.Int(), tc.Int()})
	f := &ir.Func{Name: "f", VtSlot: -1}
	f.Params = []*ir.Reg{f.NewReg(pair, "p")}
	b := f.NewBlock()
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}, Monomorphic: true, Normalized: true}
	wantVerifyError(t, m, "tuple type")
}

func TestVerifyRejectsStaleGlobal(t *testing.T) {
	tc := types.NewCache()
	stale := &ir.Global{Name: "gone", Type: tc.Int()}
	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	v := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpGlobalLoad, Dst: []*ir.Reg{v}, Global: stale})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}}
	wantVerifyError(t, m, "not in the module")
}

func TestVerifyRejectsRetTypeMismatch(t *testing.T) {
	tc := types.NewCache()
	f := newFunc("f", tc.Bool())
	b := f.NewBlock()
	v := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 1})
	emit(b, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	wantVerifyError(t, &ir.Module{Types: tc, Funcs: []*ir.Func{f}}, "ret of int, want bool")
}

func TestVerifyRejectsFieldSlotOutOfRange(t *testing.T) {
	tc := types.NewCache()
	def := tc.NewClassDef("C", nil, nil)
	ct := tc.ClassOf(def, nil)
	cls := &ir.Class{Name: "C", Def: def, Type: ct, Fields: []ir.Field{{Name: "x", Type: tc.Int()}}}

	f := newFunc("f", tc.Void())
	b := f.NewBlock()
	o := f.NewReg(ct, "")
	v := f.NewReg(tc.Int(), "")
	emit(b, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{o}, Type: ct})
	emit(b, &ir.Instr{Op: ir.OpFieldLoad, Dst: []*ir.Reg{v}, Args: []*ir.Reg{o}, FieldSlot: 5})
	emit(b, &ir.Instr{Op: ir.OpRet})
	m := &ir.Module{Types: tc, Funcs: []*ir.Func{f}, Classes: []*ir.Class{cls}}
	wantVerifyError(t, m, "slot 5 out of range")
}

// TestVerifyRejectsSharedOperandLists checks operand-list ownership:
// mono, norm and opt rewrite lists in place, which is safe only while
// no list shares storage with another list or with the function's
// Params. Each case shares one way; the last owns every list.
func TestVerifyRejectsSharedOperandLists(t *testing.T) {
	tc := types.NewCache()
	build := func(share string) *ir.Module {
		f := newFunc("f", tc.Int())
		f.Params = []*ir.Reg{f.NewReg(tc.Int(), "a"), f.NewReg(tc.Int(), "b")}
		b := f.NewBlock()
		x, y := f.NewReg(tc.Int(), ""), f.NewReg(tc.Int(), "")
		addArgs := []*ir.Reg{f.Params[0], f.Params[1]}
		subArgs := []*ir.Reg{x, f.Params[1]}
		xDst, yDst := []*ir.Reg{x}, []*ir.Reg{y}
		switch share {
		case "params":
			addArgs = f.Params
		case "instrs":
			yDst = xDst
			subArgs = []*ir.Reg{y, f.Params[1]}
		case "tail":
			// Disjoint in length, but appending to the first list
			// would overwrite the second.
			both := []*ir.Reg{x, f.Params[1], f.Params[0], f.Params[1]}
			subArgs, addArgs = both[:2], both[2:]
		}
		emit(b, &ir.Instr{Op: ir.OpAdd, Dst: xDst, Args: addArgs, Type: tc.Int()})
		emit(b, &ir.Instr{Op: ir.OpSub, Dst: yDst, Args: subArgs, Type: tc.Int()})
		emit(b, &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{y}})
		return &ir.Module{Types: tc, Funcs: []*ir.Func{f}}
	}
	wantVerifyError(t, build("params"), "args shares operand storage with params")
	wantVerifyError(t, build("instrs"), "dst shares operand storage with", "add")
	wantVerifyError(t, build("tail"), "args shares operand storage with", "sub")
	if err := build("").Verify(); err != nil {
		t.Fatalf("Verify rejected owned lists: %v", err)
	}
}

// TestVerifyRejectsArityDisagreementInNormalizedModule builds one
// module per way a virtual or indirect call could reach a target of
// another arity: an override, a closure and a bound method, each taking
// two values where one is passed. Normalized, Verify rejects each and
// names the function; the same module unnormalized passes, because
// there the engines adapt arity at run time (§4.1).
func TestVerifyRejectsArityDisagreementInNormalizedModule(t *testing.T) {
	tc := types.NewCache()
	intToInt := tc.FuncOf(tc.Int(), tc.Int())
	class := func(name string, parent *ir.Class) *ir.Class {
		def := tc.NewClassDef(name, nil, nil)
		return &ir.Class{Name: name, Def: def, Type: tc.ClassOf(def, nil), Parent: parent}
	}
	// method returns its first int parameter; recv is nil for a plain
	// function.
	method := func(name string, recv *ir.Class, ints int) *ir.Func {
		f := newFunc(name, tc.Int())
		if recv != nil {
			f.Params = []*ir.Reg{f.NewReg(recv.Type, "this")}
			f.Class, f.VtSlot = recv, 0
			recv.Vtable = []*ir.Func{f}
		}
		for k := 0; k < ints; k++ {
			f.Params = append(f.Params, f.NewReg(tc.Int(), ""))
		}
		emit(f.NewBlock(), &ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{f.Params[len(f.Params)-ints]}})
		return f
	}
	// closureIn returns a function that stores the closure made by op
	// into a register of type int -> int.
	closureIn := func(op ir.Op, fn *ir.Func, recv *ir.Class) *ir.Func {
		f := newFunc("f", tc.Void())
		b := f.NewBlock()
		in := &ir.Instr{Op: op, Dst: []*ir.Reg{f.NewReg(intToInt, "")}, Fn: fn}
		if recv != nil {
			o := f.NewReg(recv.Type, "")
			emit(b, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{o}, Type: recv.Type})
			in.Args = []*ir.Reg{o}
		}
		emit(b, in)
		emit(b, &ir.Instr{Op: ir.OpRet})
		return f
	}
	for _, c := range []struct {
		name  string
		build func() *ir.Module
		want  []string
	}{
		{"override", func() *ir.Module {
			a := class("A", nil)
			b := class("B", a)
			am, bm := method("A.m", a, 1), method("B.m", b, 2)
			return &ir.Module{Types: tc, Funcs: []*ir.Func{am, bm}, Classes: []*ir.Class{a, b}}
		}, []string{"override B.m takes 3 params", "(A.m) takes 2"}},
		{"closure", func() *ir.Module {
			g := method("g", nil, 2)
			return &ir.Module{Types: tc, Funcs: []*ir.Func{g, closureIn(ir.OpMakeClosure, g, nil)}}
		}, []string{"func f:", "closure over g takes 2 values", "passes 1"}},
		{"bound", func() *ir.Module {
			a := class("A", nil)
			am := method("A.m", a, 2)
			return &ir.Module{Types: tc, Funcs: []*ir.Func{am, closureIn(ir.OpMakeBound, nil, a)}, Classes: []*ir.Class{a}}
		}, []string{"func f:", "closure over A.m takes 2 values", "passes 1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.build()
			m.Monomorphic = true
			if err := m.Verify(); err != nil {
				t.Fatalf("unnormalized module rejected: %v", err)
			}
			m.Normalized = true
			wantVerifyError(t, m, c.want...)
		})
	}
}
