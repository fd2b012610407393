// Package lower translates the checked AST into polymorphic IR.
//
// Everything that can be used as a first-class function in the paper —
// constructors (b7), unbound class methods (b3), the universal and
// primitive operators (b8-b15), and built-in component functions — is
// lowered to a synthesized wrapper function, so a closure value is
// always (function, optional receiver, type arguments).
package lower

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/src"
	"repro/internal/token"
	"repro/internal/typecheck"
	"repro/internal/types"
)

// Lowerer builds one IR module from a checked program.
type Lowerer struct {
	prog *typecheck.Program
	tc   *types.Cache
	mod  *ir.Module

	classOf  map[*typecheck.ClassSym]*ir.Class
	funcOf   map[*typecheck.FuncSym]*ir.Func
	ctorOf   map[*typecheck.ClassSym]*ir.Func
	allocOf  map[*typecheck.ClassSym]*ir.Func
	globalOf map[*typecheck.GlobalSym]*ir.Global
	// wrappers caches synthesized functions (operators, builtins,
	// unbound methods, the generic $eq/$cast/$query/$Array.new) by name.
	// They are appended to the module sorted by name after all bodies
	// finish, so the function order does not depend on which body first
	// demanded each wrapper.
	wrappers map[string]*ir.Func
}

// Lower converts prog into an IR module, lowering function bodies one
// at a time in declaration order. A panic while lowering a body
// propagates to the caller's stage boundary in core. A done ctx stops
// lowering before the next body and returns ctx.Err().
// The jobs parameter is ignored.
// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
func Lower(ctx context.Context, prog *typecheck.Program, jobs int) (*ir.Module, error) {
	lw := &Lowerer{
		prog:     prog,
		tc:       prog.Types,
		mod:      &ir.Module{Types: prog.Types},
		classOf:  map[*typecheck.ClassSym]*ir.Class{},
		funcOf:   map[*typecheck.FuncSym]*ir.Func{},
		ctorOf:   map[*typecheck.ClassSym]*ir.Func{},
		allocOf:  map[*typecheck.ClassSym]*ir.Func{},
		globalOf: map[*typecheck.GlobalSym]*ir.Global{},
		wrappers: map[string]*ir.Func{},
	}
	lw.declareAll()
	if err := lw.lowerAll(ctx); err != nil {
		return nil, err
	}
	return lw.mod, nil
}

func (lw *Lowerer) addFunc(f *ir.Func) *ir.Func {
	lw.mod.Funcs = append(lw.mod.Funcs, f)
	return f
}

// declareAll creates IR classes, function shells, and globals so bodies
// can reference them in any order.
func (lw *Lowerer) declareAll() {
	tc := lw.tc
	// Classes first (parents before children is handled by recursion).
	var declClass func(cls *typecheck.ClassSym) *ir.Class
	declClass = func(cls *typecheck.ClassSym) *ir.Class {
		if c, ok := lw.classOf[cls]; ok {
			return c
		}
		c := &ir.Class{
			Name:       cls.Name,
			Def:        cls.Def,
			TypeParams: cls.Def.TypeParams,
			Depth:      cls.Depth,
			Type:       tc.SelfType(cls.Def),
		}
		c.Args = c.Type.Args
		lw.classOf[cls] = c
		if cls.Parent != nil {
			c.Parent = declClass(cls.Parent)
		}
		for _, f := range cls.AllFields {
			c.Fields = append(c.Fields, ir.Field{Name: f.Name, Type: f.Type})
		}
		lw.mod.Classes = append(lw.mod.Classes, c)
		return c
	}
	for _, cls := range lw.prog.Classes {
		declClass(cls)
	}

	// Method and function shells.
	declFunc := func(m *typecheck.FuncSym, owner *typecheck.ClassSym) {
		var f *ir.Func
		name := m.Name
		if owner != nil {
			name = owner.Name + "." + m.Name
			self := tc.SelfType(owner.Def)
			f = &ir.Func{
				Name:           name,
				Kind:           ir.KindMethod,
				TypeParams:     append(append([]*types.TypeParamDef{}, owner.Def.TypeParams...), m.TypeParams...),
				NumClassParams: len(owner.Def.TypeParams),
				Class:          lw.classOf[owner],
				VtSlot:         m.VtSlot,
			}
			f.Params = append(f.Params, f.NewReg(self, "this"))
		} else {
			f = &ir.Func{Name: name, Kind: ir.KindTopLevel, TypeParams: m.TypeParams, VtSlot: -1}
		}
		for i, p := range m.Params {
			f.Params = append(f.Params, f.NewReg(m.ParamTypes[i], p.Name.Name))
		}
		f.Results = []types.Type{m.Ret}
		lw.funcOf[m] = f
		lw.addFunc(f)
	}
	for _, cls := range lw.prog.Classes {
		for _, m := range cls.Methods {
			declFunc(m, cls)
		}
		// Constructor function C.new(this, params...) -> void.
		ct := cls.Ctor
		self := tc.SelfType(cls.Def)
		cf := &ir.Func{
			Name:           cls.Name + ".new",
			Kind:           ir.KindCtor,
			TypeParams:     cls.Def.TypeParams,
			NumClassParams: len(cls.Def.TypeParams),
			Class:          lw.classOf[cls],
			VtSlot:         -1,
		}
		cf.Params = append(cf.Params, cf.NewReg(self, "this"))
		for i, p := range ct.Params {
			cf.Params = append(cf.Params, cf.NewReg(ct.ParamTypes[i], p.Name.Name))
		}
		cf.Results = []types.Type{tc.Void()}
		lw.ctorOf[cls] = cf
		lw.addFunc(cf)
		// Allocator C.$alloc(params...) -> C (b7).
		af := &ir.Func{
			Name:           cls.Name + ".$alloc",
			Kind:           ir.KindAlloc,
			TypeParams:     cls.Def.TypeParams,
			NumClassParams: len(cls.Def.TypeParams),
			Class:          lw.classOf[cls],
			VtSlot:         -1,
		}
		for i, p := range ct.Params {
			af.Params = append(af.Params, af.NewReg(ct.ParamTypes[i], p.Name.Name))
		}
		af.Results = []types.Type{self}
		lw.allocOf[cls] = af
		lw.addFunc(af)
	}
	for _, fn := range lw.prog.Funcs {
		declFunc(fn, nil)
	}
	// Vtables.
	for _, cls := range lw.prog.Classes {
		c := lw.classOf[cls]
		c.Vtable = make([]*ir.Func, len(cls.Vtable))
		for i, m := range cls.Vtable {
			c.Vtable[i] = lw.funcOf[m]
		}
	}
	// Globals.
	for _, g := range lw.prog.Globals {
		ig := &ir.Global{Name: g.Name, Type: g.Type, Index: len(lw.mod.Globals)}
		lw.globalOf[g] = ig
		lw.mod.Globals = append(lw.mod.Globals, ig)
	}
}

// lowerAll fills in every function body, checking ctx before each one.
// $init and the name-sorted wrapper functions are appended after the
// bodies.
func (lw *Lowerer) lowerAll(ctx context.Context) error {
	var tasks []func()
	for _, cls := range lw.prog.Classes {
		cls := cls
		for _, m := range cls.Methods {
			m := m
			tasks = append(tasks, func() { lw.lowerMethodBody(cls, m) })
		}
		tasks = append(tasks, func() { lw.lowerCtor(cls) })
		tasks = append(tasks, func() { lw.lowerAlloc(cls) })
	}
	for _, fn := range lw.prog.Funcs {
		fn := fn
		tasks = append(tasks, func() { lw.lowerMethodBody(nil, fn) })
	}
	for _, task := range tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		task()
	}
	lw.lowerInit()
	names := make([]string, 0, len(lw.wrappers))
	for name := range lw.wrappers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lw.addFunc(lw.wrappers[name])
	}
	if m := lw.prog.Main; m != nil {
		lw.mod.Main = lw.funcOf[m]
	}
	return nil
}

// builder carries per-function lowering state.
type builder struct {
	lw     *Lowerer
	f      *ir.Func
	cur    *ir.Block
	locals map[any]*ir.Reg
	this   *ir.Reg
	// cls is the enclosing source class, for implicit-this resolution.
	cls *typecheck.ClassSym
	// pos is the source position of the statement or expression being
	// lowered; emit stamps it onto instructions so the interpreter can
	// render source-level stack traces.
	pos src.Pos
	// loop targets
	breaks, continues []*ir.Block
}

func (lw *Lowerer) newBuilder(f *ir.Func, cls *typecheck.ClassSym) *builder {
	b := &builder{lw: lw, f: f, locals: map[any]*ir.Reg{}, cls: cls}
	b.cur = f.NewBlock()
	return b
}

func (b *builder) tc() *types.Cache { return b.lw.tc }

func (b *builder) emit(in *ir.Instr) *ir.Instr {
	if !in.Pos.IsValid() {
		in.Pos = b.pos
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

func (b *builder) emitOp(op ir.Op, dst *ir.Reg, args ...*ir.Reg) *ir.Instr {
	in := &ir.Instr{Op: op, Args: args}
	if dst != nil {
		in.Dst = []*ir.Reg{dst}
	}
	return b.emit(in)
}

// terminated reports whether the current block already ends.
func (b *builder) terminated() bool { return b.cur.Terminator() != nil }

func (b *builder) jump(target *ir.Block) {
	if !b.terminated() {
		b.emit(&ir.Instr{Op: ir.OpJump, Blocks: []*ir.Block{target}})
	}
}

func (b *builder) branch(cond *ir.Reg, yes, no *ir.Block) {
	b.emit(&ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{cond}, Blocks: []*ir.Block{yes, no}})
}

func (b *builder) constInt(v int64) *ir.Reg {
	r := b.f.NewReg(b.tc().Int(), "")
	b.emit(&ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{r}, IVal: v})
	return r
}

func (b *builder) constVoid() *ir.Reg {
	r := b.f.NewReg(b.tc().Void(), "")
	b.emit(&ir.Instr{Op: ir.OpConstVoid, Dst: []*ir.Reg{r}})
	return r
}

// lowerMethodBody lowers a method or top-level function.
func (lw *Lowerer) lowerMethodBody(cls *typecheck.ClassSym, m *typecheck.FuncSym) {
	f := lw.funcOf[m]
	if m.Abstract {
		b := lw.newBuilder(f, cls)
		b.emit(&ir.Instr{Op: ir.OpThrow, SVal: "!UnimplementedException"})
		return
	}
	b := lw.newBuilder(f, cls)
	off := 0
	if cls != nil {
		b.this = f.Params[0]
		off = 1
	}
	for i, p := range m.Params {
		b.locals[p] = f.Params[off+i]
	}
	b.lowerStmt(m.Decl.Body)
	if !b.terminated() {
		b.emit(&ir.Instr{Op: ir.OpRet})
	}
}

// lowerCtor builds C.new: super call, shorthand field params, field
// initializers, then the explicit body.
func (lw *Lowerer) lowerCtor(cls *typecheck.ClassSym) {
	f := lw.ctorOf[cls]
	ct := cls.Ctor
	b := lw.newBuilder(f, cls)
	b.this = f.Params[0]
	for i, p := range ct.Params {
		b.locals[p] = f.Params[1+i]
	}
	// Super constructor.
	if cls.Parent != nil {
		pctor := lw.ctorOf[cls.Parent]
		var args []*ir.Reg
		if ct.Decl != nil && ct.Decl.HasSuper {
			wants := make([]types.Type, len(cls.Parent.Ctor.ParamTypes))
			env := types.BindParams(cls.Parent.Def.TypeParams, cls.Def.ParentType.Args)
			for i, t := range cls.Parent.Ctor.ParamTypes {
				wants[i] = lw.tc.Subst(t, env)
			}
			args = b.adaptArgs(ct.Decl.SuperArgs, wants)
		}
		callArgs := append([]*ir.Reg{b.this}, args...)
		b.emit(&ir.Instr{Op: ir.OpCallStatic, Fn: pctor, Args: callArgs, TypeArgs: cls.Def.ParentType.Args})
	}
	// Field initializers (own fields only; parents handled their own).
	for _, fld := range cls.Fields {
		if fld.Init == nil {
			continue
		}
		v := b.lowerExpr(fld.Init)
		b.emit(&ir.Instr{Op: ir.OpFieldStore, Args: []*ir.Reg{b.this, v}, FieldSlot: fld.Slot})
	}
	// Shorthand parameter assignment (a4, f1-f5).
	for i, fp := range ct.FieldParams {
		if fp == nil {
			continue
		}
		b.emit(&ir.Instr{Op: ir.OpFieldStore, Args: []*ir.Reg{b.this, f.Params[1+i]}, FieldSlot: fp.Slot})
	}
	if ct.Decl != nil && ct.Decl.Body != nil {
		b.lowerStmt(ct.Decl.Body)
	}
	if !b.terminated() {
		b.emit(&ir.Instr{Op: ir.OpRet})
	}
}

// lowerAlloc builds C.$alloc: new object + constructor call.
func (lw *Lowerer) lowerAlloc(cls *typecheck.ClassSym) {
	f := lw.allocOf[cls]
	b := lw.newBuilder(f, cls)
	self := lw.tc.SelfType(cls.Def)
	obj := f.NewReg(self, "obj")
	b.emit(&ir.Instr{Op: ir.OpNewObject, Dst: []*ir.Reg{obj}, Type: self})
	args := append([]*ir.Reg{obj}, f.Params...)
	b.emit(&ir.Instr{Op: ir.OpCallStatic, Fn: lw.ctorOf[cls], Args: args, TypeArgs: self.Args})
	b.emit(&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{obj}})
}

// lowerInit builds the $init function running global initializers, and
// records it on the module.
func (lw *Lowerer) lowerInit() {
	f := &ir.Func{Name: "$init", Kind: ir.KindInit, VtSlot: -1, Results: []types.Type{lw.tc.Void()}}
	b := lw.newBuilder(f, nil)
	for _, g := range lw.prog.Globals {
		if g.Decl.Init == nil {
			continue
		}
		v := b.lowerExpr(g.Decl.Init)
		b.emit(&ir.Instr{Op: ir.OpGlobalStore, Global: lw.globalOf[g], Args: []*ir.Reg{v}})
	}
	b.emit(&ir.Instr{Op: ir.OpRet})
	lw.mod.Init = f
	lw.addFunc(f)
}

// ---------------------------------------------------------------- stmts

func (b *builder) lowerStmt(s ast.Stmt) {
	if b.terminated() {
		return // unreachable code is dropped
	}
	b.pos = s.Pos()
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			b.lowerStmt(st)
		}
	case *ast.EmptyStmt:
	case *ast.LocalDecl:
		r := b.f.NewReg(s.TypeOf, s.Name.Name)
		b.locals[s] = r
		if s.Init != nil {
			v := b.lowerExpr(s.Init)
			b.emitOp(ir.OpMove, r, v)
		} else {
			b.emitDefault(r, s.TypeOf)
		}
	case *ast.ExprStmt:
		b.lowerExpr(s.E)
	case *ast.IfStmt:
		then := b.f.NewBlock()
		var els *ir.Block
		merge := b.f.NewBlock()
		if s.Else != nil {
			els = b.f.NewBlock()
		} else {
			els = merge
		}
		b.lowerCondBranch(s.Cond, then, els)
		b.cur = then
		b.lowerStmt(s.Then)
		b.jump(merge)
		if s.Else != nil {
			b.cur = els
			b.lowerStmt(s.Else)
			b.jump(merge)
		}
		b.cur = merge
	case *ast.WhileStmt:
		head := b.f.NewBlock()
		body := b.f.NewBlock()
		exit := b.f.NewBlock()
		b.jump(head)
		b.cur = head
		b.lowerCondBranch(s.Cond, body, exit)
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, head)
		b.cur = body
		b.lowerStmt(s.Body)
		b.jump(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit
	case *ast.ForStmt:
		if s.Var.Name != "" {
			r := b.f.NewReg(s.VarType, s.Var.Name)
			b.locals[s] = r
			v := b.lowerExpr(s.Init)
			b.emitOp(ir.OpMove, r, v)
		}
		head := b.f.NewBlock()
		body := b.f.NewBlock()
		post := b.f.NewBlock()
		exit := b.f.NewBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.lowerCondBranch(s.Cond, body, exit)
		} else {
			b.jump(body)
		}
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, post)
		b.cur = body
		b.lowerStmt(s.Body)
		b.jump(post)
		b.cur = post
		if s.Post != nil {
			b.lowerExpr(s.Post)
		}
		b.jump(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit
	case *ast.ReturnStmt:
		if s.Value == nil {
			b.emit(&ir.Instr{Op: ir.OpRet})
			return
		}
		v := b.lowerExpr(s.Value)
		if v.Type == b.tc().Void() {
			b.emit(&ir.Instr{Op: ir.OpRet})
			return
		}
		b.emit(&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{v}})
	case *ast.BreakStmt:
		b.jump(b.breaks[len(b.breaks)-1])
	case *ast.ContinueStmt:
		b.jump(b.continues[len(b.continues)-1])
	default:
		panic(fmt.Sprintf("lower: unhandled statement %T", s))
	}
}

// emitDefault writes the default value of type t into r.
func (b *builder) emitDefault(r *ir.Reg, t types.Type) {
	switch t := t.(type) {
	case *types.Prim:
		switch t.Kind {
		case types.KindInt:
			b.emit(&ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{r}})
		case types.KindByte:
			b.emit(&ir.Instr{Op: ir.OpConstByte, Dst: []*ir.Reg{r}})
		case types.KindBool:
			b.emit(&ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{r}})
		default:
			b.emit(&ir.Instr{Op: ir.OpConstVoid, Dst: []*ir.Reg{r}})
		}
	case *types.Enum:
		b.emit(&ir.Instr{Op: ir.OpConstEnum, Dst: []*ir.Reg{r}, Type: t})
	case *types.Tuple:
		elems := make([]*ir.Reg, len(t.Elems))
		for i, et := range t.Elems {
			er := b.f.NewReg(et, "")
			b.emitDefault(er, et)
			elems[i] = er
		}
		b.emit(&ir.Instr{Op: ir.OpMakeTuple, Dst: []*ir.Reg{r}, Args: elems, Type: t})
	default:
		// Classes, arrays, functions, and open type parameters default
		// to null (type parameters are defaulted per-instantiation after
		// monomorphization; the interpreter substitutes at runtime).
		b.emit(&ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{r}, Type: t})
	}
}

// lowerCondBranch lowers a condition with short-circuiting directly into
// branches.
func (b *builder) lowerCondBranch(e ast.Expr, yes, no *ir.Block) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AndAnd:
			mid := b.f.NewBlock()
			b.lowerCondBranch(e.L, mid, no)
			b.cur = mid
			b.lowerCondBranch(e.R, yes, no)
			return
		case token.OrOr:
			mid := b.f.NewBlock()
			b.lowerCondBranch(e.L, yes, mid)
			b.cur = mid
			b.lowerCondBranch(e.R, yes, no)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.Not {
			b.lowerCondBranch(e.E, no, yes)
			return
		}
	}
	c := b.lowerExpr(e)
	b.branch(c, yes, no)
}
