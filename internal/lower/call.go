package lower

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/typecheck"
	"repro/internal/types"
)

// adaptArgs lowers source arguments and adapts their shape to the
// callee's declared parameter list (§2.3/§4.1): n args to n params is
// direct; one tuple argument to n params is unpacked; n arguments to a
// single tuple parameter are packed.
func (b *builder) adaptArgs(args []ast.Expr, wants []types.Type) []*ir.Reg {
	tc := b.tc()
	n, m := len(args), len(wants)
	switch {
	case n == m:
		out := make([]*ir.Reg, n)
		for i, a := range args {
			out[i] = b.lowerExpr(a)
		}
		return out
	case m == 0 && n == 1:
		b.lowerExpr(args[0]) // evaluate for effect (q8: f(t) of void t)
		return nil
	case m == 1:
		if n == 0 {
			return []*ir.Reg{b.constVoid()}
		}
		elems := make([]*ir.Reg, n)
		etypes := make([]types.Type, n)
		for i, a := range args {
			elems[i] = b.lowerExpr(a)
			etypes[i] = elems[i].Type
		}
		r := b.f.NewReg(tc.TupleOf(etypes), "")
		b.emit(&ir.Instr{Op: ir.OpMakeTuple, Dst: []*ir.Reg{r}, Args: elems, Type: r.Type})
		return []*ir.Reg{r}
	case n == 1:
		v := b.lowerExpr(args[0])
		tt, ok := v.Type.(*types.Tuple)
		if !ok || len(tt.Elems) != m {
			panic(fmt.Sprintf("lower: cannot adapt argument of type %s to %d parameters", v.Type, m))
		}
		out := make([]*ir.Reg, m)
		for i := range out {
			out[i] = b.f.NewReg(tt.Elems[i], "")
			b.emit(&ir.Instr{Op: ir.OpTupleGet, Dst: []*ir.Reg{out[i]}, Args: []*ir.Reg{v}, FieldSlot: i, Type: v.Type})
		}
		return out
	}
	panic(fmt.Sprintf("lower: argument shape mismatch: %d args, %d params", n, m))
}

// methodArgsOf extracts the method's own type arguments from a
// type-qualified member node. After inference the node records the
// class arguments followed by the method arguments; after explicit
// instantiation it records only the method arguments.
func methodArgsOf(m *typecheck.FuncSym, e *ast.MemberExpr) []types.Type {
	nclass := len(m.Owner.Def.TypeParams)
	margs := e.TypeArgsOf
	if nclass > 0 && len(margs) == nclass+len(m.TypeParams) {
		return margs[nclass:]
	}
	return margs
}

// methodEnv builds the substitution from a method's type parameters
// (owner class's and its own) to the arguments at a call through a
// receiver of static type recv with explicit/inferred method args.
func (b *builder) methodEnv(m *typecheck.FuncSym, recv *types.Class, margs []types.Type) map[*types.TypeParamDef]types.Type {
	tc := b.tc()
	env := map[*types.TypeParamDef]types.Type{}
	w := recv
	for w != nil && w.Def != m.Owner.Def {
		w = tc.ParentOf(w)
	}
	if w != nil {
		for i, p := range m.Owner.Def.TypeParams {
			env[p] = w.Args[i]
		}
	}
	for i, p := range m.TypeParams {
		if i < len(margs) {
			env[p] = margs[i]
		}
	}
	return env
}

// substAll substitutes env into each type.
func (b *builder) substAll(ts []types.Type, env map[*types.TypeParamDef]types.Type) []types.Type {
	out := make([]types.Type, len(ts))
	for i, t := range ts {
		out[i] = b.tc().Subst(t, env)
	}
	return out
}

// callResult allocates a destination register unless the return type is
// void, and returns (dsts, resultReg).
func (b *builder) callResult(ret types.Type) ([]*ir.Reg, *ir.Reg) {
	if ret == b.tc().Void() {
		return nil, nil
	}
	r := b.f.NewReg(ret, "")
	return []*ir.Reg{r}, r
}

// finishCall materializes a void result when needed so lowerExpr always
// returns a register.
func (b *builder) finishCall(r *ir.Reg) *ir.Reg {
	if r == nil {
		return b.constVoid()
	}
	return r
}

// lowerCall lowers fn(args) using the checker's classification of the
// callee: virtual calls for methods, static calls for top-level
// functions and constructors, inline operations for operators, and
// indirect calls through closure values otherwise.
func (b *builder) lowerCall(e *ast.CallExpr) *ir.Reg {
	tc := b.tc()
	switch fn := e.Fn.(type) {
	case *ast.MemberExpr:
		switch fn.Kind {
		case ast.MBoundMethod:
			m := fn.Binding.(*typecheck.FuncSym)
			recv := b.lowerExpr(fn.Recv)
			rc, ok := recv.Type.(*types.Class)
			if !ok {
				break
			}
			env := b.methodEnv(m, rc, fn.TypeArgsOf)
			wants := b.substAll(m.ParamTypes, env)
			args := b.adaptArgs(e.Args, wants)
			dsts, r := b.callResult(e.Type())
			b.emit(&ir.Instr{
				Op: ir.OpCallVirtual, Dst: dsts,
				Args:      append([]*ir.Reg{recv}, args...),
				FieldSlot: m.VtSlot, Type: recv.Type, TypeArgs: fn.TypeArgsOf,
			})
			return b.finishCall(r)
		case ast.MClassMethod:
			m := fn.Binding.(*typecheck.FuncSym)
			rc := fn.RecvType.(*types.Class)
			margs := methodArgsOf(m, fn)
			env := b.methodEnv(m, rc, margs)
			wants := append([]types.Type{fn.RecvType}, b.substAll(m.ParamTypes, env)...)
			args := b.adaptArgs(e.Args, wants)
			dsts, r := b.callResult(e.Type())
			b.emit(&ir.Instr{
				Op: ir.OpCallVirtual, Dst: dsts, Args: args,
				FieldSlot: m.VtSlot, Type: fn.RecvType, TypeArgs: margs,
			})
			return b.finishCall(r)
		case ast.MNew:
			switch bind := fn.Binding.(type) {
			case *typecheck.CtorSym:
				cls := bind.Owner
				rc := fn.RecvType.(*types.Class)
				env := types.BindParams(cls.Def.TypeParams, rc.Args)
				wants := b.substAll(bind.ParamTypes, env)
				args := b.adaptArgs(e.Args, wants)
				dsts, r := b.callResult(e.Type())
				b.emit(&ir.Instr{Op: ir.OpCallStatic, Dst: dsts, Fn: b.lw.allocOf[cls], Args: args, TypeArgs: rc.Args})
				return b.finishCall(r)
			case *types.Array:
				args := b.adaptArgs(e.Args, []types.Type{tc.Int()})
				r := b.f.NewReg(bind, "")
				b.emit(&ir.Instr{Op: ir.OpArrayNew, Dst: []*ir.Reg{r}, Args: args, Type: bind})
				return r
			}
		case ast.MOperator:
			return b.lowerOperatorCall(e, fn)
		case ast.MComponentMember:
			bf := fn.Binding.(*typecheck.BuiltinFunc)
			var wants []types.Type
			if bf.Param != tc.Void() {
				wants = []types.Type{bf.Param}
			}
			args := b.adaptArgs(e.Args, wants)
			dsts, r := b.callResult(bf.Ret)
			b.emit(&ir.Instr{Op: ir.OpCallBuiltin, Dst: dsts, SVal: bf.Component + "." + bf.Name, Args: args})
			return b.finishCall(r)
		case ast.MTopFunc:
			m := fn.Binding.(*typecheck.FuncSym)
			env := types.BindParams(m.TypeParams, fn.TypeArgsOf)
			wants := b.substAll(m.ParamTypes, env)
			args := b.adaptArgs(e.Args, wants)
			dsts, r := b.callResult(e.Type())
			b.emit(&ir.Instr{Op: ir.OpCallStatic, Dst: dsts, Fn: b.lw.funcOf[m], Args: args, TypeArgs: fn.TypeArgsOf})
			return b.finishCall(r)
		}
	case *ast.VarRef:
		if m, ok := fn.Binding.(*typecheck.FuncSym); ok {
			if m.Owner == nil {
				env := types.BindParams(m.TypeParams, fn.TypeArgsOf)
				wants := b.substAll(m.ParamTypes, env)
				args := b.adaptArgs(e.Args, wants)
				dsts, r := b.callResult(e.Type())
				b.emit(&ir.Instr{Op: ir.OpCallStatic, Dst: dsts, Fn: b.lw.funcOf[m], Args: args, TypeArgs: fn.TypeArgsOf})
				return b.finishCall(r)
			}
			// Implicit-this method call m(args).
			rc := b.tc().SelfType(b.cls.Def)
			env := b.methodEnv(m, rc, fn.TypeArgsOf)
			wants := b.substAll(m.ParamTypes, env)
			args := b.adaptArgs(e.Args, wants)
			dsts, r := b.callResult(e.Type())
			b.emit(&ir.Instr{
				Op: ir.OpCallVirtual, Dst: dsts,
				Args:      append([]*ir.Reg{b.this}, args...),
				FieldSlot: m.VtSlot, Type: rc, TypeArgs: fn.TypeArgsOf,
			})
			return b.finishCall(r)
		}
	}
	// General case: evaluate the callee to a closure and call it
	// indirectly. Arguments are passed in their source arity; shape
	// adaptation happens dynamically before normalization (§4.1) and
	// statically afterwards.
	cl := b.lowerExpr(e.Fn)
	args := make([]*ir.Reg, 0, len(e.Args)+1)
	args = append(args, cl)
	for _, a := range e.Args {
		args = append(args, b.lowerExpr(a))
	}
	dsts, r := b.callResult(e.Type())
	b.emit(&ir.Instr{Op: ir.OpCallIndirect, Dst: dsts, Args: args})
	return b.finishCall(r)
}

// lowerOperatorCall inlines T.==(a, b), T.!(x), T.?(x) and the
// primitive operators when they are called directly.
func (b *builder) lowerOperatorCall(e *ast.CallExpr, fn *ast.MemberExpr) *ir.Reg {
	tc := b.tc()
	sym := fn.Binding.(*typecheck.OperatorSym)
	switch sym.Op {
	case "==", "!=":
		args := b.adaptArgs(e.Args, []types.Type{sym.Subject, sym.Subject})
		r := b.f.NewReg(tc.Bool(), "")
		op := ir.OpEq
		if sym.Op == "!=" {
			op = ir.OpNe
		}
		b.emit(&ir.Instr{Op: op, Dst: []*ir.Reg{r}, Args: args, Type: sym.Subject})
		return r
	case "!":
		args := b.adaptArgs(e.Args, []types.Type{sym.Input})
		r := b.f.NewReg(sym.Subject, "")
		b.emit(&ir.Instr{Op: ir.OpTypeCast, Dst: []*ir.Reg{r}, Args: args, Type: sym.Subject, Type2: sym.Input})
		return r
	case "?":
		args := b.adaptArgs(e.Args, []types.Type{sym.Input})
		r := b.f.NewReg(tc.Bool(), "")
		b.emit(&ir.Instr{Op: ir.OpTypeQuery, Dst: []*ir.Reg{r}, Args: args, Type: sym.Subject, Type2: sym.Input})
		return r
	}
	// Primitive operators.
	op, ok := binOpFor[opTokenFor(sym.Op)]
	if !ok {
		panic(fmt.Sprintf("lower: unknown operator %q", sym.Op))
	}
	args := b.adaptArgs(e.Args, []types.Type{sym.Subject, sym.Subject})
	r := b.f.NewReg(e.Type(), "")
	b.emit(&ir.Instr{Op: op, Dst: []*ir.Reg{r}, Args: args, Type: sym.Subject})
	return r
}

func opTokenFor(op string) token.Kind {
	for k, v := range map[string]token.Kind{
		"+": token.Add, "-": token.Sub, "*": token.Mul, "/": token.Div,
		"%": token.Mod, "<": token.Lt, ">": token.Gt, "<=": token.Le,
		">=": token.Ge, "<<": token.Shl, ">>": token.Shr, "&": token.And,
		"|": token.Or, "^": token.Xor,
	} {
		if k == op {
			return v
		}
	}
	return token.ILLEGAL
}

// ------------------------------------------------------- wrapper funcs

// wrapper caches synthesized functions by name. The first body to need
// a wrapper synthesizes it; the module-level append happens after all
// bodies finish (sorted by name, in lowerAll).
func (lw *Lowerer) wrapper(name string, make func() *ir.Func) *ir.Func {
	if f, ok := lw.wrappers[name]; ok {
		return f
	}
	f := make()
	lw.wrappers[name] = f
	return f
}

// operatorWrapper returns the wrapper function and type arguments for
// an operator used as a first-class value (b8-b15).
func (lw *Lowerer) operatorWrapper(sym *typecheck.OperatorSym) (*ir.Func, []types.Type) {
	tc := lw.tc
	switch sym.Op {
	case "==":
		return lw.genericEq(true), []types.Type{sym.Subject}
	case "!=":
		return lw.genericEq(false), []types.Type{sym.Subject}
	case "!":
		return lw.genericCast(true), []types.Type{sym.Input, sym.Subject}
	case "?":
		return lw.genericCast(false), []types.Type{sym.Input, sym.Subject}
	}
	// Concrete primitive operator wrapper, e.g. $int.+ (b10-b11).
	name := "$" + sym.Subject.String() + "." + sym.Op
	subject := sym.Subject
	return lw.wrapper(name, func() *ir.Func {
		f := &ir.Func{Name: name, Kind: ir.KindWrapper, VtSlot: -1}
		a := f.NewReg(subject, "a")
		c := f.NewReg(subject, "b")
		f.Params = []*ir.Reg{a, c}
		op := binOpFor[opTokenFor(sym.Op)]
		ret := subject
		switch op {
		case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			ret = tc.Bool()
		}
		f.Results = []types.Type{ret}
		r := f.NewReg(ret, "")
		blk := f.NewBlock()
		blk.Instrs = append(blk.Instrs,
			&ir.Instr{Op: op, Dst: []*ir.Reg{r}, Args: []*ir.Reg{a, c}, Type: subject},
			&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{r}},
		)
		return f
	}), nil
}

// genericEq returns $eq<T>(a: T, b: T) -> bool (or $ne).
func (lw *Lowerer) genericEq(eq bool) *ir.Func {
	name := "$ne"
	if eq {
		name = "$eq"
	}
	tc := lw.tc
	return lw.wrapper(name, func() *ir.Func {
		f := &ir.Func{Name: name, Kind: ir.KindWrapper, VtSlot: -1}
		tp := tc.NewTypeParamDef("T", 0, f)
		f.TypeParams = []*types.TypeParamDef{tp}
		t := tc.ParamRef(tp)
		a := f.NewReg(t, "a")
		c := f.NewReg(t, "b")
		f.Params = []*ir.Reg{a, c}
		f.Results = []types.Type{tc.Bool()}
		r := f.NewReg(tc.Bool(), "")
		op := ir.OpNe
		if eq {
			op = ir.OpEq
		}
		blk := f.NewBlock()
		blk.Instrs = append(blk.Instrs,
			&ir.Instr{Op: op, Dst: []*ir.Reg{r}, Args: []*ir.Reg{a, c}, Type: t},
			&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{r}},
		)
		return f
	})
}

// genericCast returns $cast<F, T>(x: F) -> T or $query<F, T>(x: F) -> bool.
func (lw *Lowerer) genericCast(cast bool) *ir.Func {
	name := "$query"
	if cast {
		name = "$cast"
	}
	tc := lw.tc
	return lw.wrapper(name, func() *ir.Func {
		f := &ir.Func{Name: name, Kind: ir.KindWrapper, VtSlot: -1}
		fp := tc.NewTypeParamDef("F", 0, f)
		tp := tc.NewTypeParamDef("T", 1, f)
		f.TypeParams = []*types.TypeParamDef{fp, tp}
		ft := tc.ParamRef(fp)
		tt := tc.ParamRef(tp)
		x := f.NewReg(ft, "x")
		f.Params = []*ir.Reg{x}
		blk := f.NewBlock()
		if cast {
			f.Results = []types.Type{tt}
			r := f.NewReg(tt, "")
			blk.Instrs = append(blk.Instrs,
				&ir.Instr{Op: ir.OpTypeCast, Dst: []*ir.Reg{r}, Args: []*ir.Reg{x}, Type: tt, Type2: ft},
				&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{r}},
			)
		} else {
			f.Results = []types.Type{tc.Bool()}
			r := f.NewReg(tc.Bool(), "")
			blk.Instrs = append(blk.Instrs,
				&ir.Instr{Op: ir.OpTypeQuery, Dst: []*ir.Reg{r}, Args: []*ir.Reg{x}, Type: tt, Type2: ft},
				&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{r}},
			)
		}
		return f
	})
}

// arrayNewWrapper returns $Array.new<T>(n: int) -> Array<T>.
func (lw *Lowerer) arrayNewWrapper() *ir.Func {
	tc := lw.tc
	return lw.wrapper("$Array.new", func() *ir.Func {
		f := &ir.Func{Name: "$Array.new", Kind: ir.KindWrapper, VtSlot: -1}
		tp := tc.NewTypeParamDef("T", 0, f)
		f.TypeParams = []*types.TypeParamDef{tp}
		at := tc.ArrayOf(tc.ParamRef(tp))
		n := f.NewReg(tc.Int(), "n")
		f.Params = []*ir.Reg{n}
		f.Results = []types.Type{at}
		r := f.NewReg(at, "")
		blk := f.NewBlock()
		blk.Instrs = append(blk.Instrs,
			&ir.Instr{Op: ir.OpArrayNew, Dst: []*ir.Reg{r}, Args: []*ir.Reg{n}, Type: at},
			&ir.Instr{Op: ir.OpRet, Args: []*ir.Reg{r}},
		)
		return f
	})
}

// builtinWrapper returns a function wrapping a component builtin so it
// can be used as a value (e.g. passing System.puti to apply).
func (lw *Lowerer) builtinWrapper(bf *typecheck.BuiltinFunc) *ir.Func {
	tc := lw.tc
	name := "$" + bf.Component + "." + bf.Name
	return lw.wrapper(name, func() *ir.Func {
		f := &ir.Func{Name: name, Kind: ir.KindWrapper, VtSlot: -1}
		var args []*ir.Reg
		if bf.Param != tc.Void() {
			p := f.NewReg(bf.Param, "a")
			f.Params = []*ir.Reg{p}
			args = []*ir.Reg{p}
		}
		f.Results = []types.Type{bf.Ret}
		blk := f.NewBlock()
		call := &ir.Instr{Op: ir.OpCallBuiltin, SVal: bf.Component + "." + bf.Name, Args: args}
		ret := &ir.Instr{Op: ir.OpRet}
		if bf.Ret != tc.Void() {
			r := f.NewReg(bf.Ret, "")
			call.Dst = []*ir.Reg{r}
			ret.Args = []*ir.Reg{r}
		}
		blk.Instrs = append(blk.Instrs, call, ret)
		return f
	})
}

// unboundWrapper returns the wrapper implementing A.m as a first-class
// function (b3): the receiver becomes the first parameter and dispatch
// stays virtual.
func (lw *Lowerer) unboundWrapper(m *typecheck.FuncSym) *ir.Func {
	tc := lw.tc
	name := m.Owner.Name + "." + m.Name + ".$unbound"
	return lw.wrapper(name, func() *ir.Func {
		f := &ir.Func{
			Name:           name,
			Kind:           ir.KindWrapper,
			TypeParams:     append(append([]*types.TypeParamDef{}, m.Owner.Def.TypeParams...), m.TypeParams...),
			NumClassParams: len(m.Owner.Def.TypeParams),
			VtSlot:         -1,
		}
		self := tc.SelfType(m.Owner.Def)
		recv := f.NewReg(self, "recv")
		f.Params = []*ir.Reg{recv}
		for i, pt := range m.ParamTypes {
			f.Params = append(f.Params, f.NewReg(pt, m.Params[i].Name.Name))
		}
		f.Results = []types.Type{m.Ret}
		margs := make([]types.Type, len(m.TypeParams))
		for i, tp := range m.TypeParams {
			margs[i] = tc.ParamRef(tp)
		}
		blk := f.NewBlock()
		call := &ir.Instr{
			Op:        ir.OpCallVirtual,
			Args:      append([]*ir.Reg(nil), f.Params...),
			FieldSlot: m.VtSlot,
			Type:      self,
			TypeArgs:  margs,
		}
		ret := &ir.Instr{Op: ir.OpRet}
		if m.Ret != tc.Void() {
			r := f.NewReg(m.Ret, "")
			call.Dst = []*ir.Reg{r}
			ret.Args = []*ir.Reg{r}
		}
		blk.Instrs = append(blk.Instrs, call, ret)
		return f
	})
}
