package interp

import (
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/types"
)

// This file holds the semantic kernel shared by the two execution
// engines: the switch interpreter in this package and the register
// bytecode engine in internal/engine. Both must agree bit-for-bit on
// casts, queries, builtins, and closure typing, so the logic lives here
// once, as package-level functions over explicit inputs.

// EvalQuery implements the universal ? operator on dynamic values. An
// object is decided by walking its IR class chain and comparing each
// class's interned Type with to: an object's only supertypes are its
// class's ancestors, exactly, so the walk takes no lock. Only a generic
// IR class, which exists in reference mode alone, sends the rest of the
// question to tc.
func EvalQuery(tc *types.Cache, v Value, to types.Type) bool {
	switch v := v.(type) {
	case NullVal:
		return false
	case *ObjVal:
		for w := v.Class; w != nil; w = w.Parent {
			if len(w.TypeParams) > 0 {
				return tc.IsSubtype(v.Type, to)
			}
			if w.Type == to {
				return true
			}
		}
		return false
	}
	return tc.IsSubtype(DynTypeOf(tc, v), to)
}

// EvalCast implements the universal ! operator: numeric conversions,
// checked downcasts, recursive tuple casts (§2.3), and null
// propagation into reference types.
func EvalCast(tc *types.Cache, v Value, to types.Type) (Value, error) {
	if _, isNull := v.(NullVal); isNull {
		if types.IsRefType(to) {
			return v, nil
		}
		return nil, &VirgilError{Name: "!TypeCheckException", Msg: "null cast to " + to.String()}
	}
	if p, ok := to.(*types.Prim); ok {
		switch p.Kind {
		case types.KindInt:
			switch av := v.(type) {
			case IntVal:
				return av, nil
			case ByteVal:
				return IntVal(int32(av)), nil
			}
		case types.KindByte:
			switch av := v.(type) {
			case ByteVal:
				return av, nil
			case IntVal:
				if av < 0 || av > 255 {
					return nil, &VirgilError{Name: "!TypeCheckException", Msg: fmt.Sprintf("%d does not fit in byte", int32(av))}
				}
				return ByteVal(byte(av)), nil
			}
		case types.KindBool:
			if av, ok := v.(BoolVal); ok {
				return av, nil
			}
		case types.KindVoid:
			if av, ok := v.(VoidVal); ok {
				return av, nil
			}
		}
		return nil, &VirgilError{Name: "!TypeCheckException", Msg: "cannot cast to " + to.String()}
	}
	if tt, ok := to.(*types.Tuple); ok {
		tv, isTuple := v.(TupleVal)
		if !isTuple || len(tv) != len(tt.Elems) {
			return nil, &VirgilError{Name: "!TypeCheckException", Msg: "cannot cast to " + to.String()}
		}
		out := make(TupleVal, len(tv))
		for k := range tv {
			cv, err := EvalCast(tc, tv[k], tt.Elems[k])
			if err != nil {
				return nil, err
			}
			out[k] = cv
		}
		return out, nil
	}
	if EvalQuery(tc, v, to) {
		return v, nil
	}
	return nil, &VirgilError{Name: "!TypeCheckException", Msg: fmt.Sprintf("%s is not a %s", DynTypeOf(tc, v), to)}
}

// Adapt performs the paper's dynamic calling-convention check (§4.1):
// the callee may declare n scalar parameters or one tuple parameter for
// the same function type, so provided values are packed or unpacked to
// match. Both engines call it at virtual and indirect call sites only
// in modules that are not normalized; in a normalized one ir.Verify
// proves that the shapes agree, and neither engine calls it.
func Adapt(stats *Stats, provided []Value, params []*ir.Reg) ([]Value, error) {
	stats.AdaptChecks++
	n, m := len(provided), len(params)
	if n == m {
		return provided, nil
	}
	stats.AdaptPacks++
	switch {
	case m == 1:
		if n == 0 {
			return []Value{VoidVal{}}, nil
		}
		stats.TupleAllocs++
		return []Value{TupleVal(provided)}, nil
	case n == 1:
		if m == 0 {
			return nil, nil
		}
		tv, ok := provided[0].(TupleVal)
		if !ok || len(tv) != m {
			return nil, &VirgilError{Name: "!CallArityException", Msg: fmt.Sprintf("cannot adapt %d value(s) to %d parameter(s)", n, m)}
		}
		return tv, nil
	case n == 0 && m == 0:
		return nil, nil
	}
	return nil, &VirgilError{Name: "!CallArityException", Msg: fmt.Sprintf("cannot adapt %d value(s) to %d parameter(s)", n, m)}
}

// IntArith implements 32-bit wrapping arithmetic with Virgil shift
// semantics (out-of-range shift counts produce 0).
func IntArith(op ir.Op, a, b int32) (int32, error) {
	switch op {
	case ir.OpAdd:
		return a + b, nil
	case ir.OpSub:
		return a - b, nil
	case ir.OpMul:
		return a * b, nil
	case ir.OpDiv:
		if b == 0 {
			return 0, &VirgilError{Name: "!DivideByZeroException"}
		}
		return a / b, nil
	case ir.OpMod:
		if b == 0 {
			return 0, &VirgilError{Name: "!DivideByZeroException"}
		}
		return a % b, nil
	case ir.OpShl:
		if b < 0 || b > 31 {
			return 0, nil
		}
		return a << uint(b), nil
	case ir.OpShr:
		if b < 0 || b > 31 {
			return 0, nil
		}
		return int32(uint32(a) >> uint(b)), nil
	case ir.OpAnd:
		return a & b, nil
	case ir.OpOr:
		return a | b, nil
	case ir.OpXor:
		return a ^ b, nil
	}
	return 0, fmt.Errorf("interp: bad arithmetic op %s", op)
}

// CompareVals implements < <= > >= on int and byte values; any other
// operand kinds compare as (0,0).
func CompareVals(op ir.Op, a, b Value) bool {
	var x, y int64
	switch av := a.(type) {
	case IntVal:
		x, y = int64(av), int64(b.(IntVal))
	case ByteVal:
		x, y = int64(av), int64(b.(ByteVal))
	}
	switch op {
	case ir.OpLt:
		return x < y
	case ir.OpLe:
		return x <= y
	case ir.OpGt:
		return x > y
	case ir.OpGe:
		return x >= y
	}
	return false
}

// CallBuiltin executes a component builtin. steps is the executing
// engine's current step count — the virtual clock read by clock.ticks.
// A returned *VirgilError carries no trace; the caller stamps it.
func CallBuiltin(out io.Writer, name string, args []Value, steps int64) (Value, error) {
	switch name {
	case "System.puts":
		arr, ok := first(args).(*ArrVal)
		if !ok {
			return nil, &VirgilError{Name: "!NullCheckException"}
		}
		if out != nil {
			buf := make([]byte, len(arr.Elems))
			for k, e := range arr.Elems {
				if b, ok := e.(ByteVal); ok {
					buf[k] = byte(b)
				}
			}
			fmt.Fprintf(out, "%s", buf)
		}
		return VoidVal{}, nil
	case "System.puti":
		if out != nil {
			fmt.Fprintf(out, "%d", int32(first(args).(IntVal)))
		}
		return VoidVal{}, nil
	case "System.putc":
		if out != nil {
			fmt.Fprintf(out, "%c", byte(first(args).(ByteVal)))
		}
		return VoidVal{}, nil
	case "System.putb":
		if out != nil {
			fmt.Fprintf(out, "%v", bool(first(args).(BoolVal)))
		}
		return VoidVal{}, nil
	case "System.ln":
		if out != nil {
			fmt.Fprintln(out)
		}
		return VoidVal{}, nil
	case "System.error":
		msg := ""
		if arr, ok := first(args).(*ArrVal); ok {
			buf := make([]byte, len(arr.Elems))
			for k, e := range arr.Elems {
				if b, ok := e.(ByteVal); ok {
					buf[k] = byte(b)
				}
			}
			msg = string(buf)
		}
		return nil, &VirgilError{Name: "!SystemError", Msg: msg}
	case "clock.ticks":
		return IntVal(int32(steps)), nil
	}
	return nil, fmt.Errorf("interp: unknown builtin %q", name)
}

// ClassArgsFromRecv computes the type arguments of the class declaring
// fn, as seen from the dynamic receiver (pre-monomorphization virtual
// dispatch; §4.3).
func ClassArgsFromRecv(tc *types.Cache, fn *ir.Func, recv *ObjVal) []types.Type {
	if fn.NumClassParams == 0 {
		return nil
	}
	w := recv.Type
	for w != nil && w.Def != fn.Class.Def {
		w = tc.ParentOf(w)
	}
	if w == nil {
		return nil
	}
	return w.Args
}

// ClosureType computes the closed dynamic function type of a closure.
func ClosureType(tc *types.Cache, fn *ir.Func, recv *ObjVal, targs []types.Type) *types.Func {
	var env map[*types.TypeParamDef]types.Type
	if len(fn.TypeParams) > 0 {
		env = map[*types.TypeParamDef]types.Type{}
		all := targs
		if recv != nil && fn.NumClassParams > 0 {
			all = append(ClassArgsFromRecv(tc, fn, recv), targs...)
		}
		for k, p := range fn.TypeParams {
			if k < len(all) {
				env[p] = all[k]
			}
		}
	}
	start := 0
	if recv != nil {
		start = 1
	}
	elems := make([]types.Type, 0, len(fn.Params)-start)
	for _, p := range fn.Params[start:] {
		elems = append(elems, tc.Subst(p.Type, env))
	}
	var ret types.Type = tc.Void()
	if len(fn.Results) == 1 {
		ret = tc.Subst(fn.Results[0], env)
	} else if len(fn.Results) > 1 {
		rs := make([]types.Type, len(fn.Results))
		for k, r := range fn.Results {
			rs[k] = tc.Subst(r, env)
		}
		ret = tc.TupleOf(rs)
	}
	return tc.FuncOf(tc.TupleOf(elems), ret)
}
