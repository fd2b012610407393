// Package interp executes IR modules. One engine serves two roles:
//
//   - Reference mode runs the polymorphic IR directly, with boxed tuple
//     values, runtime type-argument environments ("invisible arguments",
//     §4.3), and dynamic arity-adaptation checks at virtual and indirect
//     call sites (§4.1) — the paper's interpreter.
//   - Compiled mode runs the monomorphized, normalized, optimized IR,
//     where none of those mechanisms trigger: the IR verifier proves
//     that every call passes exactly the values its target takes, so
//     arguments pass straight through. The relative cost of the two
//     modes is what experiments E1-E3 measure.
package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/types"
)

// Value is a runtime value.
type Value interface{ valueKind() string }

// IntVal is a 32-bit signed integer value.
type IntVal int32

func (IntVal) valueKind() string { return "int" }

// ByteVal is an unsigned 8-bit value.
type ByteVal byte

func (ByteVal) valueKind() string { return "byte" }

// BoolVal is a boolean value.
type BoolVal bool

func (BoolVal) valueKind() string { return "bool" }

// VoidVal is the single void value ().
type VoidVal struct{}

func (VoidVal) valueKind() string { return "void" }

// NullVal is the null reference.
type NullVal struct{}

func (NullVal) valueKind() string { return "null" }

// TupleVal is a boxed tuple (reference mode only; normalization
// eliminates every one of these, §4.2).
type TupleVal []Value

func (TupleVal) valueKind() string { return "tuple" }

// ObjVal is a class instance. Type is its exact, closed, interned class
// type, fixed at allocation. After monomorphization Class is the
// specialized class and Type equals Class.Type; in reference mode Class
// is the generic class and Type carries its instantiation.
type ObjVal struct {
	Class  *ir.Class
	Type   *types.Class
	Fields []Value
}

func (*ObjVal) valueKind() string { return "object" }

// ArrVal is an array. For Array<void>, Elems is nil and only Len is
// meaningful (§4.2: a length-only array). After normalization an
// Array<(A,B)> has been split into parallel arrays, so Elems always
// holds scalars in compiled mode.
type ArrVal struct {
	Elem  types.Type
	Elems []Value
	Len   int
}

func (*ArrVal) valueKind() string { return "array" }

// Length returns the array length.
func (a *ArrVal) Length() int {
	if a.Elems == nil {
		return a.Len
	}
	return len(a.Elems)
}

// EnumVal is a value of an enumerated type (§6.1).
type EnumVal struct {
	Def *types.EnumDef
	Tag int
}

func (EnumVal) valueKind() string { return "enum" }

// FuncVal is a closure: a function, an optional bound receiver, closed
// type arguments, and the closed dynamic function type.
type FuncVal struct {
	Fn       *ir.Func
	Recv     Value
	HasRecv  bool
	TypeArgs []types.Type
	Type     *types.Func
}

func (*FuncVal) valueKind() string { return "func" }

// String renders a value for test output and System printing.
func ValueString(v Value) string {
	switch v := v.(type) {
	case IntVal:
		return fmt.Sprintf("%d", int32(v))
	case ByteVal:
		return fmt.Sprintf("'%c'", byte(v))
	case BoolVal:
		return fmt.Sprintf("%v", bool(v))
	case VoidVal:
		return "()"
	case NullVal:
		return "null"
	case TupleVal:
		s := "("
		for i, e := range v {
			if i > 0 {
				s += ", "
			}
			s += ValueString(e)
		}
		return s + ")"
	case *ObjVal:
		return v.Class.Name
	case *ArrVal:
		return fmt.Sprintf("Array(len=%d)", v.Length())
	case *FuncVal:
		return "func " + v.Fn.Name
	case EnumVal:
		if v.Tag >= 0 && v.Tag < len(v.Def.Cases) {
			return v.Def.Name + "." + v.Def.Cases[v.Tag]
		}
		return v.Def.Name + ".?"
	}
	return "?"
}

// ValueEq implements the universal == operator: primitive value
// equality, recursive tuple equality (§2.3), reference identity for
// objects and arrays, and function+receiver+type-arguments identity for
// closures.
func ValueEq(a, b Value) bool {
	switch av := a.(type) {
	case IntVal:
		bv, ok := b.(IntVal)
		return ok && av == bv
	case ByteVal:
		bv, ok := b.(ByteVal)
		return ok && av == bv
	case BoolVal:
		bv, ok := b.(BoolVal)
		return ok && av == bv
	case VoidVal:
		_, ok := b.(VoidVal)
		return ok
	case NullVal:
		_, ok := b.(NullVal)
		return ok
	case TupleVal:
		bv, ok := b.(TupleVal)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !ValueEq(av[i], bv[i]) {
				return false
			}
		}
		return true
	case EnumVal:
		bv, ok := b.(EnumVal)
		return ok && av.Def == bv.Def && av.Tag == bv.Tag
	case *ObjVal:
		bv, ok := b.(*ObjVal)
		return ok && av == bv
	case *ArrVal:
		bv, ok := b.(*ArrVal)
		return ok && av == bv
	case *FuncVal:
		bv, ok := b.(*FuncVal)
		if !ok || av.Fn != bv.Fn || av.HasRecv != bv.HasRecv {
			return false
		}
		if av.HasRecv && !ValueEq(av.Recv, bv.Recv) {
			return false
		}
		if len(av.TypeArgs) != len(bv.TypeArgs) {
			return false
		}
		for i := range av.TypeArgs {
			if av.TypeArgs[i] != bv.TypeArgs[i] {
				return false
			}
		}
		return true
	}
	return false
}

// DynTypeOf computes the dynamic type of a value for reified casts and
// queries (§2.2, d13-d14). An object's type is the one it was allocated
// with; tuples and arrays still intern theirs through tc.
func DynTypeOf(tc *types.Cache, v Value) types.Type {
	switch v := v.(type) {
	case IntVal:
		return tc.Int()
	case ByteVal:
		return tc.Byte()
	case BoolVal:
		return tc.Bool()
	case VoidVal:
		return tc.Void()
	case NullVal:
		return tc.Null()
	case TupleVal:
		elems := make([]types.Type, len(v))
		for i, e := range v {
			elems[i] = DynTypeOf(tc, e)
		}
		return tc.TupleOf(elems)
	case *ObjVal:
		return v.Type
	case *ArrVal:
		return tc.ArrayOf(v.Elem)
	case *FuncVal:
		return v.Type
	case EnumVal:
		return tc.EnumOf(v.Def)
	}
	return tc.Void()
}

// DefaultValue builds the default value of a closed type.
func DefaultValue(tc *types.Cache, t types.Type) Value {
	switch t := t.(type) {
	case *types.Prim:
		switch t.Kind {
		case types.KindInt:
			return IntVal(0)
		case types.KindByte:
			return ByteVal(0)
		case types.KindBool:
			return BoolVal(false)
		case types.KindNull:
			return NullVal{}
		default:
			return VoidVal{}
		}
	case *types.Enum:
		return EnumVal{Def: t.Def} // the first case
	case *types.Tuple:
		vs := make(TupleVal, len(t.Elems))
		for i, e := range t.Elems {
			vs[i] = DefaultValue(tc, e)
		}
		return vs
	default:
		return NullVal{}
	}
}
