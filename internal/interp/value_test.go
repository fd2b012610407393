package interp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/types"
)

func TestValueEqPrimitives(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(1), true},
		{IntVal(1), IntVal(2), false},
		{ByteVal('a'), ByteVal('a'), true},
		{BoolVal(true), BoolVal(true), true},
		{VoidVal{}, VoidVal{}, true},
		{NullVal{}, NullVal{}, true},
		{IntVal(1), BoolVal(true), false},
		{IntVal(0), NullVal{}, false},
	}
	for _, c := range cases {
		if got := ValueEq(c.a, c.b); got != c.want {
			t.Errorf("ValueEq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqTuplesRecursive(t *testing.T) {
	a := TupleVal{IntVal(1), TupleVal{BoolVal(true), ByteVal('x')}}
	b := TupleVal{IntVal(1), TupleVal{BoolVal(true), ByteVal('x')}}
	c := TupleVal{IntVal(1), TupleVal{BoolVal(false), ByteVal('x')}}
	if !ValueEq(a, b) {
		t.Error("structurally equal tuples must be ==, 'no matter when or where' (§2.3)")
	}
	if ValueEq(a, c) {
		t.Error("different tuples must not be ==")
	}
	if ValueEq(a, TupleVal{IntVal(1)}) {
		t.Error("different arity tuples must not be ==")
	}
}

func TestValueEqReferences(t *testing.T) {
	cls := &ir.Class{Name: "A"}
	o1 := &ObjVal{Class: cls, Fields: []Value{IntVal(1)}}
	o2 := &ObjVal{Class: cls, Fields: []Value{IntVal(1)}}
	if !ValueEq(o1, o1) || ValueEq(o1, o2) {
		t.Error("object equality is identity, not structure")
	}
	a1 := &ArrVal{Elems: []Value{IntVal(1)}}
	a2 := &ArrVal{Elems: []Value{IntVal(1)}}
	if !ValueEq(a1, a1) || ValueEq(a1, a2) {
		t.Error("array equality is identity")
	}
}

func TestValueEqClosures(t *testing.T) {
	f := &ir.Func{Name: "f"}
	g := &ir.Func{Name: "g"}
	recv := &ObjVal{Class: &ir.Class{Name: "A"}}
	tc := types.NewCache()
	c1 := &FuncVal{Fn: f, Recv: recv, HasRecv: true}
	c2 := &FuncVal{Fn: f, Recv: recv, HasRecv: true}
	c3 := &FuncVal{Fn: g, Recv: recv, HasRecv: true}
	c4 := &FuncVal{Fn: f, Recv: &ObjVal{Class: &ir.Class{Name: "A"}}, HasRecv: true}
	if !ValueEq(c1, c2) {
		t.Error("same method bound to same receiver must be ==")
	}
	if ValueEq(c1, c3) || ValueEq(c1, c4) {
		t.Error("different function or receiver must not be ==")
	}
	// Different type arguments distinguish closures (no erasure).
	c5 := &FuncVal{Fn: f, TypeArgs: []types.Type{tc.Int()}}
	c6 := &FuncVal{Fn: f, TypeArgs: []types.Type{tc.Bool()}}
	c7 := &FuncVal{Fn: f, TypeArgs: []types.Type{tc.Int()}}
	if ValueEq(c5, c6) {
		t.Error("closures with different type arguments must not be ==")
	}
	if !ValueEq(c5, c7) {
		t.Error("closures with equal type arguments must be ==")
	}
}

// TestPropValueEqReflexiveSymmetric: ValueEq is reflexive and symmetric
// on randomly built values.
func TestPropValueEqReflexiveSymmetric(t *testing.T) {
	cls := &ir.Class{Name: "A"}
	var build func(r *rand.Rand, depth int) Value
	build = func(r *rand.Rand, depth int) Value {
		if depth <= 0 {
			switch r.Intn(4) {
			case 0:
				return IntVal(r.Intn(10))
			case 1:
				return BoolVal(r.Intn(2) == 0)
			case 2:
				return ByteVal(byte(r.Intn(5)))
			default:
				return NullVal{}
			}
		}
		switch r.Intn(3) {
		case 0:
			n := r.Intn(3)
			tv := make(TupleVal, n)
			for i := range tv {
				tv[i] = build(r, depth-1)
			}
			return tv
		case 1:
			return &ObjVal{Class: cls}
		default:
			return build(r, 0)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := build(r, 3)
		b := build(r, 3)
		return ValueEq(a, a) && ValueEq(b, b) && ValueEq(a, b) == ValueEq(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDynTypeOf(t *testing.T) {
	tc := types.NewCache()
	def := tc.NewClassDef("Box", []*types.TypeParamDef{tc.NewTypeParamDef("T", 0, nil)}, nil)
	cls := &ir.Class{Name: "Box", Def: def, TypeParams: def.TypeParams, Type: tc.SelfType(def)}
	boxInt := tc.ClassOf(def, []types.Type{tc.Int()})
	obj := &ObjVal{Class: cls, Type: boxInt}
	if got := DynTypeOf(tc, obj); got != boxInt {
		t.Errorf("DynTypeOf(obj) = %v", got)
	}
	tv := TupleVal{IntVal(1), BoolVal(true)}
	if got := DynTypeOf(tc, tv); got != tc.TupleOf([]types.Type{tc.Int(), tc.Bool()}) {
		t.Errorf("DynTypeOf(tuple) = %v", got)
	}
	if DynTypeOf(tc, IntVal(0)) != tc.Int() || DynTypeOf(tc, VoidVal{}) != tc.Void() {
		t.Error("prim dynamic types")
	}
	av := &ArrVal{Elem: tc.Byte()}
	if DynTypeOf(tc, av) != tc.ArrayOf(tc.Byte()) {
		t.Error("array dynamic type")
	}
}

func TestDefaultValue(t *testing.T) {
	tc := types.NewCache()
	if DefaultValue(tc, tc.Int()) != IntVal(0) {
		t.Error("int default")
	}
	if DefaultValue(tc, tc.Bool()) != BoolVal(false) {
		t.Error("bool default")
	}
	if _, ok := DefaultValue(tc, tc.Void()).(VoidVal); !ok {
		t.Error("void default")
	}
	pair := tc.TupleOf([]types.Type{tc.Int(), tc.Bool()})
	tv, ok := DefaultValue(tc, pair).(TupleVal)
	if !ok || len(tv) != 2 || tv[0] != IntVal(0) || tv[1] != BoolVal(false) {
		t.Error("tuple default is elementwise defaults")
	}
	def := tc.NewClassDef("A", nil, nil)
	if _, ok := DefaultValue(tc, tc.ClassOf(def, nil)).(NullVal); !ok {
		t.Error("class default is null")
	}
}

func TestIntArithSemantics(t *testing.T) {
	// 32-bit wrapping.
	if v, _ := IntArith(ir.OpAdd, 0x7fffffff, 1); v != -0x80000000 {
		t.Errorf("overflow wraps: got %d", v)
	}
	if v, _ := IntArith(ir.OpMul, 0x10000, 0x10000); v != 0 {
		t.Errorf("mul wraps: got %d", v)
	}
	// Virgil shifts: out-of-range counts produce 0.
	if v, _ := IntArith(ir.OpShl, 1, 32); v != 0 {
		t.Errorf("shl 32 = %d, want 0", v)
	}
	if v, _ := IntArith(ir.OpShr, -1, 1); v != 0x7fffffff {
		t.Errorf("shr is logical: got %d", v)
	}
	if _, err := IntArith(ir.OpDiv, 1, 0); err == nil {
		t.Error("div by zero must trap")
	}
	if _, err := IntArith(ir.OpMod, 1, 0); err == nil {
		t.Error("mod by zero must trap")
	}
	if v, _ := IntArith(ir.OpDiv, -7, 2); v != -3 {
		t.Errorf("division truncates toward zero: got %d", v)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(-3), "-3"},
		{BoolVal(true), "true"},
		{VoidVal{}, "()"},
		{NullVal{}, "null"},
		{TupleVal{IntVal(1), IntVal(2)}, "(1, 2)"},
	}
	for _, c := range cases {
		if got := ValueString(c.v); got != c.want {
			t.Errorf("ValueString(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
