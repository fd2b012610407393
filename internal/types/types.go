// Package types implements the Virgil III type system of the paper:
// primitive, array, tuple, function, and class type constructors, with
// tuple covariance and function parameter-contravariance / return-
// covariance (§2.5), interning, substitution, subtyping, least upper
// bounds, and cast/query relations.
package types

import (
	"fmt"
	"strings"
	"sync"
)

// Type is the interface satisfied by all Virgil-core types. Types are
// interned by a Cache, so two structurally equal types obtained from the
// same Cache are pointer-equal.
type Type interface {
	String() string
	isType()
}

// PrimKind enumerates the built-in primitive types.
type PrimKind int

// The primitive kinds of Virgil-core. Null is the type of the `null`
// literal, assignable to every reference type.
const (
	KindVoid PrimKind = iota
	KindBool
	KindByte
	KindInt
	KindNull
)

// Prim is a primitive type. The five values are singletons.
type Prim struct{ Kind PrimKind }

func (p *Prim) isType() {}

func (p *Prim) String() string {
	switch p.Kind {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindByte:
		return "byte"
	case KindInt:
		return "int"
	case KindNull:
		return "null"
	}
	return "?prim"
}

// Tuple is a tuple type with two or more elements. Zero-element tuples
// are void and one-element tuples are the element itself; the Cache
// enforces those degenerate equivalences (§2.3).
type Tuple struct{ Elems []Type }

func (t *Tuple) isType() {}

func (t *Tuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Func is a function type Param -> Ret.
type Func struct {
	Param Type
	Ret   Type
}

func (f *Func) isType() {}

func (f *Func) String() string {
	p := f.Param.String()
	// Parenthesize a function parameter to preserve right-associativity.
	if _, ok := f.Param.(*Func); ok {
		p = "(" + p + ")"
	}
	return p + " -> " + f.Ret.String()
}

// Array is the invariant built-in Array<T> constructor.
type Array struct{ Elem Type }

func (a *Array) isType() {}

func (a *Array) String() string { return "Array<" + a.Elem.String() + ">" }

// TypeParamDef is the declaration of a type parameter (on a class or a
// method). Each declaration site owns distinct defs; they are compared
// by pointer identity.
type TypeParamDef struct {
	Name  string
	Index int
	// Owner is an opaque reference to the declaring entity (an AST or IR
	// node); the types package never inspects it.
	Owner any
	id    int // interning key, assigned by the Cache
}

// TypeParam is a use of a type parameter as a type.
type TypeParam struct{ Def *TypeParamDef }

func (t *TypeParam) isType() {}

func (t *TypeParam) String() string { return t.Def.Name }

// ClassDef describes a class declaration: its name, type parameters and
// (instantiated) parent. The Decl field points back to the front end's
// declaration node and is opaque here.
type ClassDef struct {
	Name       string
	TypeParams []*TypeParamDef
	// ParentType is the declared parent class type; it may mention the
	// class's own type parameters. Nil for a hierarchy root.
	ParentType *Class
	Decl       any
	id         int
}

// Class is an instantiation of a ClassDef with type arguments (possibly
// open, i.e. mentioning type parameters).
type Class struct {
	Def  *ClassDef
	Args []Type
}

func (c *Class) isType() {}

func (c *Class) String() string {
	if len(c.Args) == 0 {
		return c.Def.Name
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Def.Name + "<" + strings.Join(parts, ", ") + ">"
}

// EnumDef describes an enumerated type declaration (§6.1 lists enums as
// the highest-priority future feature; this implements a minimal
// design: a closed set of named cases, value semantics, tag and name
// accessors, and the four universal operators).
type EnumDef struct {
	Name  string
	Cases []string
	Decl  any
	id    int
}

// Enum is the type of an enum's values. One interned instance per def.
type Enum struct{ Def *EnumDef }

func (e *Enum) isType() {}

func (e *Enum) String() string { return e.Def.Name }

// Cache interns types so structural equality is pointer equality.
//
// All exported methods are safe for concurrent use. The compiler
// pipeline is sequential, but the engines intern types at run time
// (dynamic types of tuples and arrays, closure types, substitutions of
// open types, and reference-mode queries up a generic class chain;
// objects carry their own class type and do not intern), and one
// compiled Compilation — and so one cache — is run by many goroutines
// at once: serve executes a warm cached artifact for concurrent
// requests. Every method that reads or writes
// the interning tables therefore takes mu and delegates to an
// unexported, lock-free twin. The unexported twins may call each other
// but never an exported method — the lock is not reentrant.
type Cache struct {
	mu                              sync.Mutex
	void, boolT, byteT, intT, nullT *Prim
	tuples                          map[string]*Tuple
	enums                           map[*EnumDef]*Enum
	funcs                           map[[2]Type]*Func
	arrays                          map[Type]*Array
	classes                         map[string]*Class
	params                          map[*TypeParamDef]*TypeParam
	nextID                          int
}

// NewCache returns a fresh interning cache with the primitive singletons.
func NewCache() *Cache {
	return &Cache{
		void:    &Prim{Kind: KindVoid},
		boolT:   &Prim{Kind: KindBool},
		byteT:   &Prim{Kind: KindByte},
		intT:    &Prim{Kind: KindInt},
		nullT:   &Prim{Kind: KindNull},
		tuples:  map[string]*Tuple{},
		enums:   map[*EnumDef]*Enum{},
		funcs:   map[[2]Type]*Func{},
		arrays:  map[Type]*Array{},
		classes: map[string]*Class{},
		params:  map[*TypeParamDef]*TypeParam{},
	}
}

// Void returns the void type (the empty tuple).
func (c *Cache) Void() Type { return c.void }

// Bool returns the bool type.
func (c *Cache) Bool() Type { return c.boolT }

// Byte returns the byte type.
func (c *Cache) Byte() Type { return c.byteT }

// Int returns the int type.
func (c *Cache) Int() Type { return c.intT }

// Null returns the type of the null literal.
func (c *Cache) Null() Type { return c.nullT }

// String returns the string type, an alias for Array<byte>.
func (c *Cache) String() Type { return c.ArrayOf(c.byteT) }

// lock acquires the interning lock for one exported entry point. The
// unexported twins below assume it is held.
func (c *Cache) lock() func() {
	c.mu.Lock()
	return c.mu.Unlock
}

func (c *Cache) key(t Type) string {
	switch t := t.(type) {
	case *Prim:
		return t.String()
	case *Tuple:
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			parts[i] = c.key(e)
		}
		return "(" + strings.Join(parts, ",") + ")"
	case *Func:
		return "F[" + c.key(t.Param) + ">" + c.key(t.Ret) + "]"
	case *Array:
		return "A[" + c.key(t.Elem) + "]"
	case *TypeParam:
		return fmt.Sprintf("P%d", t.Def.id)
	case *Enum:
		return fmt.Sprintf("E%d", t.Def.id)
	case *Class:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = c.key(a)
		}
		return fmt.Sprintf("C%d<%s>", t.Def.id, strings.Join(parts, ","))
	}
	panic("types: unknown type in key")
}

// TupleOf interns a tuple type, applying the degenerate equivalences:
// zero elements is void, one element is the element itself.
func (c *Cache) TupleOf(elems []Type) Type {
	defer c.lock()()
	return c.tupleOf(elems)
}

func (c *Cache) tupleOf(elems []Type) Type {
	switch len(elems) {
	case 0:
		return c.void
	case 1:
		return elems[0]
	}
	cp := make([]Type, len(elems))
	copy(cp, elems)
	t := &Tuple{Elems: cp}
	k := c.key(t)
	if got, ok := c.tuples[k]; ok {
		return got
	}
	c.tuples[k] = t
	return t
}

// FuncOf interns the function type param -> ret.
func (c *Cache) FuncOf(param, ret Type) *Func {
	defer c.lock()()
	return c.funcOf(param, ret)
}

func (c *Cache) funcOf(param, ret Type) *Func {
	k := [2]Type{param, ret}
	if got, ok := c.funcs[k]; ok {
		return got
	}
	f := &Func{Param: param, Ret: ret}
	c.funcs[k] = f
	return f
}

// ArrayOf interns the array type Array<elem>.
func (c *Cache) ArrayOf(elem Type) *Array {
	defer c.lock()()
	return c.arrayOf(elem)
}

func (c *Cache) arrayOf(elem Type) *Array {
	if got, ok := c.arrays[elem]; ok {
		return got
	}
	a := &Array{Elem: elem}
	c.arrays[elem] = a
	return a
}

// NewEnumDef allocates a fresh enum definition.
func (c *Cache) NewEnumDef(name string, cases []string, decl any) *EnumDef {
	defer c.lock()()
	c.nextID++
	return &EnumDef{Name: name, Cases: cases, Decl: decl, id: c.nextID}
}

// EnumOf interns the type of an enum definition's values.
func (c *Cache) EnumOf(def *EnumDef) *Enum {
	defer c.lock()()
	if e, ok := c.enums[def]; ok {
		return e
	}
	e := &Enum{Def: def}
	c.enums[def] = e
	return e
}

// NewTypeParamDef allocates a fresh type parameter declaration.
func (c *Cache) NewTypeParamDef(name string, index int, owner any) *TypeParamDef {
	defer c.lock()()
	c.nextID++
	return &TypeParamDef{Name: name, Index: index, Owner: owner, id: c.nextID}
}

// ParamRef interns the type-use of a type parameter declaration.
func (c *Cache) ParamRef(def *TypeParamDef) *TypeParam {
	defer c.lock()()
	return c.paramRef(def)
}

func (c *Cache) paramRef(def *TypeParamDef) *TypeParam {
	if got, ok := c.params[def]; ok {
		return got
	}
	t := &TypeParam{Def: def}
	c.params[def] = t
	return t
}

// NewClassDef allocates a fresh class definition.
func (c *Cache) NewClassDef(name string, params []*TypeParamDef, decl any) *ClassDef {
	defer c.lock()()
	c.nextID++
	return &ClassDef{Name: name, TypeParams: params, Decl: decl, id: c.nextID}
}

// ClassOf interns the instantiation def<args>. len(args) must equal
// len(def.TypeParams).
func (c *Cache) ClassOf(def *ClassDef, args []Type) *Class {
	defer c.lock()()
	return c.classOf(def, args)
}

func (c *Cache) classOf(def *ClassDef, args []Type) *Class {
	if len(args) != len(def.TypeParams) {
		panic(fmt.Sprintf("types: class %s expects %d args, got %d", def.Name, len(def.TypeParams), len(args)))
	}
	cp := make([]Type, len(args))
	copy(cp, args)
	t := &Class{Def: def, Args: cp}
	k := c.key(t)
	if got, ok := c.classes[k]; ok {
		return got
	}
	c.classes[k] = t
	return t
}

// SelfType returns def instantiated with its own type parameters, i.e.
// the type of `this` inside the class body.
func (c *Cache) SelfType(def *ClassDef) *Class {
	defer c.lock()()
	args := make([]Type, len(def.TypeParams))
	for i, p := range def.TypeParams {
		args[i] = c.paramRef(p)
	}
	return c.classOf(def, args)
}

// Subst applies the type-parameter bindings in env to t, interning the
// result. Unbound parameters are left in place.
func (c *Cache) Subst(t Type, env map[*TypeParamDef]Type) Type {
	if len(env) == 0 {
		return t // closed substitution: no cache access, no lock needed
	}
	defer c.lock()()
	return c.subst(t, env)
}

func (c *Cache) subst(t Type, env map[*TypeParamDef]Type) Type {
	if len(env) == 0 {
		return t
	}
	switch t := t.(type) {
	case *Prim, *Enum:
		return t
	case *TypeParam:
		if r, ok := env[t.Def]; ok {
			return r
		}
		return t
	case *Tuple:
		elems := make([]Type, len(t.Elems))
		changed := false
		for i, e := range t.Elems {
			elems[i] = c.subst(e, env)
			changed = changed || elems[i] != e
		}
		if !changed {
			return t
		}
		return c.tupleOf(elems)
	case *Func:
		p := c.subst(t.Param, env)
		r := c.subst(t.Ret, env)
		if p == t.Param && r == t.Ret {
			return t
		}
		return c.funcOf(p, r)
	case *Array:
		e := c.subst(t.Elem, env)
		if e == t.Elem {
			return t
		}
		return c.arrayOf(e)
	case *Class:
		args := make([]Type, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = c.subst(a, env)
			changed = changed || args[i] != a
		}
		if !changed {
			return t
		}
		return c.classOf(t.Def, args)
	}
	panic("types: unknown type in Subst")
}

// ParentOf returns the instantiated parent class type of cl, or nil when
// cl's class is a hierarchy root. The parent's type arguments are
// substituted with cl's own arguments.
func (c *Cache) ParentOf(cl *Class) *Class {
	if cl.Def.ParentType == nil {
		return nil
	}
	defer c.lock()()
	return c.parentOf(cl)
}

func (c *Cache) parentOf(cl *Class) *Class {
	pt := cl.Def.ParentType
	if pt == nil {
		return nil
	}
	env := BindParams(cl.Def.TypeParams, cl.Args)
	return c.subst(pt, env).(*Class)
}

// BindParams zips type parameter defs with type arguments into a
// substitution environment.
func BindParams(params []*TypeParamDef, args []Type) map[*TypeParamDef]Type {
	env := make(map[*TypeParamDef]Type, len(params))
	for i, p := range params {
		env[p] = args[i]
	}
	return env
}

// IsRefType reports whether t admits the null value (classes, arrays and
// function values are references; primitives and tuples are not).
func IsRefType(t Type) bool {
	switch t.(type) {
	case *Class, *Array, *Func:
		return true
	}
	return false
}

// HasTypeParams reports whether t mentions any type parameter (is open).
func HasTypeParams(t Type) bool {
	switch t := t.(type) {
	case *Prim, *Enum:
		return false
	case *TypeParam:
		return true
	case *Tuple:
		for _, e := range t.Elems {
			if HasTypeParams(e) {
				return true
			}
		}
		return false
	case *Func:
		return HasTypeParams(t.Param) || HasTypeParams(t.Ret)
	case *Array:
		return HasTypeParams(t.Elem)
	case *Class:
		for _, a := range t.Args {
			if HasTypeParams(a) {
				return true
			}
		}
		return false
	}
	panic("types: unknown type in HasTypeParams")
}

// IsSubtype reports sub <: sup under the paper's rules (§2.5):
// tuples are covariant elementwise with equal arity; functions are
// contravariant in the parameter and covariant in the return; arrays and
// class type arguments are invariant; class subtyping follows the parent
// chain; null is a subtype of every reference type.
func (c *Cache) IsSubtype(sub, sup Type) bool {
	defer c.lock()()
	return c.isSubtype(sub, sup)
}

func (c *Cache) isSubtype(sub, sup Type) bool {
	if sub == sup {
		return true
	}
	if p, ok := sub.(*Prim); ok && p.Kind == KindNull {
		return IsRefType(sup) || isNull(sup)
	}
	switch sup := sup.(type) {
	case *Tuple:
		st, ok := sub.(*Tuple)
		if !ok || len(st.Elems) != len(sup.Elems) {
			return false
		}
		for i := range sup.Elems {
			if !c.isSubtype(st.Elems[i], sup.Elems[i]) {
				return false
			}
		}
		return true
	case *Func:
		sf, ok := sub.(*Func)
		if !ok {
			return false
		}
		return c.isSubtype(sup.Param, sf.Param) && c.isSubtype(sf.Ret, sup.Ret)
	case *Class:
		sc, ok := sub.(*Class)
		if !ok {
			return false
		}
		for w := sc; w != nil; w = c.parentOf(w) {
			if w == sup {
				return true
			}
		}
		return false
	}
	return false
}

func isNull(t Type) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == KindNull
}

// IsAssignable reports whether a value of type from may be assigned to a
// location of type to. This is subtyping plus implicit byte-to-int
// promotion disabled: Virgil has no implicit conversions, so it is
// exactly subtyping.
func (c *Cache) IsAssignable(from, to Type) bool { return c.IsSubtype(from, to) }

// Lub computes a least upper bound of a and b for ternary-expression
// typing: equal types, null vs reference, a common class ancestor, or
// structural lubs through tuples/functions. Returns nil when none exists.
func (c *Cache) Lub(a, b Type) Type {
	defer c.lock()()
	return c.lub(a, b)
}

func (c *Cache) lub(a, b Type) Type {
	if a == b {
		return a
	}
	if isNull(a) && IsRefType(b) {
		return b
	}
	if isNull(b) && IsRefType(a) {
		return a
	}
	switch at := a.(type) {
	case *Class:
		bt, ok := b.(*Class)
		if !ok {
			return nil
		}
		// Find the first ancestor of a that is a supertype of b.
		for w := at; w != nil; w = c.parentOf(w) {
			if c.isSubtype(bt, w) {
				return w
			}
		}
		return nil
	case *Tuple:
		bt, ok := b.(*Tuple)
		if !ok || len(at.Elems) != len(bt.Elems) {
			return nil
		}
		elems := make([]Type, len(at.Elems))
		for i := range at.Elems {
			e := c.lub(at.Elems[i], bt.Elems[i])
			if e == nil {
				return nil
			}
			elems[i] = e
		}
		return c.tupleOf(elems)
	case *Func:
		bt, ok := b.(*Func)
		if !ok {
			return nil
		}
		p := c.glb(at.Param, bt.Param)
		r := c.lub(at.Ret, bt.Ret)
		if p == nil || r == nil {
			return nil
		}
		return c.funcOf(p, r)
	}
	return nil
}

// Glb computes a greatest lower bound (dual of Lub), used for function
// parameter positions.
func (c *Cache) Glb(a, b Type) Type {
	defer c.lock()()
	return c.glb(a, b)
}

func (c *Cache) glb(a, b Type) Type {
	if a == b {
		return a
	}
	if isNull(a) || isNull(b) {
		if IsRefType(a) || IsRefType(b) {
			return c.nullT
		}
		return nil
	}
	switch at := a.(type) {
	case *Class:
		bt, ok := b.(*Class)
		if !ok {
			return nil
		}
		if c.isSubtype(at, bt) {
			return at
		}
		if c.isSubtype(bt, at) {
			return bt
		}
		return nil
	case *Tuple:
		bt, ok := b.(*Tuple)
		if !ok || len(at.Elems) != len(bt.Elems) {
			return nil
		}
		elems := make([]Type, len(at.Elems))
		for i := range at.Elems {
			e := c.glb(at.Elems[i], bt.Elems[i])
			if e == nil {
				return nil
			}
			elems[i] = e
		}
		return c.tupleOf(elems)
	case *Func:
		bt, ok := b.(*Func)
		if !ok {
			return nil
		}
		p := c.lub(at.Param, bt.Param)
		r := c.glb(at.Ret, bt.Ret)
		if p == nil || r == nil {
			return nil
		}
		return c.funcOf(p, r)
	}
	return nil
}

// CastRel classifies the outcome of a cast or query between two types.
type CastRel int

// Cast relations: True means the cast always succeeds (no check needed);
// Dynamic means a runtime check decides; False means it can never
// succeed and the front end rejects it where both types are closed and
// provably unrelated (§2.2).
const (
	CastTrue CastRel = iota
	CastDynamic
	CastFalse
)

// Castable classifies a cast/query from type `from` to type `to`. Casts
// between numeric primitives are conversions; class casts are dynamic
// checks along a shared hierarchy; tuple casts distribute elementwise;
// open types always yield CastDynamic since instantiation decides (§2.2).
func (c *Cache) Castable(from, to Type) CastRel {
	defer c.lock()()
	return c.castable(from, to)
}

func (c *Cache) castable(from, to Type) CastRel {
	if HasTypeParams(from) || HasTypeParams(to) {
		return CastDynamic
	}
	if from == to {
		return CastTrue
	}
	ff, fok := from.(*Prim)
	tt, tok := to.(*Prim)
	if fok && tok {
		// byte -> int widens and always succeeds; int -> byte is a
		// dynamic range check. All other distinct prim pairs fail.
		if ff.Kind == KindByte && tt.Kind == KindInt {
			return CastTrue
		}
		if ff.Kind == KindInt && tt.Kind == KindByte {
			return CastDynamic
		}
		if ff.Kind == KindNull {
			return CastFalse
		}
		return CastFalse
	}
	if fok && ff.Kind == KindNull {
		if IsRefType(to) {
			return CastTrue
		}
		return CastFalse
	}
	switch ft := from.(type) {
	case *Tuple:
		tt, ok := to.(*Tuple)
		if !ok || len(ft.Elems) != len(tt.Elems) {
			return CastFalse
		}
		rel := CastTrue
		for i := range ft.Elems {
			switch c.castable(ft.Elems[i], tt.Elems[i]) {
			case CastFalse:
				return CastFalse
			case CastDynamic:
				rel = CastDynamic
			}
		}
		return rel
	case *Class:
		tc, ok := to.(*Class)
		if !ok {
			return CastFalse
		}
		if c.isSubtype(ft, tc) {
			return CastTrue
		}
		if c.isSubtype(tc, ft) {
			return CastDynamic // downcast
		}
		return CastFalse
	case *Func:
		tf, ok := to.(*Func)
		if !ok {
			return CastFalse
		}
		if c.isSubtype(ft, tf) {
			return CastTrue
		}
		// A function value's dynamic type may be a subtype of its static
		// type, so a cast to an unrelated-but-compatible function type is
		// a dynamic check when the target is a subtype direction;
		// otherwise it can never succeed.
		if c.isSubtype(tf, ft) {
			return CastDynamic
		}
		return CastFalse
	case *Array:
		ta, ok := to.(*Array)
		if !ok {
			return CastFalse
		}
		if ft.Elem == ta.Elem {
			return CastTrue
		}
		return CastFalse
	}
	return CastFalse
}

// Size returns the number of type-constructor nodes in t, used by the
// monomorphizer to detect runaway (polymorphically recursive)
// instantiations before their representations grow exponentially.
func Size(t Type) int {
	switch t := t.(type) {
	case *Prim, *TypeParam, *Enum:
		return 1
	case *Tuple:
		n := 1
		for _, e := range t.Elems {
			n += Size(e)
		}
		return n
	case *Func:
		return 1 + Size(t.Param) + Size(t.Ret)
	case *Array:
		return 1 + Size(t.Elem)
	case *Class:
		n := 1
		for _, a := range t.Args {
			n += Size(a)
		}
		return n
	}
	return 1
}

// Flatten appends the scalar expansion of t (§4.2) to out and returns
// it: tuples expand recursively, void expands to nothing, arrays of
// tuples expand to parallel arrays, and everything else is itself.
// Arrays of void are kept as a length-only array.
func Flatten(c *Cache, t Type, out []Type) []Type {
	switch t := t.(type) {
	case *Prim:
		if t.Kind == KindVoid {
			return out
		}
		return append(out, t)
	case *Tuple:
		for _, e := range t.Elems {
			out = Flatten(c, e, out)
		}
		return out
	case *Array:
		elems := Flatten(c, t.Elem, nil)
		if len(elems) == 0 {
			// Array<void>: keep a single length-only array (§4.2).
			return append(out, t)
		}
		for _, e := range elems {
			out = append(out, c.ArrayOf(e))
		}
		return out
	default:
		return append(out, t)
	}
}
