// Package ir defines the compiler's intermediate representation: a
// typed, register-based control-flow-graph IR.
//
// The same IR serves two forms. The polymorphic form, produced by
// lowering, may mention type parameters in register types, call type
// arguments, and cast/query targets; it is what the reference
// interpreter executes with runtime type environments (§4.3's
// "invisible arguments"). The monomorphic+normalized form, produced by
// the mono and norm passes, has closed scalar types only: no type
// parameters and no tuples, the paper's compiled form (§4.2-§4.3).
package ir

import (
	"fmt"
	"strings"

	"repro/internal/src"
	"repro/internal/types"
)

// Op is an instruction opcode.
type Op int

// Instruction opcodes.
const (
	OpNop Op = iota

	// Constants.
	OpConstInt    // Dst[0] = IVal (int)
	OpConstByte   // Dst[0] = IVal (byte)
	OpConstBool   // Dst[0] = IVal != 0
	OpConstNull   // Dst[0] = null of Type
	OpConstVoid   // Dst[0] = ()
	OpConstString // Dst[0] = new Array<byte> of SVal

	// Moves.
	OpMove // Dst[0] = Args[0]

	// Integer arithmetic (32-bit wrapping).
	OpAdd
	OpSub
	OpMul
	OpDiv // traps !DivideByZeroException
	OpMod // traps !DivideByZeroException
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpNeg
	// Comparisons; Type is the operand type (int or byte).
	OpLt
	OpLe
	OpGt
	OpGe
	// Universal equality; works on any type (recursive on tuples).
	OpEq
	OpNe
	// Boolean not.
	OpNot
	// Boolean combinators, used by normalization to combine the
	// elementwise results of flattened tuple equality and queries.
	OpBoolAnd
	OpBoolOr

	// Tuples (eliminated by normalization).
	OpMakeTuple // Dst[0] = (Args...); Type is the tuple type
	OpTupleGet  // Dst[0] = Args[0].FieldSlot

	// Objects.
	OpNewObject  // Dst[0] = new Type (a class type); fields defaulted
	OpFieldLoad  // Dst[0] = Args[0].fields[FieldSlot]; null-checks
	OpFieldStore // Args[0].fields[FieldSlot] = Args[1]; null-checks
	OpNullCheck  // traps if Args[0] is null

	// Arrays.
	OpArrayNew   // Dst[0] = new Type (array type) of length Args[0]
	OpArrayLoad  // Dst[0] = Args[0][Args[1]]
	OpArrayStore // Args[0][Args[1]] = Args[2]
	OpArrayLen   // Dst[0] = Args[0].length

	// Globals.
	OpGlobalLoad  // Dst[0] = globals[Global]
	OpGlobalStore // globals[Global] = Args[0]

	// Calls. Dst may be empty (void) or hold result registers (one
	// before normalization, several after).
	OpCallStatic   // Dst = Fn(Args...) with TypeArgs
	OpCallVirtual  // Dst = Args[0].vtable[FieldSlot](Args...) with TypeArgs
	OpCallIndirect // Dst = Args[0](Args[1:]...)
	OpCallBuiltin  // Dst = builtin SVal (Args...)

	// Closures.
	OpMakeClosure // Dst[0] = closure of Fn with TypeArgs (no receiver)
	OpMakeBound   // Dst[0] = Args[0].vtable[FieldSlot] bound to Args[0]

	// Enums (§6.1 future work, implemented).
	OpConstEnum // Dst[0] = case IVal of enum Type
	OpEnumTag   // Dst[0] = int tag of Args[0]
	OpEnumName  // Dst[0] = name string of Args[0]

	// Reified type operations (§2.2, §4.3).
	OpTypeCast  // Dst[0] = cast Args[0] from Type2 to Type; traps
	OpTypeQuery // Dst[0] = Args[0] is-a Type (from static Type2)

	// Control flow terminators.
	OpRet    // return Args (0, 1, or N after normalization)
	OpJump   // goto Blocks[0]
	OpBranch // if Args[0] goto Blocks[0] else Blocks[1]
	OpThrow  // throw exception SVal
)

var opNames = map[Op]string{
	OpNop: "nop", OpConstInt: "const.int", OpConstByte: "const.byte",
	OpConstBool: "const.bool", OpConstNull: "const.null", OpConstVoid: "const.void",
	OpConstString: "const.string", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNeg: "neg", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpEq: "eq", OpNe: "ne", OpNot: "not", OpBoolAnd: "band", OpBoolOr: "bor",
	OpMakeTuple: "tuple", OpTupleGet: "tuple.get",
	OpNewObject: "new", OpFieldLoad: "field.load", OpFieldStore: "field.store",
	OpNullCheck: "nullcheck",
	OpArrayNew:  "array.new", OpArrayLoad: "array.load", OpArrayStore: "array.store",
	OpArrayLen: "array.len", OpGlobalLoad: "global.load", OpGlobalStore: "global.store",
	OpCallStatic: "call", OpCallVirtual: "call.virtual", OpCallIndirect: "call.indirect",
	OpCallBuiltin: "call.builtin", OpMakeClosure: "closure", OpMakeBound: "closure.bound",
	OpTypeCast: "cast", OpTypeQuery: "query",
	OpConstEnum: "const.enum", OpEnumTag: "enum.tag", OpEnumName: "enum.name",
	OpRet: "ret", OpJump: "jump", OpBranch: "branch", OpThrow: "throw",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpRet, OpJump, OpBranch, OpThrow:
		return true
	}
	return false
}

// Reg is a virtual register with a static type.
type Reg struct {
	// ID is dense per function: every register of f has a distinct ID
	// in [0, f.NumRegs()), so per-function tables (the optimizer's,
	// the analyses', the bytecode translator's) are slices indexed by
	// ID rather than maps. Registers therefore come only from f.NewReg
	// or f.AdoptReg, or from the incremental relinker, which rebuilds
	// them with their original IDs and then calls f.SetRegCount. Verify
	// rejects an ID out of range or shared by two registers.
	ID   int
	Type types.Type
	Name string // optional source name, for dumps
}

func (r *Reg) String() string {
	if r.Name != "" {
		return fmt.Sprintf("v%d'%s", r.ID, r.Name)
	}
	return fmt.Sprintf("v%d", r.ID)
}

// Instr is one IR instruction. The payload fields used depend on Op.
type Instr struct {
	Op        Op
	Dst       []*Reg
	Args      []*Reg
	Type      types.Type   // class/array/tuple/cast-target/operand type
	Type2     types.Type   // cast/query source static type
	Fn        *Func        // direct call / closure target
	Global    *Global      // global load/store target
	FieldSlot int          // field slot, vtable slot, or tuple index
	IVal      int64        // integer payload
	SVal      string       // string payload (const string, builtin, throw)
	TypeArgs  []types.Type // call-site type arguments
	Blocks    []*Block     // branch/jump targets
	Pos       src.Pos
	// StackAlloc marks an allocation proven non-escaping by escape
	// analysis: both engines still build the value but skip its modeled
	// heap charge (the value is frame-local, so only the HeapBytes meter
	// can observe the difference). Only ops with statically known size
	// may carry it; analysis.VerifyPromotions re-proves every mark on
	// the final IR.
	StackAlloc bool
}

// Block is a basic block: a sequence of instructions ending in a
// terminator.
type Block struct {
	// ID is dense per function: every block of f has a distinct ID in
	// [0, f.NumBlocks()), so per-function block tables (the
	// optimizer's reachability marks and predecessor counts, the
	// analyses' loop search) are slices indexed by ID rather than maps.
	// Blocks therefore come only from f.NewBlock or f.AdoptBlocks.
	// Passes that drop blocks leave holes; IDs are never reused. Verify
	// rejects an ID out of range or shared by two blocks.
	ID     int
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil if the block
// is unterminated (only during construction).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// FuncKind classifies functions for diagnostics and statistics.
type FuncKind int

// Function kinds.
const (
	KindTopLevel FuncKind = iota
	KindMethod
	KindCtor
	KindAlloc   // synthesized allocator: A.new as a function (b7)
	KindWrapper // synthesized operator/builtin/unbound wrappers
	KindInit    // synthesized global initializer
)

// Func is an IR function.
type Func struct {
	Name string
	Kind FuncKind
	// TypeParams, before monomorphization, lists the type parameters in
	// scope: the owner class's parameters followed by the method's own.
	TypeParams []*types.TypeParamDef
	// NumClassParams is how many leading TypeParams belong to the owner
	// class; virtual dispatch binds those from the receiver object.
	NumClassParams int
	Params         []*Reg
	// Results holds the return types: exactly one entry (possibly void)
	// before normalization; zero or more scalars after.
	Results []types.Type
	Blocks  []*Block
	// Class is the owning IR class for methods/ctors, nil otherwise.
	Class  *Class
	VtSlot int // vtable slot for methods; -1 otherwise

	nextReg   int
	nextBlock int
}

// NewReg allocates a fresh register of type t in f.
func (f *Func) NewReg(t types.Type, name string) *Reg {
	r := &Reg{ID: f.nextReg, Type: t, Name: name}
	f.nextReg++
	return r
}

// AdoptReg moves r, a register of a body being rewritten into f, into
// f's register space: it takes the ID NewReg would hand out next. mono
// and norm transform the bodies they are given instead of copying them,
// and renumber each kept register at its first use, so IDs come out as
// a copy would assign them.
func (f *Func) AdoptReg(r *Reg) {
	r.ID = f.nextReg
	f.nextReg++
}

// AdoptBlocks installs bs, the blocks of a body being rewritten into f,
// as f's blocks, renumbering their IDs densely in order as NewBlock
// would. f must have no blocks of its own.
func (f *Func) AdoptBlocks(bs []*Block) {
	for i, b := range bs {
		b.ID = i
	}
	f.Blocks = bs
	f.nextBlock = len(bs)
}

// NumRegs returns the number of virtual registers allocated in f: the
// exclusive bound of its dense register IDs, and so the length of any
// table indexed by Reg.ID. Registers come only from NewReg, or from the
// relinker after SetRegCount.
func (f *Func) NumRegs() int { return f.nextReg }

// SetRegCount seeds the fresh-register counter. The incremental
// relinker rebuilds a function's registers with their original IDs
// preserved (so dumps stay byte-identical) and then seeds the counter
// past them, so later NewReg calls — e.g. from optimizer inlining —
// continue exactly where the original compilation's counter stood.
func (f *Func) SetRegCount(n int) { f.nextReg = n }

// NumBlocks returns the number of blocks allocated in f: the exclusive
// bound of its dense block IDs, and so the length of any table indexed
// by Block.ID. It counts blocks ever made by NewBlock, so it can exceed
// len(f.Blocks) once a pass has dropped some.
func (f *Func) NumBlocks() int { return f.nextBlock }

// NewBlock allocates and appends a fresh basic block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlock}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumInstrs counts instructions, the code-size statistic of E4.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Field is a field slot in an IR class.
type Field struct {
	Name string
	Type types.Type
}

// Class is IR class metadata. Before monomorphization there is one per
// source class, with open field types; after, one per reachable
// instantiation with closed types.
type Class struct {
	Name       string
	Def        *types.ClassDef
	Args       []types.Type // instantiation arguments (self-params before mono)
	Parent     *Class
	TypeParams []*types.TypeParamDef
	Fields     []Field // all fields including inherited, slot order
	Vtable     []*Func
	Depth      int
	// Type is the class type this IR class represents.
	Type *types.Class
}

// IsSubclassOf reports whether c is cls or a subclass of it.
func (c *Class) IsSubclassOf(cls *Class) bool {
	for w := c; w != nil; w = w.Parent {
		if w == cls {
			return true
		}
	}
	return false
}

// Global is a program global variable.
type Global struct {
	Name  string
	Type  types.Type
	Index int
}

// Module is a whole program in IR form.
type Module struct {
	Types   *types.Cache
	Funcs   []*Func
	Classes []*Class
	Globals []*Global
	Main    *Func
	// Init is the synthesized function running global initializers.
	Init *Func
	// Monomorphic is set after monomorphization.
	Monomorphic bool
	// Normalized is set after tuple normalization.
	Normalized bool
}

// FindFunc returns the first function named name, or nil. Declaration
// order is the lookup order, matching the interpreter's CallFunc.
func (m *Module) FindFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumInstrs counts instructions across all functions (E4).
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// ------------------------------------------------------------- printing

// String renders the module for dumps and golden tests.
func (m *Module) String() string {
	var b strings.Builder
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "class %s", c.Name)
		if c.Parent != nil {
			fmt.Fprintf(&b, " extends %s", c.Parent.Name)
		}
		b.WriteString(" {\n")
		for i, f := range c.Fields {
			fmt.Fprintf(&b, "  field %d %s: %s\n", i, f.Name, f.Type)
		}
		for i, fn := range c.Vtable {
			if fn != nil {
				fmt.Fprintf(&b, "  vtable %d -> %s\n", i, fn.Name)
			}
		}
		b.WriteString("}\n")
	}
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global %d %s: %s\n", g.Index, g.Name, g.Type)
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

// String renders one function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", p, p.Type)
	}
	b.WriteString(") -> (")
	for i, r := range f.Results {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteString(")")
	if len(f.TypeParams) > 0 {
		b.WriteString(" <")
		for i, tp := range f.TypeParams {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tp.Name)
		}
		b.WriteString(">")
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for _, in := range blk.Instrs {
			b.WriteString("  ")
			b.WriteString(in.String())
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	var b strings.Builder
	if len(in.Dst) > 0 {
		for i, d := range in.Dst {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.String())
		}
		b.WriteString(" = ")
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConstInt, OpConstByte:
		fmt.Fprintf(&b, " %d", in.IVal)
	case OpConstBool:
		fmt.Fprintf(&b, " %v", in.IVal != 0)
	case OpConstString, OpCallBuiltin, OpThrow:
		fmt.Fprintf(&b, " %q", in.SVal)
	case OpConstNull, OpNewObject, OpArrayNew, OpTypeCast, OpTypeQuery:
		fmt.Fprintf(&b, " %s", in.Type)
	case OpCallStatic, OpMakeClosure:
		fmt.Fprintf(&b, " %s", in.Fn.Name)
	case OpCallVirtual, OpMakeBound, OpFieldLoad, OpFieldStore, OpTupleGet:
		fmt.Fprintf(&b, " #%d", in.FieldSlot)
	case OpGlobalLoad, OpGlobalStore:
		fmt.Fprintf(&b, " @%s", in.Global.Name)
	}
	if len(in.TypeArgs) > 0 {
		b.WriteString(" <")
		for i, t := range in.TypeArgs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.String())
		}
		b.WriteString(">")
	}
	for _, a := range in.Args {
		b.WriteString(" ")
		b.WriteString(a.String())
	}
	for _, blk := range in.Blocks {
		fmt.Fprintf(&b, " b%d", blk.ID)
	}
	if in.StackAlloc {
		b.WriteString(" [stack]")
	}
	return b.String()
}
