package interp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/src"
	"repro/internal/types"
)

// Frame is one Virgil-level call frame in a stack trace: the function
// name and the source position of the instruction that was executing
// when the trap fired (or, in caller frames, the call site).
type Frame struct {
	Func string
	Pos  src.Pos
}

func (f Frame) String() string {
	if f.Pos.IsValid() {
		return fmt.Sprintf("%s (%s)", f.Func, f.Pos)
	}
	return f.Func
}

// MaxTraceFrames bounds the frames captured in one trace; deeper stacks
// (a !StackOverflow has thousands of frames) record the overflow count
// in Elided instead.
const MaxTraceFrames = 64

// VirgilError is a runtime exception thrown by the executed program
// (e.g. !NullCheckException, !TypeCheckException). Trace holds the
// Virgil-level call stack at the throw point, innermost frame first;
// Elided counts frames dropped from an over-deep trace.
type VirgilError struct {
	Name   string
	Msg    string
	Trace  []Frame
	Elided int
}

func (e *VirgilError) Error() string {
	if e.Msg == "" {
		return e.Name
	}
	return e.Name + ": " + e.Msg
}

// TraceString renders the source-level stack trace, one frame per line,
// innermost first — the paper's §2 safety story made debuggable.
func (e *VirgilError) TraceString() string {
	var b strings.Builder
	for _, f := range e.Trace {
		fmt.Fprintf(&b, "\tat %s\n", f)
	}
	if e.Elided > 0 {
		fmt.Fprintf(&b, "\t... %d more frames elided ...\n", e.Elided)
	}
	return b.String()
}

// A ResourceError reports that execution exceeded a configured resource
// guard (step budget or wall-clock deadline) or was cancelled by the
// caller's context. It is not a Virgil-level exception — the program
// did not misbehave, the host bounded it — so it is a distinct type
// that drivers report as such.
type ResourceError struct {
	Kind string // "steps", "deadline", or "cancelled"
	Func string // function executing when the guard fired
	Msg  string
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("interp: %s in %s", e.Msg, e.Func)
}

// Stats reports the dynamic costs the paper's implementation section
// discusses.
type Stats struct {
	// Steps is the number of IR instructions executed (also the virtual
	// clock for clock.ticks).
	Steps int64
	// AdaptChecks counts every entry into Adapt, the dynamic
	// arity-adaptation check at virtual and indirect call sites (§4.1);
	// the bytecode engine counts each call it enters straight from the
	// argument registers, which stands in for Adapt, the same way. Zero
	// in a normalized module: there ir.Verify proves every such call's
	// arity and both engines pass arguments straight through (§4.2).
	AdaptChecks int64
	// AdaptPacks counts adaptations that had to box or unbox a tuple;
	// normalization brings it to zero.
	AdaptPacks int64
	// TypeEnvBinds counts runtime type-argument bindings performed
	// (§4.3's "invisible arguments"); zero in monomorphized code.
	TypeEnvBinds int64
	// TupleAllocs counts boxed tuple values allocated; zero after
	// normalization (§4.2's no-implicit-allocation guarantee).
	TupleAllocs int64
	// Calls counts function activations.
	Calls int64
	// HeapBytes is the cumulative modeled allocation cost (see heap.go);
	// it is metered against the MaxHeap budget and never decreases.
	HeapBytes int64
}

// DefaultMaxDepth bounds Virgil call depth. Each Virgil frame consumes
// a Go frame plus heap registers, so this must stay well under the Go
// runtime's fatal (unrecoverable) 1GB stack limit.
const DefaultMaxDepth = 10_000

// Options configure an interpreter.
type Options struct {
	Out      io.Writer       // System output; nil discards
	MaxSteps int64           // step budget; 0 means the default (1e9)
	MaxDepth int             // call-depth limit; 0 means DefaultMaxDepth
	MaxHeap  int64           // modeled heap budget; 0 means DefaultMaxHeap
	Timeout  time.Duration   // wall-clock budget; 0 means none
	Ctx      context.Context // cancellation; nil means never cancelled
	// Profile enables runtime profile collection. Only the bytecode
	// engine records profiles; the switch interpreter ignores this.
	Profile bool
}

// Interp executes one module.
type Interp struct {
	mod  *ir.Module
	tc   *types.Cache
	out  io.Writer
	opts Options

	globals    []Value
	classByDef map[*types.ClassDef]*ir.Class
	classByTyp map[*types.Class]*ir.Class

	stats    Stats
	maxSteps int64
	maxDepth int
	maxHeap  int64
	deadline time.Time
	done     <-chan struct{} // caller-context cancellation; nil means never
	frames   []Frame         // active Virgil call stack, outermost first

	// regPool recycles register frames across calls: without it a hot
	// interpreter spends most of its allocations on the per-call
	// register slice. Frames are cleared on release so values from a
	// finished call are neither observed by the next one nor retained
	// from collection.
	regPool [][]Value

	// constStrs caches the decoded element template of each
	// OpConstString instruction; objTemplates caches the field-default
	// template of each instantiated class. Both are copied into the
	// fresh (mutable) value on use, so caching is unobservable.
	constStrs    map[*ir.Instr][]Value
	objTemplates map[*types.Class][]Value
}

// constString returns the decoded byte-element template for a
// const-string instruction, computing it on first use.
func (i *Interp) constString(in *ir.Instr) []Value {
	if tmpl, ok := i.constStrs[in]; ok {
		return tmpl
	}
	tmpl := make([]Value, len(in.SVal))
	for k := 0; k < len(in.SVal); k++ {
		tmpl[k] = ByteVal(in.SVal[k])
	}
	i.constStrs[in] = tmpl
	return tmpl
}

// fieldTemplate returns the default field values of an instantiated
// class, computing BindParams + per-field defaults once per class
// instead of once per allocation. Default values are immutable
// (scalars, nulls, enum case 0, tuples of those), so sharing template
// entries across objects is unobservable.
func (i *Interp) fieldTemplate(cls *ir.Class, ct *types.Class) []Value {
	if tmpl, ok := i.objTemplates[ct]; ok {
		return tmpl
	}
	tmpl := make([]Value, len(cls.Fields))
	cenv := types.BindParams(cls.Def.TypeParams, ct.Args)
	for k, fd := range cls.Fields {
		tmpl[k] = DefaultValue(i.tc, i.tc.Subst(fd.Type, cenv))
	}
	i.objTemplates[ct] = tmpl
	return tmpl
}

// New creates an interpreter for mod.
func New(mod *ir.Module, opts Options) *Interp {
	i := &Interp{
		mod:        mod,
		tc:         mod.Types,
		out:        opts.Out,
		opts:       opts,
		globals:    make([]Value, len(mod.Globals)),
		classByDef: map[*types.ClassDef]*ir.Class{},
		classByTyp: map[*types.Class]*ir.Class{},
		maxSteps:   opts.MaxSteps,

		constStrs:    map[*ir.Instr][]Value{},
		objTemplates: map[*types.Class][]Value{},
	}
	if i.maxSteps == 0 {
		i.maxSteps = 1_000_000_000
	}
	i.maxDepth = opts.MaxDepth
	if i.maxDepth == 0 {
		i.maxDepth = DefaultMaxDepth
	}
	i.maxHeap = opts.MaxHeap
	if i.maxHeap == 0 {
		i.maxHeap = DefaultMaxHeap
	}
	if opts.Timeout > 0 {
		i.deadline = time.Now().Add(opts.Timeout)
	}
	if opts.Ctx != nil {
		i.done = opts.Ctx.Done()
	}
	for _, c := range mod.Classes {
		if mod.Monomorphic {
			i.classByTyp[c.Type] = c
		} else {
			i.classByDef[c.Def] = c
		}
	}
	for gi, g := range mod.Globals {
		i.globals[gi] = DefaultValue(i.tc, g.Type)
	}
	return i
}

// Stats returns execution statistics so far.
func (i *Interp) Stats() Stats { return i.stats }

// Run executes global initializers then main, returning main's result
// values.
func (i *Interp) Run() ([]Value, error) {
	if i.mod.Init != nil {
		if _, err := i.call(i.mod.Init, nil, nil); err != nil {
			return nil, err
		}
	}
	if i.mod.Main == nil {
		return nil, fmt.Errorf("interp: module has no main function")
	}
	if len(i.mod.Main.Params) != 0 {
		return nil, fmt.Errorf("interp: main must take no parameters")
	}
	return i.call(i.mod.Main, nil, nil)
}

// CallFunc invokes a named function with the given values (used by
// tests and benchmarks).
func (i *Interp) CallFunc(name string, args ...Value) ([]Value, error) {
	for _, f := range i.mod.Funcs {
		if f.Name == name {
			return i.call(f, args, nil)
		}
	}
	return nil, fmt.Errorf("interp: no function %q", name)
}

// env is a runtime type-argument environment.
type env = map[*types.TypeParamDef]types.Type

// subst substitutes the frame's type environment into t.
func (i *Interp) subst(t types.Type, e env) types.Type {
	if t == nil || len(e) == 0 {
		return t
	}
	return i.tc.Subst(t, e)
}

func (i *Interp) substAll(ts []types.Type, e env) []types.Type {
	if len(ts) == 0 {
		return nil
	}
	out := make([]types.Type, len(ts))
	for k, t := range ts {
		out[k] = i.subst(t, e)
	}
	return out
}

// bindEnv builds the callee's type environment from its type parameters
// and closed type arguments.
func (i *Interp) bindEnv(f *ir.Func, targs []types.Type) env {
	if len(f.TypeParams) == 0 {
		return nil
	}
	i.stats.TypeEnvBinds++
	e := make(env, len(f.TypeParams))
	for k, p := range f.TypeParams {
		if k < len(targs) {
			e[p] = targs[k]
		}
	}
	return e
}

// traceSnapshot captures the current Virgil call stack, innermost frame
// first, bounded at MaxTraceFrames.
func (i *Interp) traceSnapshot() ([]Frame, int) {
	n := len(i.frames)
	keep := n
	if keep > MaxTraceFrames {
		keep = MaxTraceFrames
	}
	out := make([]Frame, keep)
	for k := 0; k < keep; k++ {
		out[k] = i.frames[n-1-k]
	}
	return out, n - keep
}

// charge meters one allocation of n modeled bytes against the heap
// budget, returning a !HeapExhausted trap once the budget is spent.
// The trace is stamped by call() as the trap unwinds, like every
// other bare trap.
func (i *Interp) charge(n int64) *VirgilError {
	if ChargeHeap(&i.stats, i.maxHeap, n) {
		return HeapTrap(n, i.maxHeap)
	}
	return nil
}

// trap builds a Virgil exception carrying the current stack trace.
func (i *Interp) trap(name, msg string) *VirgilError {
	tr, elided := i.traceSnapshot()
	return &VirgilError{Name: name, Msg: msg, Trace: tr, Elided: elided}
}

// call pushes a Virgil frame for f, executes it, and — if a trap is
// unwinding and has no trace yet — stamps the trace at this, the
// deepest point that sees the error. Caller frames above attach
// nothing, so the snapshot reflects the throw point.
func (i *Interp) call(f *ir.Func, args []Value, targs []types.Type) ([]Value, error) {
	i.stats.Calls++
	if len(i.frames) >= i.maxDepth {
		return nil, i.trap("!StackOverflow", fmt.Sprintf("call depth limit %d reached calling %s", i.maxDepth, f.Name))
	}
	fr := Frame{Func: f.Name}
	// Seed the frame with the function-entry position so traps that
	// fire before the first instruction (arity adaptation) still point
	// into the source.
	if len(f.Blocks) > 0 && len(f.Blocks[0].Instrs) > 0 {
		fr.Pos = f.Blocks[0].Instrs[0].Pos
	}
	i.frames = append(i.frames, fr)
	res, err := i.exec(f, args, targs)
	if ve, ok := err.(*VirgilError); ok && ve.Trace == nil {
		ve.Trace, ve.Elided = i.traceSnapshot()
	}
	i.frames = i.frames[:len(i.frames)-1]
	return res, err
}

// getRegs takes a register frame of length n from the pool, or
// allocates one. The pool never grows past the call depth, because
// frames are only released when a call returns.
func (i *Interp) getRegs(n int) []Value {
	if k := len(i.regPool) - 1; k >= 0 {
		regs := i.regPool[k]
		i.regPool[k] = nil
		i.regPool = i.regPool[:k]
		if cap(regs) >= n {
			return regs[:n]
		}
	}
	return make([]Value, n)
}

// putRegs clears a frame and returns it to the pool.
func (i *Interp) putRegs(regs []Value) {
	clear(regs)
	i.regPool = append(i.regPool, regs[:0])
}

// exec runs f's body. It must only be called by call, which maintains
// the frame stack around it.
func (i *Interp) exec(f *ir.Func, args []Value, targs []types.Type) ([]Value, error) {
	fi := len(i.frames) - 1
	e := i.bindEnv(f, targs)
	regs := i.getRegs(f.NumRegs())
	defer i.putRegs(regs)
	if len(args) != len(f.Params) {
		return nil, &VirgilError{Name: "!CallArityException", Msg: fmt.Sprintf("%s: got %d args, want %d", f.Name, len(args), len(f.Params))}
	}
	for k, p := range f.Params {
		regs[p.ID] = args[k]
	}
	blk := f.Blocks[0]
	pc := 0
	get := func(r *ir.Reg) Value { return regs[r.ID] }
	for {
		if pc >= len(blk.Instrs) {
			return nil, fmt.Errorf("interp: %s: fell off block b%d", f.Name, blk.ID)
		}
		in := blk.Instrs[pc]
		i.frames[fi].Pos = in.Pos
		i.stats.Steps++
		if i.stats.Steps > i.maxSteps {
			return nil, &ResourceError{Kind: "steps", Func: f.Name, Msg: fmt.Sprintf("step limit exceeded (budget %d)", i.maxSteps)}
		}
		if i.stats.Steps&0xFFF == 0 {
			if !i.deadline.IsZero() && time.Now().After(i.deadline) {
				return nil, &ResourceError{Kind: "deadline", Func: f.Name, Msg: "wall-clock deadline exceeded"}
			}
			if i.done != nil {
				select {
				case <-i.done:
					return nil, &ResourceError{Kind: "cancelled", Func: f.Name, Msg: "execution cancelled"}
				default:
				}
			}
		}
		switch in.Op {
		case ir.OpNop:
		case ir.OpConstInt:
			regs[in.Dst[0].ID] = IntVal(int32(in.IVal))
		case ir.OpConstByte:
			regs[in.Dst[0].ID] = ByteVal(byte(in.IVal))
		case ir.OpConstBool:
			regs[in.Dst[0].ID] = BoolVal(in.IVal != 0)
		case ir.OpConstVoid:
			regs[in.Dst[0].ID] = VoidVal{}
		case ir.OpConstNull:
			// The "null" of a type: the default value. Lowering emits
			// this for locals of (possibly open) type-parameter type, so
			// the runtime type environment decides the representation.
			regs[in.Dst[0].ID] = DefaultValue(i.tc, i.subst(in.Type, e))
		case ir.OpConstString:
			// Arrays are mutable, so each execution gets a fresh element
			// slice — but decoding the string constant happens once per
			// instruction, not once per execution.
			tmpl := i.constString(in)
			if ve := i.charge(StringBytes(len(tmpl))); ve != nil {
				return nil, ve
			}
			elems := make([]Value, len(tmpl))
			copy(elems, tmpl)
			regs[in.Dst[0].ID] = &ArrVal{Elem: i.tc.Byte(), Elems: elems}
		case ir.OpMove:
			regs[in.Dst[0].ID] = get(in.Args[0])

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
			ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor:
			a, ok1 := get(in.Args[0]).(IntVal)
			b, ok2 := get(in.Args[1]).(IntVal)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("interp: %s: non-int operands to %s", f.Name, in.Op)
			}
			v, err := IntArith(in.Op, int32(a), int32(b))
			if err != nil {
				return nil, err
			}
			regs[in.Dst[0].ID] = IntVal(v)
		case ir.OpNeg:
			a, ok := get(in.Args[0]).(IntVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: non-int operand to %s", f.Name, in.Op)
			}
			regs[in.Dst[0].ID] = IntVal(-int32(a))
		case ir.OpNot:
			a, ok := get(in.Args[0]).(BoolVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: non-bool operand to %s", f.Name, in.Op)
			}
			regs[in.Dst[0].ID] = BoolVal(!a)
		case ir.OpBoolAnd, ir.OpBoolOr:
			a, ok1 := get(in.Args[0]).(BoolVal)
			b, ok2 := get(in.Args[1]).(BoolVal)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("interp: %s: non-bool operands to %s", f.Name, in.Op)
			}
			if in.Op == ir.OpBoolAnd {
				regs[in.Dst[0].ID] = a && b
			} else {
				regs[in.Dst[0].ID] = a || b
			}
		case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			regs[in.Dst[0].ID] = BoolVal(CompareVals(in.Op, get(in.Args[0]), get(in.Args[1])))
		case ir.OpEq:
			regs[in.Dst[0].ID] = BoolVal(ValueEq(get(in.Args[0]), get(in.Args[1])))
		case ir.OpNe:
			regs[in.Dst[0].ID] = BoolVal(!ValueEq(get(in.Args[0]), get(in.Args[1])))

		case ir.OpMakeTuple:
			// Allocations proven non-escaping skip the modeled heap
			// charge: the value is frame-local, so only the HeapBytes
			// meter could tell the difference.
			if !in.StackAlloc {
				if ve := i.charge(TupleBytes(len(in.Args))); ve != nil {
					return nil, ve
				}
			}
			vs := make(TupleVal, len(in.Args))
			for k, a := range in.Args {
				vs[k] = get(a)
			}
			i.stats.TupleAllocs++
			regs[in.Dst[0].ID] = vs
		case ir.OpTupleGet:
			tv, ok := get(in.Args[0]).(TupleVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: tuple.get of non-tuple", f.Name)
			}
			regs[in.Dst[0].ID] = tv[in.FieldSlot]

		case ir.OpNewObject:
			ct := i.subst(in.Type, e).(*types.Class)
			cls, err := i.classFor(ct)
			if err != nil {
				return nil, err
			}
			if !in.StackAlloc {
				if ve := i.charge(ObjectBytes(len(cls.Fields))); ve != nil {
					return nil, ve
				}
			}
			tmpl := i.fieldTemplate(cls, ct)
			fields := make([]Value, len(tmpl))
			copy(fields, tmpl)
			regs[in.Dst[0].ID] = &ObjVal{Class: cls, Type: ct, Fields: fields}
		case ir.OpFieldLoad:
			obj, err := i.objArg(f, in, get(in.Args[0]))
			if err != nil {
				return nil, err
			}
			regs[in.Dst[0].ID] = obj.Fields[in.FieldSlot]
		case ir.OpFieldStore:
			obj, err := i.objArg(f, in, get(in.Args[0]))
			if err != nil {
				return nil, err
			}
			obj.Fields[in.FieldSlot] = get(in.Args[1])
		case ir.OpNullCheck:
			if _, isNull := get(in.Args[0]).(NullVal); isNull {
				return nil, &VirgilError{Name: "!NullCheckException"}
			}

		case ir.OpArrayNew:
			at := i.subst(in.Type, e).(*types.Array)
			n := int(get(in.Args[0]).(IntVal))
			if n < 0 {
				return nil, &VirgilError{Name: "!LengthCheckException"}
			}
			if ve := i.charge(ArrayBytes(i.tc, at.Elem, int64(n))); ve != nil {
				return nil, ve
			}
			av := &ArrVal{Elem: at.Elem, Len: n}
			if at.Elem != i.tc.Void() {
				av.Elems = make([]Value, n)
				d := DefaultValue(i.tc, at.Elem)
				for k := range av.Elems {
					av.Elems[k] = d
				}
			}
			regs[in.Dst[0].ID] = av
		case ir.OpArrayLoad:
			av, idx, err := i.arrayArgs(get(in.Args[0]), get(in.Args[1]))
			if err != nil {
				return nil, err
			}
			if len(in.Dst) > 0 { // void-array accesses are check-only
				if av.Elems == nil {
					regs[in.Dst[0].ID] = VoidVal{}
				} else {
					regs[in.Dst[0].ID] = av.Elems[idx]
				}
			}
		case ir.OpArrayStore:
			av, idx, err := i.arrayArgs(get(in.Args[0]), get(in.Args[1]))
			if err != nil {
				return nil, err
			}
			if av.Elems != nil {
				av.Elems[idx] = get(in.Args[2])
			}
		case ir.OpArrayLen:
			av, ok := get(in.Args[0]).(*ArrVal)
			if !ok {
				return nil, &VirgilError{Name: "!NullCheckException"}
			}
			regs[in.Dst[0].ID] = IntVal(int32(av.Length()))

		case ir.OpGlobalLoad:
			regs[in.Dst[0].ID] = i.globals[in.Global.Index]
		case ir.OpGlobalStore:
			i.globals[in.Global.Index] = get(in.Args[0])

		case ir.OpCallStatic:
			// The argument slice is dead once the callee's exec copies
			// it into registers, so it can come from the frame pool.
			args := i.getRegs(len(in.Args))
			for k, a := range in.Args {
				args[k] = get(a)
			}
			res, err := i.call(in.Fn, args, i.substAll(in.TypeArgs, e))
			i.putRegs(args)
			if err != nil {
				return nil, err
			}
			storeResults(regs, in.Dst, res)
		case ir.OpCallVirtual:
			recv, ok := get(in.Args[0]).(*ObjVal)
			if !ok {
				return nil, &VirgilError{Name: "!NullCheckException"}
			}
			slot := in.FieldSlot
			if slot >= len(recv.Class.Vtable) || recv.Class.Vtable[slot] == nil {
				return nil, fmt.Errorf("interp: %s: bad vtable slot %d on %s", f.Name, slot, recv.Class.Name)
			}
			provided := make([]Value, len(in.Args)-1)
			for k := 1; k < len(in.Args); k++ {
				provided[k-1] = get(in.Args[k])
			}
			bound := &FuncVal{Fn: recv.Class.Vtable[slot], Recv: recv, HasRecv: true, TypeArgs: i.substAll(in.TypeArgs, e)}
			res, err := i.invokeClosure(bound, provided)
			if err != nil {
				return nil, err
			}
			storeResults(regs, in.Dst, res)
		case ir.OpCallIndirect:
			fv, ok := get(in.Args[0]).(*FuncVal)
			if !ok {
				return nil, &VirgilError{Name: "!NullCheckException"}
			}
			provided := make([]Value, len(in.Args)-1)
			for k := 1; k < len(in.Args); k++ {
				provided[k-1] = get(in.Args[k])
			}
			res, err := i.invokeClosure(fv, provided)
			if err != nil {
				return nil, err
			}
			storeResults(regs, in.Dst, res)
		case ir.OpCallBuiltin:
			args := i.getRegs(len(in.Args))
			for k, a := range in.Args {
				args[k] = get(a)
			}
			res, err := CallBuiltin(i.out, in.SVal, args, i.stats.Steps)
			i.putRegs(args)
			if err != nil {
				return nil, err
			}
			if len(in.Dst) > 0 {
				regs[in.Dst[0].ID] = res
			}

		case ir.OpMakeClosure:
			if !in.StackAlloc {
				if ve := i.charge(ClosureBytes); ve != nil {
					return nil, ve
				}
			}
			targsClosed := i.substAll(in.TypeArgs, e)
			fv := &FuncVal{Fn: in.Fn, TypeArgs: targsClosed}
			if ft, ok := i.subst(in.Type2, e).(*types.Func); ok {
				fv.Type = ft // the recorded source-level closure type
			} else {
				fv.Type = ClosureType(i.tc, in.Fn, nil, targsClosed)
			}
			regs[in.Dst[0].ID] = fv
		case ir.OpMakeBound:
			recv, ok := get(in.Args[0]).(*ObjVal)
			if !ok {
				return nil, &VirgilError{Name: "!NullCheckException"}
			}
			if !in.StackAlloc {
				if ve := i.charge(ClosureBytes); ve != nil {
					return nil, ve
				}
			}
			target := recv.Class.Vtable[in.FieldSlot]
			targsClosed := i.substAll(in.TypeArgs, e)
			fv := &FuncVal{Fn: target, Recv: recv, HasRecv: true, TypeArgs: targsClosed}
			if ft, ok := i.subst(in.Type2, e).(*types.Func); ok {
				fv.Type = ft
			} else {
				fv.Type = ClosureType(i.tc, target, recv, targsClosed)
			}
			regs[in.Dst[0].ID] = fv

		case ir.OpConstEnum:
			et := i.subst(in.Type, e).(*types.Enum)
			regs[in.Dst[0].ID] = EnumVal{Def: et.Def, Tag: int(in.IVal)}
		case ir.OpEnumTag:
			ev, ok := get(in.Args[0]).(EnumVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: enum.tag of non-enum", f.Name)
			}
			regs[in.Dst[0].ID] = IntVal(int32(ev.Tag))
		case ir.OpEnumName:
			ev, ok := get(in.Args[0]).(EnumVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: enum.name of non-enum", f.Name)
			}
			name := "?"
			if ev.Tag >= 0 && ev.Tag < len(ev.Def.Cases) {
				name = ev.Def.Cases[ev.Tag]
			}
			if ve := i.charge(StringBytes(len(name))); ve != nil {
				return nil, ve
			}
			elems := make([]Value, len(name))
			for k := 0; k < len(name); k++ {
				elems[k] = ByteVal(name[k])
			}
			regs[in.Dst[0].ID] = &ArrVal{Elem: i.tc.Byte(), Elems: elems}

		case ir.OpTypeCast:
			to := i.subst(in.Type, e)
			v, err := EvalCast(i.tc, get(in.Args[0]), to)
			if err != nil {
				return nil, err
			}
			regs[in.Dst[0].ID] = v
		case ir.OpTypeQuery:
			to := i.subst(in.Type, e)
			regs[in.Dst[0].ID] = BoolVal(EvalQuery(i.tc, get(in.Args[0]), to))

		case ir.OpRet:
			out := make([]Value, len(in.Args))
			for k, a := range in.Args {
				out[k] = get(a)
			}
			return out, nil
		case ir.OpJump:
			blk = in.Blocks[0]
			pc = 0
			continue
		case ir.OpBranch:
			c, ok := get(in.Args[0]).(BoolVal)
			if !ok {
				return nil, fmt.Errorf("interp: %s: branch on non-bool", f.Name)
			}
			if c {
				blk = in.Blocks[0]
			} else {
				blk = in.Blocks[1]
			}
			pc = 0
			continue
		case ir.OpThrow:
			return nil, &VirgilError{Name: in.SVal}
		default:
			return nil, fmt.Errorf("interp: %s: unhandled op %s", f.Name, in.Op)
		}
		pc++
	}
}

// storeResults writes call results into destination registers. A callee
// may return one void value for a caller expecting none and vice versa.
func storeResults(regs []Value, dst []*ir.Reg, res []Value) {
	for k, d := range dst {
		if k < len(res) {
			regs[d.ID] = res[k]
		} else {
			regs[d.ID] = VoidVal{}
		}
	}
}

// invokeClosure calls a closure value, or the method a virtual call
// dispatched to bound to its receiver, passing the provided values
// after the bound receiver. Outside a normalized module they are first
// adapted to the target's arity (§4.1); in one, ir.Verify has proved
// that they already agree.
func (i *Interp) invokeClosure(fv *FuncVal, provided []Value) ([]Value, error) {
	args := provided
	if !i.mod.Normalized {
		params := fv.Fn.Params
		if fv.HasRecv {
			params = params[1:]
		}
		adapted, err := Adapt(&i.stats, provided, params)
		if err != nil {
			return nil, err
		}
		args = adapted
	}
	targs := fv.TypeArgs
	if fv.HasRecv {
		args = append([]Value{fv.Recv}, args...)
		if fv.Fn.NumClassParams > 0 {
			targs = append(ClassArgsFromRecv(i.tc, fv.Fn, fv.Recv.(*ObjVal)), fv.TypeArgs...)
		}
	}
	return i.call(fv.Fn, args, targs)
}

// classFor resolves a closed class type to its IR class.
func (i *Interp) classFor(ct *types.Class) (*ir.Class, error) {
	if i.mod.Monomorphic {
		if c, ok := i.classByTyp[ct]; ok {
			return c, nil
		}
		return nil, fmt.Errorf("interp: no specialized class for %s", ct)
	}
	if c, ok := i.classByDef[ct.Def]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("interp: unknown class %s", ct)
}

func (i *Interp) objArg(f *ir.Func, in *ir.Instr, v Value) (*ObjVal, error) {
	obj, ok := v.(*ObjVal)
	if !ok {
		return nil, &VirgilError{Name: "!NullCheckException"}
	}
	return obj, nil
}

func (i *Interp) arrayArgs(av, iv Value) (*ArrVal, int, error) {
	arr, ok := av.(*ArrVal)
	if !ok {
		return nil, 0, &VirgilError{Name: "!NullCheckException"}
	}
	idx, ok := iv.(IntVal)
	if !ok {
		return nil, 0, fmt.Errorf("interp: non-int array index")
	}
	if int(idx) < 0 || int(idx) >= arr.Length() {
		return nil, 0, &VirgilError{Name: "!BoundsCheckException"}
	}
	return arr, int(idx), nil
}

func first(args []Value) Value {
	if len(args) == 0 {
		return VoidVal{}
	}
	return args[0]
}
