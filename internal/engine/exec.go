package engine

import (
	"fmt"
	"io"
	"time"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// tenv is a runtime type-argument environment.
type tenv = map[*types.TypeParamDef]types.Type

// kRef marks a boxed return value in retval.kind; scalar kinds reuse
// kInt/kByte/kBool.
const kRef = uint8(3)

// retval is one function result, staged in the engine's shared return
// buffer between the callee's ret and the caller's storeRets. The
// buffer is safe to share because every caller consumes it before
// executing another instruction.
type retval struct {
	s    int64
	v    interp.Value
	kind uint8
}

func (rv *retval) box() interp.Value {
	if rv.kind == kRef {
		return rv.v
	}
	return boxKind(uint32(rv.kind), rv.s)
}

// icEntry is one monomorphic inline cache at a virtual or indirect
// call site. cls keys virtual sites; ifn+hasRecv key indirect sites.
// fast is the keyed target's code when Program.direct admits it, and
// nil otherwise, in which case the cache only memoizes the negative
// result. Installing an entry allocates nothing, so a polymorphic site
// simply re-keys its entry on every miss.
type icEntry struct {
	cls     *ir.Class
	ifn     *ir.Func
	hasRecv bool
	fast    *fnCode
}

// recorder holds the engine's profile counters, dense-indexed by the
// program's deterministic function numbering. nil unless the engine
// was created with Options.Profile, so the only cost on an unprofiled
// run is a nil check at the recording points.
type recorder struct {
	fns []fnCnt
}

type fnCnt struct{ calls, steps int64 }

// frame is one activation on the engine's call stack: the function and
// the pc it is executing, or -1 before its first instruction. Source
// positions are looked up from fnCode.pos only when a trap needs a
// trace, so the dispatch loop records a pc and never copies a position.
type frame struct {
	fn *fnCode
	pc int
}

// trace renders fr as the interpreter's trace frame.
func (fr *frame) trace() interp.Frame {
	pos := fr.fn.entryPos
	if fr.pc >= 0 {
		pos = fr.fn.pos[fr.pc]
	}
	return interp.Frame{Func: fr.fn.name, Pos: pos}
}

// Engine executes a compiled Program. An Engine holds all mutable
// run state (globals, inline caches, stats, pools); the Program it
// runs is immutable and may be shared across concurrent Engines.
type Engine struct {
	p   *Program
	tc  *types.Cache
	out io.Writer

	stats    interp.Stats
	maxSteps int64
	maxDepth int
	maxHeap  int64
	deadline time.Time
	done     <-chan struct{}
	frames   []frame

	gS []int64
	gR []interp.Value

	ics []icEntry
	ret []retval
	rec *recorder

	// sPool/rPool recycle per-call register files; vPool recycles
	// scratch slices for boxed argument marshaling. Ref slices are
	// cleared on release so finished-call values are neither observed
	// nor retained; scalar slices are zeroed on reuse.
	sPool [][]int64
	rPool [][]interp.Value
	vPool [][]interp.Value

	// objTemplates caches field-default templates for class types only
	// reachable through runtime substitution (the closed ones are
	// precomputed at translation).
	objTemplates map[*types.Class][]interp.Value
}

// New creates an engine for p with interpreter-compatible options.
func New(p *Program, opts interp.Options) *Engine {
	e := &Engine{
		p:            p,
		tc:           p.tc,
		out:          opts.Out,
		maxSteps:     opts.MaxSteps,
		maxDepth:     opts.MaxDepth,
		gS:           make([]int64, p.nGS),
		gR:           make([]interp.Value, p.nGR),
		ics:          make([]icEntry, p.numICs),
		ret:          make([]retval, p.maxRet),
		objTemplates: map[*types.Class][]interp.Value{},
	}
	copy(e.gR, p.gRefInit)
	if e.maxSteps == 0 {
		e.maxSteps = 1_000_000_000
	}
	if e.maxDepth == 0 {
		e.maxDepth = interp.DefaultMaxDepth
	}
	e.maxHeap = opts.MaxHeap
	if e.maxHeap == 0 {
		e.maxHeap = interp.DefaultMaxHeap
	}
	if opts.Timeout > 0 {
		e.deadline = time.Now().Add(opts.Timeout)
	}
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}
	if opts.Profile {
		e.rec = &recorder{fns: make([]fnCnt, len(p.pnames))}
	}
	return e
}

// Stats returns execution statistics so far.
func (e *Engine) Stats() interp.Stats { return e.stats }

// Profile snapshots the execution profile recorded so far, or nil when
// the engine was created without Options.Profile. Keys are the
// program's deterministic profile names, so profiles recorded by
// different processes for the same program are directly comparable
// and mergeable. Not safe to call concurrently with a running engine —
// snapshot after the run, like Stats.
func (e *Engine) Profile() *profile.Profile {
	if e.rec == nil {
		return nil
	}
	p := profile.New()
	for idx := range e.rec.fns {
		fr := &e.rec.fns[idx]
		if fr.calls == 0 && fr.steps == 0 {
			continue
		}
		f := p.FuncFor(e.p.pnames[idx])
		f.Calls = fr.calls
		f.Steps = fr.steps
	}
	return p
}

// charge meters one allocation of n modeled bytes against the heap
// budget, mirroring (*interp.Interp).charge so both engines trap at
// the same allocation with the same message. The trace is stamped as
// the bare trap unwinds through the call path.
func (e *Engine) charge(n int64) *interp.VirgilError {
	if interp.ChargeHeap(&e.stats, e.maxHeap, n) {
		return interp.HeapTrap(n, e.maxHeap)
	}
	return nil
}

// Run executes global initializers then main, returning main's result
// values.
func (e *Engine) Run() ([]interp.Value, error) {
	if e.p.mod.Init != nil {
		if _, err := e.callTop(e.p.mod.Init, nil, nil); err != nil {
			return nil, err
		}
	}
	if e.p.mod.Main == nil {
		return nil, fmt.Errorf("interp: module has no main function")
	}
	if len(e.p.mod.Main.Params) != 0 {
		return nil, fmt.Errorf("interp: main must take no parameters")
	}
	return e.callTop(e.p.mod.Main, nil, nil)
}

// CallFunc invokes a named function with the given values (used by
// tests and benchmarks).
func (e *Engine) CallFunc(name string, args ...interp.Value) ([]interp.Value, error) {
	for _, f := range e.p.mod.Funcs {
		if f.Name == name {
			return e.callTop(f, args, nil)
		}
	}
	return nil, fmt.Errorf("interp: no function %q", name)
}

func (e *Engine) callTop(f *ir.Func, args []interp.Value, targs []types.Type) ([]interp.Value, error) {
	n, err := e.enterBoxed(f, args, targs)
	if err != nil {
		return nil, err
	}
	out := make([]interp.Value, n)
	for k := 0; k < n; k++ {
		out[k] = e.ret[k].box()
	}
	return out, nil
}

// boxKind boxes a scalar slot value of the given kind.
func boxKind(k uint32, sv int64) interp.Value {
	switch k {
	case kByte:
		return interp.ByteVal(byte(sv))
	case kBool:
		return interp.BoolVal(sv != 0)
	}
	return interp.IntVal(int32(sv))
}

// getv reads a register in either file as a boxed value.
func getv(s []int64, r []interp.Value, enc uint32) interp.Value {
	if isRefEnc(enc) {
		return r[slotOf(enc)]
	}
	return boxKind(kindOf(enc), s[slotOf(enc)])
}

// setv writes a boxed value into a register in either file, unboxing
// into the scalar file when the register class requires it.
func setv(s []int64, r []interp.Value, enc uint32, v interp.Value) error {
	if isRefEnc(enc) {
		r[slotOf(enc)] = v
		return nil
	}
	return unboxInto(s, enc, v)
}

func unboxInto(s []int64, enc uint32, v interp.Value) error {
	switch av := v.(type) {
	case interp.IntVal:
		s[slotOf(enc)] = int64(int32(av))
	case interp.ByteVal:
		s[slotOf(enc)] = int64(av)
	case interp.BoolVal:
		if av {
			s[slotOf(enc)] = 1
		} else {
			s[slotOf(enc)] = 0
		}
	default:
		return fmt.Errorf("interp: cannot unbox %T into scalar register", v)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmpSlots compares two raw scalar slots of equal kind. Int and byte
// slots compare as their int64 contents, matching the interpreter's
// int64-promoted compare; equality on equal kinds is slot equality.
func cmpSlots(op ir.Op, x, y int64) bool {
	switch op {
	case ir.OpLt:
		return x < y
	case ir.OpLe:
		return x <= y
	case ir.OpGt:
		return x > y
	case ir.OpGe:
		return x >= y
	case ir.OpEq:
		return x == y
	case ir.OpNe:
		return x != y
	}
	return false
}

// moveReg copies caller register src into callee register dst, with
// the box/unbox decision carried by the two encodings.
func moveReg(cs []int64, cr []interp.Value, ns []int64, nr []interp.Value, src, dst uint32) error {
	if isRefEnc(src) {
		if isRefEnc(dst) {
			nr[slotOf(dst)] = cr[slotOf(src)]
			return nil
		}
		return unboxInto(ns, dst, cr[slotOf(src)])
	}
	if isRefEnc(dst) {
		nr[slotOf(dst)] = boxKind(kindOf(src), cs[slotOf(src)])
		return nil
	}
	ns[slotOf(dst)] = cs[slotOf(src)]
	return nil
}

// Frame pools.

func (e *Engine) getS(n int) []int64 {
	if k := len(e.sPool) - 1; k >= 0 {
		s := e.sPool[k]
		e.sPool[k] = nil
		e.sPool = e.sPool[:k]
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]int64, n)
}

func (e *Engine) putS(s []int64) { e.sPool = append(e.sPool, s[:0]) }

func (e *Engine) getR(n int) []interp.Value {
	if k := len(e.rPool) - 1; k >= 0 {
		r := e.rPool[k]
		e.rPool[k] = nil
		e.rPool = e.rPool[:k]
		if cap(r) >= n {
			return r[:n]
		}
	}
	return make([]interp.Value, n)
}

func (e *Engine) putR(r []interp.Value) {
	clear(r)
	e.rPool = append(e.rPool, r[:0])
}

func (e *Engine) getV(n int) []interp.Value {
	if k := len(e.vPool) - 1; k >= 0 {
		v := e.vPool[k]
		e.vPool[k] = nil
		e.vPool = e.vPool[:k]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]interp.Value, n)
}

func (e *Engine) putV(v []interp.Value) {
	clear(v)
	e.vPool = append(e.vPool, v[:0])
}

// Type environments.

func (e *Engine) subst(t types.Type, env tenv) types.Type {
	if t == nil || len(env) == 0 {
		return t
	}
	return e.tc.Subst(t, env)
}

func (e *Engine) substAll(ts []types.Type, env tenv) []types.Type {
	if len(ts) == 0 {
		return nil
	}
	out := make([]types.Type, len(ts))
	for k, t := range ts {
		out[k] = e.subst(t, env)
	}
	return out
}

func (e *Engine) bindEnv(f *ir.Func, targs []types.Type) tenv {
	if len(f.TypeParams) == 0 {
		return nil
	}
	e.stats.TypeEnvBinds++
	env := make(tenv, len(f.TypeParams))
	for k, p := range f.TypeParams {
		if k < len(targs) {
			env[p] = targs[k]
		}
	}
	return env
}

// objTemplate caches field-default templates for runtime-substituted
// class types (translation precomputes the closed ones).
func (e *Engine) objTemplate(cls *ir.Class, ct *types.Class) []interp.Value {
	if tmpl, ok := e.objTemplates[ct]; ok {
		return tmpl
	}
	tmpl := make([]interp.Value, len(cls.Fields))
	cenv := types.BindParams(cls.Def.TypeParams, ct.Args)
	for k, fd := range cls.Fields {
		tmpl[k] = interp.DefaultValue(e.tc, e.tc.Subst(fd.Type, cenv))
	}
	e.objTemplates[ct] = tmpl
	return tmpl
}

// Traces and resource guards.

func (e *Engine) traceSnapshot() ([]interp.Frame, int) {
	n := len(e.frames)
	keep := n
	if keep > interp.MaxTraceFrames {
		keep = interp.MaxTraceFrames
	}
	out := make([]interp.Frame, keep)
	for k := 0; k < keep; k++ {
		out[k] = e.frames[n-1-k].trace()
	}
	return out, n - keep
}

func (e *Engine) trap(name, msg string) *interp.VirgilError {
	tr, elided := e.traceSnapshot()
	return &interp.VirgilError{Name: name, Msg: msg, Trace: tr, Elided: elided}
}

func (e *Engine) poll(fname string) error {
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return &interp.ResourceError{Kind: "deadline", Func: fname, Msg: "wall-clock deadline exceeded"}
	}
	if e.done != nil {
		select {
		case <-e.done:
			return &interp.ResourceError{Kind: "cancelled", Func: fname, Msg: "execution cancelled"}
		default:
		}
	}
	return nil
}

// Call protocol.

// enterBoxed activates f with boxed arguments — the general path that
// mirrors the interpreter's call+exec prologue: count the call, check
// depth, push the frame, bind the type environment, check arity, then
// spill arguments into the register files.
func (e *Engine) enterBoxed(f *ir.Func, args []interp.Value, targs []types.Type) (int, error) {
	e.stats.Calls++
	if len(e.frames) >= e.maxDepth {
		return 0, e.trap("!StackOverflow", fmt.Sprintf("call depth limit %d reached calling %s", e.maxDepth, f.Name))
	}
	fn := e.p.fns[f]
	if fn == nil {
		return 0, fmt.Errorf("interp: no translated code for %s", f.Name)
	}
	e.frames = append(e.frames, frame{fn: fn, pc: -1})
	env := e.bindEnv(f, targs)
	var n int
	var err error
	if len(args) != len(f.Params) {
		err = &interp.VirgilError{Name: "!CallArityException", Msg: fmt.Sprintf("%s: got %d args, want %d", f.Name, len(args), len(f.Params))}
	} else {
		s := e.getS(fn.nS)
		r := e.getR(fn.nR)
		for k := range args {
			if err = setv(s, r, fn.params[k], args[k]); err != nil {
				break
			}
		}
		if err == nil {
			if e.rec == nil {
				n, err = e.exec(fn, s, r, env)
			} else {
				fr := &e.rec.fns[fn.idx]
				fr.calls++
				t0 := e.stats.Steps
				n, err = e.exec(fn, s, r, env)
				fr.steps += e.stats.Steps - t0
			}
		}
		e.putS(s)
		e.putR(r)
	}
	if ve, ok := err.(*interp.VirgilError); ok && ve.Trace == nil {
		ve.Trace, ve.Elided = e.traceSnapshot()
	}
	e.frames = e.frames[:len(e.frames)-1]
	return n, err
}

// callPlanned runs call cd straight from the caller's registers: the
// bound receiver, if there is one, goes into fn's first parameter, the
// caller registers cd.args into the parameters after it, and the
// results into cd.dsts. fn was admitted by Program.direct, so it binds
// no type parameters and takes exactly these values.
func (e *Engine) callPlanned(fn *fnCode, cd *coldInstr, cs []int64, cr []interp.Value, recv interp.Value, hasRecv bool) error {
	e.stats.Calls++
	if len(e.frames) >= e.maxDepth {
		return e.trap("!StackOverflow", fmt.Sprintf("call depth limit %d reached calling %s", e.maxDepth, fn.name))
	}
	e.frames = append(e.frames, frame{fn: fn, pc: -1})
	s := e.getS(fn.nS)
	r := e.getR(fn.nR)
	params := fn.params
	var err error
	if hasRecv {
		err = setv(s, r, params[0], recv)
		params = params[1:]
	}
	if err == nil {
		for k, a := range cd.args {
			if err = moveReg(cs, cr, s, r, a, params[k]); err != nil {
				break
			}
		}
	}
	var n int
	if err == nil {
		if e.rec == nil {
			n, err = e.exec(fn, s, r, nil)
		} else {
			fr := &e.rec.fns[fn.idx]
			fr.calls++
			t0 := e.stats.Steps
			n, err = e.exec(fn, s, r, nil)
			fr.steps += e.stats.Steps - t0
		}
	}
	if ve, ok := err.(*interp.VirgilError); ok && ve.Trace == nil {
		ve.Trace, ve.Elided = e.traceSnapshot()
	}
	e.frames = e.frames[:len(e.frames)-1]
	e.putS(s)
	e.putR(r)
	if err != nil {
		return err
	}
	return e.storeRets(cd.dsts, cs, cr, n)
}

// storeRets spills the shared return buffer into caller registers,
// padding missing results with void (mirroring storeResults).
func (e *Engine) storeRets(dsts []uint32, s []int64, r []interp.Value, n int) error {
	for k, d := range dsts {
		if k >= n {
			if isRefEnc(d) {
				r[slotOf(d)] = interp.VoidVal{}
			} else {
				s[slotOf(d)] = 0
			}
			continue
		}
		rv := &e.ret[k]
		if isRefEnc(d) {
			r[slotOf(d)] = rv.box()
		} else if rv.kind == kRef {
			if err := unboxInto(s, d, rv.v); err != nil {
				return err
			}
		} else {
			s[slotOf(d)] = rv.s
		}
	}
	return nil
}

// callVirtual dispatches one virtual call through a monomorphic inline
// cache keyed on the receiver's class. A target Program.direct admits
// is entered straight from the argument registers; any other is called
// as the method bound to the receiver, the interpreter's boxed path.
func (e *Engine) callVirtual(fn *fnCode, ins *einstr, cd *coldInstr, s []int64, r []interp.Value, env tenv) error {
	recv, ok := getv(s, r, cd.args[0]).(*interp.ObjVal)
	if !ok {
		return &interp.VirgilError{Name: "!NullCheckException"}
	}
	slot := int(ins.aux)
	if slot >= len(recv.Class.Vtable) || recv.Class.Vtable[slot] == nil {
		return fmt.Errorf("interp: %s: bad vtable slot %d on %s", fn.name, slot, recv.Class.Name)
	}
	target := recv.Class.Vtable[slot]
	ic := &e.ics[ins.ic]
	if ic.cls != recv.Class {
		*ic = icEntry{cls: recv.Class, fast: e.p.direct(target, len(cd.args))}
	}
	if fast := ic.fast; fast != nil {
		e.countCheck()
		return e.callPlanned(fast, cd, s, r, nil, false)
	}
	margs := cd.targs
	if ins.open() {
		margs = e.substAll(cd.targs, env)
	}
	return e.callBoxed(&interp.FuncVal{Fn: target, Recv: recv, HasRecv: true, TypeArgs: margs}, cd.args[1:], cd.dsts, s, r)
}

// callIndirect invokes a closure value through a monomorphic inline
// cache keyed on the closure's function and bound-receiver shape, with
// callVirtual's split between direct and boxed targets.
func (e *Engine) callIndirect(ins *einstr, cd *coldInstr, fvv interp.Value, s []int64, r []interp.Value) error {
	fv, ok := fvv.(*interp.FuncVal)
	if !ok {
		return &interp.VirgilError{Name: "!NullCheckException"}
	}
	ic := &e.ics[ins.ic]
	if ic.ifn != fv.Fn || ic.hasRecv != fv.HasRecv {
		nargs := len(cd.args)
		if fv.HasRecv {
			nargs++
		}
		*ic = icEntry{ifn: fv.Fn, hasRecv: fv.HasRecv, fast: e.p.direct(fv.Fn, nargs)}
	}
	if fast := ic.fast; fast != nil {
		e.countCheck()
		return e.callPlanned(fast, cd, s, r, fv.Recv, fv.HasRecv)
	}
	return e.callBoxed(fv, cd.args, cd.dsts, s, r)
}

// countCheck counts a virtual or indirect call entered straight from
// the argument registers. In a normalized module ir.Verify has proved
// the call's arity, so there is no check to count; elsewhere the call
// stands in for an Adapt check that passes trivially, and counts as one
// to keep Stats equal to the switch interpreter's.
func (e *Engine) countCheck() {
	if !e.p.mod.Normalized {
		e.stats.AdaptChecks++
	}
}

// callBoxed mirrors the interpreter's invokeClosure: it boxes the
// caller registers args, adapts them to fv's arity (§4.1), and enters
// fv's function after its bound receiver with receiver-derived type
// arguments. Only a module that is not normalized may need this; in a
// normalized one ir.Verify rejects a call whose arity disagrees with
// its target, so reaching here is a compiler bug, reported rather than
// adapted.
func (e *Engine) callBoxed(fv *interp.FuncVal, args, dsts []uint32, s []int64, r []interp.Value) error {
	params := fv.Fn.Params
	if fv.HasRecv {
		params = params[1:]
	}
	if e.p.mod.Normalized {
		return fmt.Errorf("interp: normalized call passes %d values to %s, which takes %d", len(args), fv.Fn.Name, len(params))
	}
	provided := make([]interp.Value, len(args))
	for k, a := range args {
		provided[k] = getv(s, r, a)
	}
	vals, err := interp.Adapt(&e.stats, provided, params)
	if err != nil {
		return err
	}
	targs := fv.TypeArgs
	if fv.HasRecv {
		vals = append([]interp.Value{fv.Recv}, vals...)
		if fv.Fn.NumClassParams > 0 {
			targs = append(interp.ClassArgsFromRecv(e.tc, fv.Fn, fv.Recv.(*interp.ObjVal)), fv.TypeArgs...)
		}
	}
	n, err := e.enterBoxed(fv.Fn, vals, targs)
	if err != nil {
		return err
	}
	return e.storeRets(dsts, s, r, n)
}

// exec runs one translated function body. It must only be called by
// enterBoxed or callPlanned, which maintain the frame stack around it.
// The returned count is the number of results staged in e.ret.
func (e *Engine) exec(fn *fnCode, s []int64, r []interp.Value, env tenv) (int, error) {
	fi := len(e.frames) - 1
	code := fn.code
	pc := 0
	for {
		ins := &code[pc]
		e.frames[fi].pc = pc
		if n := int64(ins.nsteps); n != 0 {
			old := e.stats.Steps
			nw := old + n
			e.stats.Steps = nw
			if nw > e.maxSteps {
				// The interpreter traps at the first step past the
				// budget, leaving Steps at exactly maxSteps+1.
				e.stats.Steps = e.maxSteps + 1
				return 0, &interp.ResourceError{Kind: "steps", Func: fn.name, Msg: fmt.Sprintf("step limit exceeded (budget %d)", e.maxSteps)}
			}
			if old>>12 != nw>>12 {
				if err := e.poll(fn.name); err != nil {
					return 0, err
				}
			}
		}
		switch ins.op {
		case opNop:

		case opConstS:
			s[slotOf(ins.dst)] = ins.imm
		case opConstR:
			cd := &fn.cold[ins.cold]
			r[slotOf(ins.dst)] = cd.val
		case opConstNullO:
			cd := &fn.cold[ins.cold]
			v := interp.DefaultValue(e.tc, e.subst(cd.typ, env))
			if err := setv(s, r, ins.dst, v); err != nil {
				return 0, err
			}
		case opConstStr:
			cd := &fn.cold[ins.cold]
			if ve := e.charge(interp.StringBytes(len(cd.tmpl))); ve != nil {
				return 0, ve
			}
			elems := make([]interp.Value, len(cd.tmpl))
			copy(elems, cd.tmpl)
			r[slotOf(ins.dst)] = &interp.ArrVal{Elem: cd.typ, Elems: elems}

		case opMoveSS:
			s[slotOf(ins.dst)] = s[slotOf(ins.a)]
		case opMoveRR:
			r[slotOf(ins.dst)] = r[slotOf(ins.a)]
		case opMoveBox:
			r[slotOf(ins.dst)] = boxKind(kindOf(ins.a), s[slotOf(ins.a)])
		case opMoveUnbox:
			if err := unboxInto(s, ins.dst, r[slotOf(ins.a)]); err != nil {
				return 0, err
			}

		case opArithSS:
			v, err := interp.IntArith(ir.Op(ins.aux), int32(s[slotOf(ins.a)]), int32(s[slotOf(ins.b)]))
			if err != nil {
				return 0, err
			}
			s[slotOf(ins.dst)] = int64(v)
		case opArithSI:
			v, err := interp.IntArith(ir.Op(ins.aux), int32(s[slotOf(ins.a)]), int32(ins.imm))
			if err != nil {
				return 0, err
			}
			s[slotOf(ins.dst)] = int64(v)
		case opArithRR:
			a, ok1 := getv(s, r, ins.a).(interp.IntVal)
			b, ok2 := getv(s, r, ins.b).(interp.IntVal)
			if !ok1 || !ok2 {
				return 0, fmt.Errorf("interp: %s: non-int operands to %s", fn.name, ir.Op(ins.aux))
			}
			v, err := interp.IntArith(ir.Op(ins.aux), int32(a), int32(b))
			if err != nil {
				return 0, err
			}
			if err := setv(s, r, ins.dst, interp.IntVal(v)); err != nil {
				return 0, err
			}
		case opNegS:
			s[slotOf(ins.dst)] = int64(-int32(s[slotOf(ins.a)]))
		case opNegR:
			a, ok := getv(s, r, ins.a).(interp.IntVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: non-int operand to %s", fn.name, ir.OpNeg)
			}
			if err := setv(s, r, ins.dst, interp.IntVal(-int32(a))); err != nil {
				return 0, err
			}
		case opNotS:
			s[slotOf(ins.dst)] = s[slotOf(ins.a)] ^ 1
		case opNotR:
			a, ok := getv(s, r, ins.a).(interp.BoolVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: non-bool operand to %s", fn.name, ir.OpNot)
			}
			if err := setv(s, r, ins.dst, interp.BoolVal(!a)); err != nil {
				return 0, err
			}
		case opBoolSS:
			if ins.aux != 0 {
				s[slotOf(ins.dst)] = s[slotOf(ins.a)] | s[slotOf(ins.b)]
			} else {
				s[slotOf(ins.dst)] = s[slotOf(ins.a)] & s[slotOf(ins.b)]
			}
		case opBoolRR:
			op := ir.OpBoolAnd
			if ins.aux != 0 {
				op = ir.OpBoolOr
			}
			a, ok1 := getv(s, r, ins.a).(interp.BoolVal)
			b, ok2 := getv(s, r, ins.b).(interp.BoolVal)
			if !ok1 || !ok2 {
				return 0, fmt.Errorf("interp: %s: non-bool operands to %s", fn.name, op)
			}
			var res interp.BoolVal
			if op == ir.OpBoolAnd {
				res = a && b
			} else {
				res = a || b
			}
			if err := setv(s, r, ins.dst, res); err != nil {
				return 0, err
			}
		case opCmpSS:
			s[slotOf(ins.dst)] = b2i(cmpSlots(ir.Op(ins.aux), s[slotOf(ins.a)], s[slotOf(ins.b)]))
		case opCmpRR:
			res := interp.CompareVals(ir.Op(ins.aux), getv(s, r, ins.a), getv(s, r, ins.b))
			if err := setv(s, r, ins.dst, interp.BoolVal(res)); err != nil {
				return 0, err
			}
		case opEqRR:
			eq := interp.ValueEq(getv(s, r, ins.a), getv(s, r, ins.b))
			if ir.Op(ins.aux) == ir.OpNe {
				eq = !eq
			}
			if err := setv(s, r, ins.dst, interp.BoolVal(eq)); err != nil {
				return 0, err
			}

		case opBranchS:
			c := s[slotOf(ins.a)] != 0
			if c {
				pc = int(ins.t1)
			} else {
				pc = int(ins.t2)
			}
			continue
		case opBranchR:
			c, ok := r[slotOf(ins.a)].(interp.BoolVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: branch on non-bool", fn.name)
			}
			if c {
				pc = int(ins.t1)
			} else {
				pc = int(ins.t2)
			}
			continue
		case opCmpBrSS:
			c := cmpSlots(ir.Op(ins.aux), s[slotOf(ins.a)], s[slotOf(ins.b)])
			if c {
				pc = int(ins.t1)
			} else {
				pc = int(ins.t2)
			}
			continue
		case opCmpBrSI:
			c := cmpSlots(ir.Op(ins.aux), s[slotOf(ins.a)], ins.imm)
			if c {
				pc = int(ins.t1)
			} else {
				pc = int(ins.t2)
			}
			continue
		case opFused:
			cd := &fn.cold[ins.cold]
			runSubs(cd.subs, fn.cold, s, r, e.gS)
		case opFusedBr:
			cd := &fn.cold[ins.cold]
			runSubs(cd.subs, fn.cold, s, r, e.gS)
			var c bool
			switch ins.k {
			case fbrS:
				c = s[slotOf(ins.a)] != 0
			case fbrSS:
				c = cmpSlots(ir.Op(ins.aux), s[slotOf(ins.a)], s[slotOf(ins.b)])
			default:
				c = cmpSlots(ir.Op(ins.aux), s[slotOf(ins.a)], ins.imm)
			}
			if c {
				pc = int(ins.t1)
			} else {
				pc = int(ins.t2)
			}
			continue
		case opJump:
			pc = int(ins.t1)
			continue

		case opRet0:
			return 0, nil
		case opRet:
			cd := &fn.cold[ins.cold]
			for k, a := range cd.args {
				if isRefEnc(a) {
					e.ret[k] = retval{v: r[slotOf(a)], kind: kRef}
				} else {
					e.ret[k] = retval{s: s[slotOf(a)], kind: uint8(kindOf(a))}
				}
			}
			return len(cd.args), nil

		case opMakeTuple:
			cd := &fn.cold[ins.cold]
			// noheap: stack-promoted, the charge is skipped in both
			// engines identically (see ir.Instr.StackAlloc).
			if !ins.noheap() {
				if ve := e.charge(interp.TupleBytes(len(cd.args))); ve != nil {
					return 0, ve
				}
			}
			vs := make(interp.TupleVal, len(cd.args))
			for k, a := range cd.args {
				vs[k] = getv(s, r, a)
			}
			e.stats.TupleAllocs++
			if err := setv(s, r, ins.dst, vs); err != nil {
				return 0, err
			}
		case opTupleGet:
			tv, ok := getv(s, r, ins.a).(interp.TupleVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: tuple.get of non-tuple", fn.name)
			}
			if err := setv(s, r, ins.dst, tv[ins.aux]); err != nil {
				return 0, err
			}

		case opNewObjC:
			cd := &fn.cold[ins.cold]
			if cd.xerr != nil {
				return 0, cd.xerr
			}
			if !ins.noheap() {
				if ve := e.charge(interp.ObjectBytes(len(cd.tmpl))); ve != nil {
					return 0, ve
				}
			}
			fields := make([]interp.Value, len(cd.tmpl))
			copy(fields, cd.tmpl)
			r[slotOf(ins.dst)] = &interp.ObjVal{Class: cd.cls, Type: cd.typ.(*types.Class), Fields: fields}
		case opNewObjO:
			cd := &fn.cold[ins.cold]
			ct := e.subst(cd.typ, env).(*types.Class)
			cls, err := e.p.classFor(ct)
			if err != nil {
				return 0, err
			}
			if !ins.noheap() {
				if ve := e.charge(interp.ObjectBytes(len(cls.Fields))); ve != nil {
					return 0, ve
				}
			}
			tmpl := e.objTemplate(cls, ct)
			fields := make([]interp.Value, len(tmpl))
			copy(fields, tmpl)
			r[slotOf(ins.dst)] = &interp.ObjVal{Class: cls, Type: ct, Fields: fields}
		case opFieldLoad:
			obj, ok := getv(s, r, ins.a).(*interp.ObjVal)
			if !ok {
				return 0, &interp.VirgilError{Name: "!NullCheckException"}
			}
			if err := setv(s, r, ins.dst, obj.Fields[ins.aux]); err != nil {
				return 0, err
			}
		case opFieldStore:
			obj, ok := getv(s, r, ins.a).(*interp.ObjVal)
			if !ok {
				return 0, &interp.VirgilError{Name: "!NullCheckException"}
			}
			obj.Fields[ins.aux] = getv(s, r, ins.b)
		case opNullCheck:
			if _, isNull := r[slotOf(ins.a)].(interp.NullVal); isNull {
				return 0, &interp.VirgilError{Name: "!NullCheckException"}
			}

		case opArrNewC, opArrNewO:
			cd := &fn.cold[ins.cold]
			var elem types.Type
			void := false
			if ins.op == opArrNewC {
				elem = cd.typ
				void = ins.k == 1
			} else {
				at := e.subst(cd.typ, env).(*types.Array)
				elem = at.Elem
				void = at.Elem == e.tc.Void()
			}
			var n int
			if a := ins.a; !isRefEnc(a) && kindOf(a) == kInt {
				n = int(int32(s[slotOf(a)]))
			} else {
				n = int(getv(s, r, a).(interp.IntVal))
			}
			if n < 0 {
				return 0, &interp.VirgilError{Name: "!LengthCheckException"}
			}
			if ve := e.charge(interp.ArrayBytes(e.tc, elem, int64(n))); ve != nil {
				return 0, ve
			}
			av := &interp.ArrVal{Elem: elem, Len: n}
			if !void {
				av.Elems = make([]interp.Value, n)
				var d interp.Value
				if ins.op == opArrNewC {
					d = cd.val
				} else {
					d = interp.DefaultValue(e.tc, elem)
				}
				for k := range av.Elems {
					av.Elems[k] = d
				}
			}
			r[slotOf(ins.dst)] = av
		case opArrLoad:
			arr, idx, err := e.arrayArgs(s, r, ins.a, ins.b)
			if err != nil {
				return 0, err
			}
			if ins.dst != regNone {
				var v interp.Value = interp.VoidVal{}
				if arr.Elems != nil {
					v = arr.Elems[idx]
				}
				if err := setv(s, r, ins.dst, v); err != nil {
					return 0, err
				}
			}
		case opArrStore:
			arr, idx, err := e.arrayArgs(s, r, ins.a, ins.b)
			if err != nil {
				return 0, err
			}
			if arr.Elems != nil {
				arr.Elems[idx] = getv(s, r, ins.c)
			}
		case opArrLen:
			arr, ok := getv(s, r, ins.a).(*interp.ArrVal)
			if !ok {
				return 0, &interp.VirgilError{Name: "!NullCheckException"}
			}
			if d := ins.dst; !isRefEnc(d) {
				s[slotOf(d)] = int64(int32(arr.Length()))
			} else {
				r[slotOf(d)] = interp.IntVal(int32(arr.Length()))
			}

		case opGLoadS:
			s[slotOf(ins.dst)] = e.gS[ins.aux]
		case opGLoadR:
			r[slotOf(ins.dst)] = e.gR[ins.aux]
		case opGLoadX:
			var v interp.Value
			if isRefEnc(ins.a) {
				v = e.gR[slotOf(ins.a)]
			} else {
				v = boxKind(kindOf(ins.a), e.gS[slotOf(ins.a)])
			}
			if err := setv(s, r, ins.dst, v); err != nil {
				return 0, err
			}
		case opGStoreS:
			e.gS[ins.aux] = s[slotOf(ins.a)]
		case opGStoreR:
			e.gR[ins.aux] = r[slotOf(ins.a)]
		case opGStoreX:
			v := getv(s, r, ins.b)
			if isRefEnc(ins.a) {
				e.gR[slotOf(ins.a)] = v
			} else if err := unboxInto(e.gS, ins.a, v); err != nil {
				return 0, err
			}

		case opCallF:
			cd := &fn.cold[ins.cold]
			if err := e.callPlanned(cd.fn, cd, s, r, nil, false); err != nil {
				return 0, err
			}
		case opCallB:
			cd := &fn.cold[ins.cold]
			args := e.getV(len(cd.args))
			for k, a := range cd.args {
				args[k] = getv(s, r, a)
			}
			targs := cd.targs
			if ins.open() {
				targs = e.substAll(cd.targs, env)
			}
			n, err := e.enterBoxed(cd.irFn, args, targs)
			e.putV(args)
			if err != nil {
				return 0, err
			}
			if err := e.storeRets(cd.dsts, s, r, n); err != nil {
				return 0, err
			}
		case opCallVirt:
			cd := &fn.cold[ins.cold]
			if err := e.callVirtual(fn, ins, cd, s, r, env); err != nil {
				return 0, err
			}
		case opCallInd:
			cd := &fn.cold[ins.cold]
			if err := e.callIndirect(ins, cd, getv(s, r, ins.a), s, r); err != nil {
				return 0, err
			}
		case opGLoadCallInd:
			cd := &fn.cold[ins.cold]
			if err := e.callIndirect(ins, cd, e.gR[ins.aux], s, r); err != nil {
				return 0, err
			}
		case opCallBuiltin:
			cd := &fn.cold[ins.cold]
			args := e.getV(len(cd.args))
			for k, a := range cd.args {
				args[k] = getv(s, r, a)
			}
			res, err := interp.CallBuiltin(e.out, cd.sval, args, e.stats.Steps)
			e.putV(args)
			if err != nil {
				return 0, err
			}
			if ins.dst != regNone {
				if err := setv(s, r, ins.dst, res); err != nil {
					return 0, err
				}
			}

		case opMakeClosure:
			cd := &fn.cold[ins.cold]
			if !ins.noheap() {
				if ve := e.charge(interp.ClosureBytes); ve != nil {
					return 0, ve
				}
			}
			targs := cd.targs
			var ft types.Type = cd.typ2
			if ins.open() {
				targs = e.substAll(cd.targs, env)
				ft = e.subst(cd.typ2, env)
			}
			fv := &interp.FuncVal{Fn: cd.irFn, TypeArgs: targs}
			if f2, ok := ft.(*types.Func); ok {
				fv.Type = f2
			} else {
				fv.Type = interp.ClosureType(e.tc, cd.irFn, nil, targs)
			}
			r[slotOf(ins.dst)] = fv
		case opMakeBound:
			cd := &fn.cold[ins.cold]
			recv, ok := getv(s, r, ins.a).(*interp.ObjVal)
			if !ok {
				return 0, &interp.VirgilError{Name: "!NullCheckException"}
			}
			if !ins.noheap() {
				if ve := e.charge(interp.ClosureBytes); ve != nil {
					return 0, ve
				}
			}
			target := recv.Class.Vtable[ins.aux]
			targs := cd.targs
			var ft types.Type = cd.typ2
			if ins.open() {
				targs = e.substAll(cd.targs, env)
				ft = e.subst(cd.typ2, env)
			}
			fv := &interp.FuncVal{Fn: target, Recv: recv, HasRecv: true, TypeArgs: targs}
			if f2, ok := ft.(*types.Func); ok {
				fv.Type = f2
			} else {
				fv.Type = interp.ClosureType(e.tc, target, recv, targs)
			}
			r[slotOf(ins.dst)] = fv

		case opConstEnumO:
			cd := &fn.cold[ins.cold]
			et := e.subst(cd.typ, env).(*types.Enum)
			if err := setv(s, r, ins.dst, interp.EnumVal{Def: et.Def, Tag: int(ins.imm)}); err != nil {
				return 0, err
			}
		case opEnumTag:
			ev, ok := getv(s, r, ins.a).(interp.EnumVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: enum.tag of non-enum", fn.name)
			}
			if d := ins.dst; !isRefEnc(d) {
				s[slotOf(d)] = int64(int32(ev.Tag))
			} else {
				r[slotOf(d)] = interp.IntVal(int32(ev.Tag))
			}
		case opEnumName:
			cd := &fn.cold[ins.cold]
			ev, ok := getv(s, r, ins.a).(interp.EnumVal)
			if !ok {
				return 0, fmt.Errorf("interp: %s: enum.name of non-enum", fn.name)
			}
			name := "?"
			if ev.Tag >= 0 && ev.Tag < len(ev.Def.Cases) {
				name = ev.Def.Cases[ev.Tag]
			}
			if ve := e.charge(interp.StringBytes(len(name))); ve != nil {
				return 0, ve
			}
			elems := make([]interp.Value, len(name))
			for k := 0; k < len(name); k++ {
				elems[k] = interp.ByteVal(name[k])
			}
			r[slotOf(ins.dst)] = &interp.ArrVal{Elem: cd.typ, Elems: elems}

		case opCastR:
			cd := &fn.cold[ins.cold]
			to := cd.typ
			if ins.open() {
				to = e.subst(cd.typ, env)
			}
			v, err := interp.EvalCast(e.tc, getv(s, r, ins.a), to)
			if err != nil {
				return 0, err
			}
			if err := setv(s, r, ins.dst, v); err != nil {
				return 0, err
			}
		case opCastIntByte:
			v := int32(s[slotOf(ins.a)])
			if v < 0 || v > 255 {
				return 0, &interp.VirgilError{Name: "!TypeCheckException", Msg: fmt.Sprintf("%d does not fit in byte", v)}
			}
			s[slotOf(ins.dst)] = int64(v)
		case opCastTrap:
			cd := &fn.cold[ins.cold]
			return 0, &interp.VirgilError{Name: cd.sval, Msg: cd.emsg}
		case opQueryR:
			cd := &fn.cold[ins.cold]
			to := cd.typ
			if ins.open() {
				to = e.subst(cd.typ, env)
			}
			res := interp.EvalQuery(e.tc, getv(s, r, ins.a), to)
			if d := ins.dst; !isRefEnc(d) {
				s[slotOf(d)] = b2i(res)
			} else {
				r[slotOf(d)] = interp.BoolVal(res)
			}

		case opThrow:
			cd := &fn.cold[ins.cold]
			return 0, &interp.VirgilError{Name: cd.sval}
		case opFellOff:
			return 0, fmt.Errorf("interp: %s: fell off block b%d", fn.name, ins.aux)
		case opBadOp:
			cd := &fn.cold[ins.cold]
			return 0, cd.xerr
		default:
			return 0, fmt.Errorf("interp: %s: bad bytecode op %d", fn.name, ins.op)
		}
		pc++
	}
}

// runSubs executes a whole fused run in one call. The dispatch switch
// is too big for the Go inliner, so calling per sub-instruction would
// pay a function call each — one call per run amortizes it away. Every
// op here is a total function over the scalar file — no traps, no
// output, no heap — so a run interrupted by the step budget leaves
// nothing observable behind (see fusable in translate.go). Scalar
// global loads and stores qualify: they move values between the scalar
// file and the scalar globals array, trap-free, and a run executes
// atomically with respect to budget checks, so no partial store is
// ever observable. The IntArith error returns are statically
// impossible: Div/Mod never fuse. cold is the function's cold table,
// which holds the boxed constants of opConstR subs.
func runSubs(subs []einstr, cold []coldInstr, s []int64, r []interp.Value, gS []int64) {
	for k := range subs {
		sub := &subs[k]
		switch sub.op {
		case opConstS:
			s[slotOf(sub.dst)] = sub.imm
		case opMoveSS:
			s[slotOf(sub.dst)] = s[slotOf(sub.a)]
		case opConstR:
			r[slotOf(sub.dst)] = cold[sub.cold].val
		case opMoveRR:
			r[slotOf(sub.dst)] = r[slotOf(sub.a)]
		case opGLoadS:
			s[slotOf(sub.dst)] = gS[sub.aux]
		case opGStoreS:
			gS[sub.aux] = s[slotOf(sub.a)]
		case opArithSS:
			s[slotOf(sub.dst)] = int64(subArith(ir.Op(sub.aux), int32(s[slotOf(sub.a)]), int32(s[slotOf(sub.b)])))
		case opArithSI:
			s[slotOf(sub.dst)] = int64(subArith(ir.Op(sub.aux), int32(s[slotOf(sub.a)]), int32(sub.imm)))
		case opNegS:
			s[slotOf(sub.dst)] = int64(-int32(s[slotOf(sub.a)]))
		case opNotS:
			s[slotOf(sub.dst)] = s[slotOf(sub.a)] ^ 1
		case opBoolSS:
			if sub.aux != 0 {
				s[slotOf(sub.dst)] = s[slotOf(sub.a)] | s[slotOf(sub.b)]
			} else {
				s[slotOf(sub.dst)] = s[slotOf(sub.a)] & s[slotOf(sub.b)]
			}
		case opCmpSS:
			s[slotOf(sub.dst)] = b2i(cmpSlots(ir.Op(sub.aux), s[slotOf(sub.a)], s[slotOf(sub.b)]))
		}
	}
}

// subArith is interp.IntArith minus the trapping ops, which never
// fuse. IntArith's dispatch is too costly for the Go inliner (cost 186
// vs budget 80); peeling the three overwhelmingly common ops into an
// inlinable wrapper keeps fused arithmetic call-free on the hot path.
func subArith(op ir.Op, a, b int32) int32 {
	if op == ir.OpAdd {
		return a + b
	}
	return subArithSlow(op, a, b)
}

func subArithSlow(op ir.Op, a, b int32) int32 {
	switch op {
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	}
	v, _ := interp.IntArith(op, a, b)
	return v
}

// arrayArgs mirrors the interpreter's array access checks: null, then
// index type, then bounds.
func (e *Engine) arrayArgs(s []int64, r []interp.Value, aEnc, iEnc uint32) (*interp.ArrVal, int, error) {
	arr, ok := getv(s, r, aEnc).(*interp.ArrVal)
	if !ok {
		return nil, 0, &interp.VirgilError{Name: "!NullCheckException"}
	}
	var idx int
	if !isRefEnc(iEnc) && kindOf(iEnc) == kInt {
		idx = int(int32(s[slotOf(iEnc)]))
	} else {
		iv, ok := getv(s, r, iEnc).(interp.IntVal)
		if !ok {
			return nil, 0, fmt.Errorf("interp: non-int array index")
		}
		idx = int(iv)
	}
	if idx < 0 || idx >= arr.Length() {
		return nil, 0, &interp.VirgilError{Name: "!BoundsCheckException"}
	}
	return arr, idx, nil
}
