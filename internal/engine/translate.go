// Package engine executes post-pipeline IR through a compact register
// bytecode: a translation pass (this file) resolves everything the
// switch interpreter recomputes per step — operand registers become
// dense indices into an unboxed scalar file or a boxed ref file,
// constants and field-default templates are decoded once, hot
// instruction pairs are fused into superinstructions, and dynamic call
// sites get monomorphic inline caches — and a fast evaluator (exec.go)
// runs the result.
//
// The engine is semantically interchangeable with the switch
// interpreter in internal/interp: same output bytes, same traps with
// the same stack traces, same step accounting and Stats, same resource
// guards. Error strings deliberately keep the "interp:" prefix so the
// two engines are differential-test equal; internal/interp remains the
// reference semantics.
package engine

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/src"
	"repro/internal/types"
)

// Register encoding: bit 31 selects the boxed ref file; bits 24..25
// carry the scalar kind; the low 24 bits are the slot index.
const (
	refBit    = uint32(1) << 31
	kindShift = 24
	slotMask  = uint32(1)<<24 - 1

	kInt  = uint32(0)
	kByte = uint32(1)
	kBool = uint32(2)

	// regNone marks an absent destination.
	regNone = ^uint32(0)
)

func isRefEnc(e uint32) bool { return e&refBit != 0 }
func slotOf(e uint32) int    { return int(e & slotMask) }
func kindOf(e uint32) uint32 { return (e >> kindShift) & 3 }
func encScalar(k uint32, slot int) uint32 {
	return k<<kindShift | uint32(slot)
}
func encRef(slot int) uint32 { return refBit | uint32(slot) }

// Bytecode opcodes. S suffixes mean operands live in the scalar file;
// R means the boxed ref file; X handles mixed operand classes at
// runtime. The boxed fallbacks reproduce the switch interpreter's
// behavior (including its error strings) on operands the verifier
// allows to have open types.
const (
	opNop uint8 = iota
	opConstS
	opConstR
	opConstNullO
	opConstStr
	opMoveSS
	opMoveRR
	opMoveBox
	opMoveUnbox
	opArithSS
	opArithSI // fused const+arith superinstruction
	opArithRR
	opNegS
	opNegR
	opNotS
	opNotR
	opBoolSS
	opBoolRR
	opCmpSS
	opCmpRR
	opEqRR
	opBranchS
	opBranchR
	opCmpBrSS // fused compare+branch superinstruction
	opCmpBrSI // fused const+compare+branch superinstruction
	opJump
	opRet0
	opRet
	opMakeTuple
	opTupleGet
	opNewObjC
	opNewObjO
	opFieldLoad
	opFieldStore
	opNullCheck
	opArrNewC
	opArrNewO
	opArrLoad
	opArrStore
	opArrLen
	opGLoadS
	opGLoadR
	opGLoadX
	opGStoreS
	opGStoreR
	opGStoreX
	opCallF // fast static call: pre-planned register moves
	opCallB // boxed static call
	opCallVirt
	opCallInd
	opGLoadCallInd // fused global-load+indirect-call superinstruction
	opCallBuiltin
	opMakeClosure
	opMakeBound
	opConstEnumO
	opEnumTag
	opEnumName
	opCastR
	opCastIntByte
	opCastTrap // cast statically known to fail
	opQueryR
	opFused   // profile-selected run of fused non-trapping scalar ops
	opFusedBr // fused scalar run ending in a conditional branch
	opThrow
	opFellOff
	opBadOp
)

// opFusedBr terminator kinds, carried in einstr.k.
const (
	fbrS  = uint8(0) // opBranchS: branch on a bool slot
	fbrSS = uint8(1) // opCmpBrSS: compare two slots, branch
	fbrSI = uint8(2) // opCmpBrSI: compare slot to immediate, branch
)

// argMove copies one caller register into one callee register; the two
// encodings carry the box/unbox decision.
type argMove struct {
	src, dst uint32
}

// einstr is one bytecode instruction. Payload fields used depend on op.
type einstr struct {
	op      uint8
	nsteps  uint8 // IR instructions this op accounts for (0: opFellOff)
	k       uint8 // scalar kind / flags (opArrNewC: 1 = void element)
	dst     uint32
	a, b, c uint32
	aux     int32 // ir.Op, field/vtable slot, global slot, or block id
	ic      int32
	t1, t2  int32 // branch targets (pc)
	imm     int64
	val     interp.Value
	tmpl    []interp.Value
	fn      *fnCode
	irFn    *ir.Func
	cls     *ir.Class
	typ     types.Type
	typ2    types.Type
	targs   []types.Type
	open    bool // typ/targs mention type parameters; substitute at runtime
	args    []uint32
	dsts    []uint32
	plan    []argMove
	sval    string
	emsg    string
	xerr    error
	pos     src.Pos
	noheap  bool // stack-promoted allocation: skip the modeled heap charge
	// subs is the fused run body of opFused/opFusedBr: non-trapping
	// scalar-register writes executed back-to-back under one step check.
	subs []einstr
}

// fnCode is one translated function.
type fnCode struct {
	irf      *ir.Func
	name     string
	entryPos src.Pos
	regs     []uint32 // encoding per ir register ID
	params   []uint32
	nS, nR   int
	code     []einstr
	hasTP    bool
	idx      int // dense function index (profile counters, pnames)
}

// siteMeta is the static identity of one inline-cache call site: the
// owning function's dense index and the per-function site ordinal the
// profile keys on. slot is the vtable slot of virtual sites.
type siteMeta struct {
	fn       int
	ord      int
	slot     int32
	indirect bool
}

// brMeta is the static identity of one conditional branch. back marks
// a branch with an edge to an already-translated block — a loop edge,
// so its taken counter approximates the trip count.
type brMeta struct {
	fn   int
	ord  int
	back bool
}

// Program is an immutable translated module, shareable across
// concurrently running Engines (per-engine mutable state — globals,
// inline caches, stats — lives in Engine).
type Program struct {
	mod        *ir.Module
	tc         *types.Cache
	fns        map[*ir.Func]*fnCode
	numICs     int
	gEnc       []uint32 // encoding per global index
	nGS, nGR   int
	gRefInit   []interp.Value // default values of ref-class globals
	classByDef map[*types.ClassDef]*ir.Class
	classByTyp map[*types.Class]*ir.Class
	maxRet     int

	// Profile identity: deterministic dense numbering of functions,
	// call sites, and branches, so runtime counters recorded against
	// this program can be exported under stable keys.
	numBranches int
	siteMeta    []siteMeta
	branchMeta  []brMeta
	pnames      []string // profile name per fnCode.idx
	// hotFns gates profile-driven run fusion: only functions the input
	// profile marked hot get fused, so an unprofiled compile of the
	// same module produces byte-identical bytecode to previous releases.
	hotFns map[string]bool
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// scalarKind classifies t: closed prim int/byte/bool live unboxed in
// the scalar file; everything else (refs, tuples, void, open
// type-parameter types) is boxed in the ref file.
func scalarKind(t types.Type) (uint32, bool) {
	p, ok := t.(*types.Prim)
	if !ok {
		return 0, false
	}
	switch p.Kind {
	case types.KindInt:
		return kInt, true
	case types.KindByte:
		return kByte, true
	case types.KindBool:
		return kBool, true
	}
	return 0, false
}

// Hot-function thresholds for profile-driven fusion: a function is
// worth fusing when the profile saw it called this often or burning
// this many steps (tight loops run hot without being re-entered).
const (
	hotMinCalls = profile.DefaultHotCalls
	hotMinSteps = profile.DefaultHotSteps
)

// Compile translates mod to register bytecode. The result is
// deterministic for a given module and safe for concurrent use.
func Compile(mod *ir.Module) *Program { return CompileProfiled(mod, nil) }

// CompileProfiled translates mod with an optional execution profile.
// A nil or empty profile yields exactly Compile's output; a profile
// additionally enables run fusion in the functions it marks hot. The
// profile only ever selects between semantically identical encodings,
// so a stale or mismatched profile cannot change observable behavior.
func CompileProfiled(mod *ir.Module, prof *profile.Profile) *Program {
	p := &Program{
		mod:        mod,
		tc:         mod.Types,
		fns:        make(map[*ir.Func]*fnCode, len(mod.Funcs)),
		classByDef: map[*types.ClassDef]*ir.Class{},
		classByTyp: map[*types.Class]*ir.Class{},
	}
	for _, c := range mod.Classes {
		if mod.Monomorphic {
			p.classByTyp[c.Type] = c
		} else {
			p.classByDef[c.Def] = c
		}
	}
	p.gEnc = make([]uint32, len(mod.Globals))
	for _, g := range mod.Globals {
		if k, ok := scalarKind(g.Type); ok {
			p.gEnc[g.Index] = encScalar(k, p.nGS)
			p.nGS++
		} else {
			p.gEnc[g.Index] = encRef(p.nGR)
			p.gRefInit = append(p.gRefInit, interp.DefaultValue(p.tc, g.Type))
			p.nGR++
		}
	}
	if prof != nil && !prof.Empty() {
		p.hotFns = map[string]bool{}
		for _, name := range prof.HotFuncs(hotMinCalls, hotMinSteps) {
			p.hotFns[name] = true
		}
	}
	// Pass 0: discover every executable function in deterministic
	// order (profile.Walk: module-listed functions, init, main, vtable
	// entries, then anything referenced from an instruction). Profile
	// keys are assigned along this walk, so it is shared with every
	// profile consumer.
	work := profile.Walk(mod)
	names := profile.Names(mod)
	// Pass 1: register classing for every function, so call plans can
	// reference callee parameter slots before bodies are translated.
	p.pnames = make([]string, len(work))
	for i, f := range work {
		fc := newFnCode(f)
		fc.idx = i
		p.fns[f] = fc
		p.pnames[i] = names[f]
	}
	// Pass 2: translate bodies, in worklist order so inline-cache
	// numbering is deterministic.
	for _, f := range work {
		tr := &translator{p: p, f: f, fc: p.fns[f]}
		tr.translate()
	}
	for _, fc := range p.fns {
		if n := len(fc.irf.Results); n > p.maxRet {
			p.maxRet = n
		}
	}
	if p.maxRet < 1 {
		p.maxRet = 1
	}
	return p
}

// newFnCode assigns register classes and slots from the IR types.
func newFnCode(f *ir.Func) *fnCode {
	fc := &fnCode{irf: f, name: f.Name, hasTP: len(f.TypeParams) > 0}
	if len(f.Blocks) > 0 && len(f.Blocks[0].Instrs) > 0 {
		fc.entryPos = f.Blocks[0].Instrs[0].Pos
	}
	fc.regs = make([]uint32, f.NumRegs())
	for i := range fc.regs {
		fc.regs[i] = regNone
	}
	assign := func(r *ir.Reg) {
		if r == nil || fc.regs[r.ID] != regNone {
			return
		}
		if k, ok := scalarKind(r.Type); ok {
			fc.regs[r.ID] = encScalar(k, fc.nS)
			fc.nS++
		} else {
			fc.regs[r.ID] = encRef(fc.nR)
			fc.nR++
		}
	}
	for _, pr := range f.Params {
		assign(pr)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Dst {
				assign(d)
			}
			for _, a := range in.Args {
				assign(a)
			}
		}
	}
	fc.params = make([]uint32, len(f.Params))
	for i, pr := range f.Params {
		fc.params[i] = fc.regs[pr.ID]
	}
	return fc
}

// translator holds per-function translation state.
type translator struct {
	p     *Program
	f     *ir.Func
	fc    *fnCode
	reads map[int]int // register ID -> total read count (fusion safety)
	start map[*ir.Block]int32
	fixes []fixup

	// hot enables profile-driven run fusion for this function; pend is
	// the pending run of fusable instructions merged on emit.
	hot      bool
	pend     []einstr
	nextSite int // per-function call-site ordinal
	nextBr   int // per-function branch ordinal
}

type fixup struct {
	pc    int
	which int // 1 or 2
	blk   *ir.Block
}

func (t *translator) translate() {
	t.hot = t.p.hotFns[t.p.pnames[t.fc.idx]]
	t.reads = map[int]int{}
	for _, b := range t.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				t.reads[a.ID]++
			}
		}
	}
	t.start = map[*ir.Block]int32{}
	if len(t.f.Blocks) == 0 {
		t.emit(einstr{op: opBadOp, nsteps: 1,
			xerr: fmt.Errorf("interp: %s: function has no blocks", t.f.Name)})
		return
	}
	for _, b := range t.f.Blocks {
		t.start[b] = int32(len(t.fc.code))
		t.block(b)
	}
	t.flush()
	for _, fx := range t.fixes {
		pc := t.start[fx.blk]
		if fx.which == 1 {
			t.fc.code[fx.pc].t1 = pc
		} else {
			t.fc.code[fx.pc].t2 = pc
		}
	}
}

// maxFuseRun caps fused run length so summed nsteps stays far inside
// the uint8 step field. minFuse and minFuseBr are the shortest runs
// worth paying the runSubs call for: opFusedBr tolerates a shorter run
// because the branch itself also folds into the superinstruction.
const (
	maxFuseRun = 12
	minFuse    = 2
	minFuseBr  = 2
)

// fusable reports whether in may join a fused run: a non-trapping
// write of scalar registers with no targets, no output, and no heap
// effect. Div/Mod are excluded (IntArith traps on zero); shifts clamp
// and the rest are total, so an unexecuted fused prefix after a
// step-budget stop is unobservable.
func fusable(in *einstr) bool {
	switch in.op {
	case opConstS, opMoveSS, opNegS, opNotS, opBoolSS, opCmpSS, opGLoadS, opGStoreS,
		opConstR, opMoveRR:
		return true
	case opArithSS, opArithSI:
		switch ir.Op(in.aux) {
		case ir.OpDiv, ir.OpMod:
			return false
		}
		return true
	}
	return false
}

// brKind classifies ops a fused run may terminate on: scalar
// conditional branches, which read only scalar slots and cannot trap.
func brKind(op uint8) (uint8, bool) {
	switch op {
	case opBranchS:
		return fbrS, true
	case opCmpBrSS:
		return fbrSS, true
	case opCmpBrSI:
		return fbrSI, true
	}
	return 0, false
}

// emit appends one translated instruction. In profile-hot functions it
// merges runs of fusable instructions on the fly — merge-on-emit, so
// every pc a caller records for branch fixups is final and never
// shifts. Returns the pc of the appended instruction, or -1 when the
// instruction was buffered into a pending run (no caller records pcs
// for fusable ops).
func (t *translator) emit(in einstr) int {
	if t.hot {
		if fusable(&in) {
			t.pend = append(t.pend, in)
			if len(t.pend) >= maxFuseRun {
				t.flush()
			}
			return -1
		}
		if len(t.pend) > 0 {
			if k, ok := brKind(in.op); ok && len(t.pend) >= minFuseBr {
				f := einstr{op: opFusedBr, k: k, nsteps: in.nsteps,
					a: in.a, b: in.b, imm: in.imm, aux: in.aux, ic: in.ic,
					pos: in.pos, subs: t.take()}
				for i := range f.subs {
					f.nsteps += f.subs[i].nsteps
				}
				t.fc.code = append(t.fc.code, f)
				return len(t.fc.code) - 1
			}
			t.flush()
		}
	}
	t.fc.code = append(t.fc.code, in)
	return len(t.fc.code) - 1
}

// take hands over the pending run, resetting the buffer.
func (t *translator) take() []einstr {
	subs := make([]einstr, len(t.pend))
	copy(subs, t.pend)
	t.pend = t.pend[:0]
	return subs
}

// flush emits the pending run as one opFused, or, below the minimum
// profitable length, as the instructions themselves — a short run's
// saved dispatches do not pay for the runSubs call.
func (t *translator) flush() {
	if len(t.pend) == 0 {
		return
	}
	if len(t.pend) < minFuse {
		t.fc.code = append(t.fc.code, t.pend...)
		t.pend = t.pend[:0]
		return
	}
	pos := t.pend[0].pos
	f := einstr{op: opFused, pos: pos, subs: t.take()}
	for i := range f.subs {
		f.nsteps += f.subs[i].nsteps
	}
	t.fc.code = append(t.fc.code, f)
}

func (t *translator) target(pc, which int, blk *ir.Block) {
	t.fixes = append(t.fixes, fixup{pc: pc, which: which, blk: blk})
}

func (t *translator) enc(r *ir.Reg) uint32 {
	if r == nil {
		return regNone
	}
	return t.fc.regs[r.ID]
}

func (t *translator) dst0(in *ir.Instr) uint32 {
	if len(in.Dst) == 0 {
		return regNone
	}
	return t.enc(in.Dst[0])
}

// closed reports whether ty needs no runtime substitution in this
// function: either the function binds no type parameters (the
// interpreter's substitution is the identity there) or the type itself
// is closed.
func (t *translator) closed(ty types.Type) bool {
	if ty == nil || !t.fc.hasTP {
		return true
	}
	return !types.HasTypeParams(ty)
}

func (t *translator) closedAll(ts []types.Type) bool {
	for _, ty := range ts {
		if !t.closed(ty) {
			return false
		}
	}
	return true
}

func isCmp(op ir.Op) bool {
	switch op {
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe:
		return true
	}
	return false
}

func isArith(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

func commutative(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

// sameKindScalars reports whether both regs are scalar-class with equal
// kinds, the precondition for raw-slot comparison.
func (t *translator) sameKindScalars(a, b *ir.Reg) bool {
	ea, eb := t.enc(a), t.enc(b)
	return !isRefEnc(ea) && !isRefEnc(eb) && kindOf(ea) == kindOf(eb)
}

// slotComparable reports whether op on these two regs may use raw-slot
// comparison. Ordering on bools is excluded: the reference compare
// treats non-numeric operands as (0,0), and slot comparison of 0/1
// would disagree.
func (t *translator) slotComparable(op ir.Op, a, b *ir.Reg) bool {
	if !t.sameKindScalars(a, b) {
		return false
	}
	if op == ir.OpEq || op == ir.OpNe {
		return true
	}
	return kindOf(t.enc(a)) != kBool
}

// block translates one basic block, forming superinstructions where a
// hot pair (or triple) is adjacent and the intermediate register has
// exactly one reader. The IR is not SSA, so a fused intermediate write
// may only be elided when its register is never read anywhere else.
func (t *translator) block(b *ir.Block) {
	ins := b.Instrs
	for i := 0; i < len(ins); i++ {
		// const + compare + branch.
		if i+2 < len(ins) && t.fuseCmpBrI(ins[i], ins[i+1], ins[i+2]) {
			i += 2
			continue
		}
		// compare + branch.
		if i+1 < len(ins) && t.fuseCmpBr(ins[i], ins[i+1]) {
			i++
			continue
		}
		// const + arithmetic.
		if i+1 < len(ins) && t.fuseArithI(ins[i], ins[i+1]) {
			i++
			continue
		}
		// global load + indirect call.
		if i+1 < len(ins) && t.fuseLoadCall(ins[i], ins[i+1]) {
			i++
			continue
		}
		t.instr(ins[i])
	}
	if b.Terminator() == nil {
		t.emit(einstr{op: opFellOff, nsteps: 0, aux: int32(b.ID)})
	}
}

// singleRead reports that r's only read in the whole function is the
// one the caller is about to fuse away.
func (t *translator) singleRead(r *ir.Reg) bool { return t.reads[r.ID] == 1 }

func (t *translator) fuseCmpBrI(c, cmp, br *ir.Instr) bool {
	if c.Op != ir.OpConstInt || !isCmp(cmp.Op) || br.Op != ir.OpBranch {
		return false
	}
	if len(c.Dst) != 1 || len(cmp.Args) != 2 || len(cmp.Dst) != 1 || len(br.Args) != 1 {
		return false
	}
	if cmp.Args[1] != c.Dst[0] || !t.singleRead(c.Dst[0]) {
		return false
	}
	if br.Args[0] != cmp.Dst[0] || !t.singleRead(cmp.Dst[0]) {
		return false
	}
	ea := t.enc(cmp.Args[0])
	if isRefEnc(ea) || kindOf(ea) != kInt || isRefEnc(t.enc(cmp.Dst[0])) {
		return false
	}
	pc := t.emit(einstr{op: opCmpBrSI, nsteps: 3, a: ea,
		imm: int64(int32(c.IVal)), aux: int32(cmp.Op), pos: cmp.Pos,
		ic: t.newBr(br.Blocks[0], br.Blocks[1])})
	t.target(pc, 1, br.Blocks[0])
	t.target(pc, 2, br.Blocks[1])
	return true
}

func (t *translator) fuseCmpBr(cmp, br *ir.Instr) bool {
	if !isCmp(cmp.Op) || br.Op != ir.OpBranch {
		return false
	}
	if len(cmp.Args) != 2 || len(cmp.Dst) != 1 || len(br.Args) != 1 {
		return false
	}
	if br.Args[0] != cmp.Dst[0] || !t.singleRead(cmp.Dst[0]) {
		return false
	}
	if !t.slotComparable(cmp.Op, cmp.Args[0], cmp.Args[1]) || isRefEnc(t.enc(cmp.Dst[0])) {
		return false
	}
	pc := t.emit(einstr{op: opCmpBrSS, nsteps: 2, a: t.enc(cmp.Args[0]),
		b: t.enc(cmp.Args[1]), aux: int32(cmp.Op), pos: cmp.Pos,
		ic: t.newBr(br.Blocks[0], br.Blocks[1])})
	t.target(pc, 1, br.Blocks[0])
	t.target(pc, 2, br.Blocks[1])
	return true
}

func (t *translator) fuseArithI(c, ar *ir.Instr) bool {
	if c.Op != ir.OpConstInt || !isArith(ar.Op) {
		return false
	}
	if len(c.Dst) != 1 || len(ar.Args) != 2 || len(ar.Dst) != 1 {
		return false
	}
	var other *ir.Reg
	switch {
	case ar.Args[1] == c.Dst[0]:
		other = ar.Args[0]
	case commutative(ar.Op) && ar.Args[0] == c.Dst[0]:
		other = ar.Args[1]
	default:
		return false
	}
	if other == c.Dst[0] || !t.singleRead(c.Dst[0]) {
		return false
	}
	eo, ed := t.enc(other), t.enc(ar.Dst[0])
	if isRefEnc(eo) || kindOf(eo) != kInt || isRefEnc(ed) {
		return false
	}
	t.emit(einstr{op: opArithSI, nsteps: 2, dst: ed, a: eo,
		imm: int64(int32(c.IVal)), aux: int32(ar.Op), pos: ar.Pos})
	return true
}

func (t *translator) fuseLoadCall(gl, ci *ir.Instr) bool {
	if gl.Op != ir.OpGlobalLoad || ci.Op != ir.OpCallIndirect {
		return false
	}
	if len(gl.Dst) != 1 || len(ci.Args) == 0 || ci.Args[0] != gl.Dst[0] || !t.singleRead(gl.Dst[0]) {
		return false
	}
	// Only ref-class (function-typed) globals can hold closures.
	genc := t.p.gEnc[gl.Global.Index]
	if !isRefEnc(genc) {
		return false
	}
	in := einstr{op: opGLoadCallInd, nsteps: 2, aux: int32(slotOf(genc)),
		ic: t.newIC(true, -1), pos: ci.Pos}
	for _, a := range ci.Args[1:] {
		in.args = append(in.args, t.enc(a))
	}
	for _, d := range ci.Dst {
		in.dsts = append(in.dsts, t.enc(d))
	}
	t.emit(in)
	return true
}

// newIC allocates one inline-cache slot and records the site's stable
// profile identity (owning function, per-function ordinal, kind).
func (t *translator) newIC(indirect bool, slot int32) int32 {
	ic := int32(t.p.numICs)
	t.p.numICs++
	t.p.siteMeta = append(t.p.siteMeta, siteMeta{
		fn: t.fc.idx, ord: t.nextSite, slot: slot, indirect: indirect,
	})
	t.nextSite++
	return ic
}

// newBr allocates one branch-profile slot. A branch whose target block
// was already translated is a loop edge (blocks translate in order).
func (t *translator) newBr(taken, not *ir.Block) int32 {
	idx := int32(t.p.numBranches)
	t.p.numBranches++
	_, backT := t.start[taken]
	_, backN := t.start[not]
	t.p.branchMeta = append(t.p.branchMeta, brMeta{
		fn: t.fc.idx, ord: t.nextBr, back: backT || backN,
	})
	t.nextBr++
	return idx
}

// instr translates one IR instruction to one bytecode instruction.
func (t *translator) instr(in *ir.Instr) {
	e := einstr{nsteps: 1, pos: in.Pos, noheap: in.StackAlloc}
	fname := t.f.Name
	switch in.Op {
	case ir.OpNop:
		e.op = opNop

	case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool:
		d := t.dst0(in)
		var imm int64
		var boxed interp.Value
		switch in.Op {
		case ir.OpConstInt:
			imm, boxed = int64(int32(in.IVal)), interp.IntVal(int32(in.IVal))
		case ir.OpConstByte:
			imm, boxed = int64(byte(in.IVal)), interp.ByteVal(byte(in.IVal))
		default:
			if in.IVal != 0 {
				imm = 1
			}
			boxed = interp.BoolVal(in.IVal != 0)
		}
		if isRefEnc(d) {
			e.op, e.dst, e.val = opConstR, d, boxed
		} else {
			e.op, e.dst, e.imm = opConstS, d, imm
		}
	case ir.OpConstVoid:
		e.op, e.dst, e.val = opConstR, t.dst0(in), interp.VoidVal{}
	case ir.OpConstNull:
		d := t.dst0(in)
		if t.closed(in.Type) {
			v := interp.DefaultValue(t.p.tc, in.Type)
			if isRefEnc(d) {
				e.op, e.dst, e.val = opConstR, d, v
			} else {
				// Closed prim defaults are all zero in slot encoding.
				e.op, e.dst, e.imm = opConstS, d, 0
			}
		} else {
			e.op, e.dst, e.typ = opConstNullO, d, in.Type
		}
	case ir.OpConstString:
		tmpl := make([]interp.Value, len(in.SVal))
		for k := 0; k < len(in.SVal); k++ {
			tmpl[k] = interp.ByteVal(in.SVal[k])
		}
		e.op, e.dst, e.tmpl, e.typ = opConstStr, t.dst0(in), tmpl, t.p.tc.Byte()

	case ir.OpMove:
		d, a := t.dst0(in), t.enc(in.Args[0])
		switch {
		case !isRefEnc(d) && !isRefEnc(a):
			e.op, e.dst, e.a = opMoveSS, d, a
		case isRefEnc(d) && isRefEnc(a):
			e.op, e.dst, e.a = opMoveRR, d, a
		case isRefEnc(d):
			e.op, e.dst, e.a = opMoveBox, d, a
		default:
			e.op, e.dst, e.a = opMoveUnbox, d, a
		}

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor:
		d, a, b := t.dst0(in), t.enc(in.Args[0]), t.enc(in.Args[1])
		e.aux = int32(in.Op)
		if !isRefEnc(d) && !isRefEnc(a) && !isRefEnc(b) && kindOf(a) == kInt && kindOf(b) == kInt {
			e.op, e.dst, e.a, e.b = opArithSS, d, a, b
		} else {
			e.op, e.dst, e.a, e.b = opArithRR, d, a, b
		}
	case ir.OpNeg:
		d, a := t.dst0(in), t.enc(in.Args[0])
		if !isRefEnc(d) && !isRefEnc(a) && kindOf(a) == kInt {
			e.op, e.dst, e.a = opNegS, d, a
		} else {
			e.op, e.dst, e.a = opNegR, d, a
		}
	case ir.OpNot:
		d, a := t.dst0(in), t.enc(in.Args[0])
		if !isRefEnc(d) && !isRefEnc(a) && kindOf(a) == kBool {
			e.op, e.dst, e.a = opNotS, d, a
		} else {
			e.op, e.dst, e.a = opNotR, d, a
		}
	case ir.OpBoolAnd, ir.OpBoolOr:
		d, a, b := t.dst0(in), t.enc(in.Args[0]), t.enc(in.Args[1])
		if in.Op == ir.OpBoolOr {
			e.aux = 1
		}
		if !isRefEnc(d) && !isRefEnc(a) && !isRefEnc(b) && kindOf(a) == kBool && kindOf(b) == kBool {
			e.op, e.dst, e.a, e.b = opBoolSS, d, a, b
		} else {
			e.op, e.dst, e.a, e.b = opBoolRR, d, a, b
		}
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		d, a, b := t.dst0(in), t.enc(in.Args[0]), t.enc(in.Args[1])
		e.aux = int32(in.Op)
		if t.slotComparable(in.Op, in.Args[0], in.Args[1]) && !isRefEnc(d) {
			e.op, e.dst, e.a, e.b = opCmpSS, d, a, b
		} else {
			e.op, e.dst, e.a, e.b = opCmpRR, d, a, b
		}
	case ir.OpEq, ir.OpNe:
		d, a, b := t.dst0(in), t.enc(in.Args[0]), t.enc(in.Args[1])
		e.aux = int32(in.Op)
		switch {
		case t.sameKindScalars(in.Args[0], in.Args[1]) && !isRefEnc(d):
			e.op, e.dst, e.a, e.b = opCmpSS, d, a, b
		case !isRefEnc(a) && !isRefEnc(b) && kindOf(a) != kindOf(b) && !isRefEnc(d):
			// Universal equality on distinct primitive types is
			// statically false (ValueEq compares dynamic kinds first).
			e.op, e.dst = opConstS, d
			if in.Op == ir.OpNe {
				e.imm = 1
			}
		default:
			e.op, e.dst, e.a, e.b = opEqRR, d, a, b
		}

	case ir.OpMakeTuple:
		e.op, e.dst = opMakeTuple, t.dst0(in)
		for _, a := range in.Args {
			e.args = append(e.args, t.enc(a))
		}
	case ir.OpTupleGet:
		e.op, e.dst, e.a, e.aux = opTupleGet, t.dst0(in), t.enc(in.Args[0]), int32(in.FieldSlot)

	case ir.OpNewObject:
		if t.closed(in.Type) {
			ct, ok := in.Type.(*types.Class)
			if !ok {
				e.op, e.nsteps = opBadOp, 1
				e.xerr = fmt.Errorf("interp: %s: new of non-class type %s", fname, in.Type)
				break
			}
			e.op, e.dst, e.targs = opNewObjC, t.dst0(in), ct.Args
			cls, err := t.p.classFor(ct)
			if err != nil {
				e.xerr = err
				break
			}
			e.cls = cls
			tmpl := make([]interp.Value, len(cls.Fields))
			cenv := types.BindParams(cls.Def.TypeParams, ct.Args)
			for k, fd := range cls.Fields {
				tmpl[k] = interp.DefaultValue(t.p.tc, t.p.tc.Subst(fd.Type, cenv))
			}
			e.tmpl = tmpl
		} else {
			e.op, e.dst, e.typ = opNewObjO, t.dst0(in), in.Type
		}
	case ir.OpFieldLoad:
		e.op, e.dst, e.a, e.aux = opFieldLoad, t.dst0(in), t.enc(in.Args[0]), int32(in.FieldSlot)
	case ir.OpFieldStore:
		e.op, e.a, e.b, e.aux = opFieldStore, t.enc(in.Args[0]), t.enc(in.Args[1]), int32(in.FieldSlot)
	case ir.OpNullCheck:
		if isRefEnc(t.enc(in.Args[0])) {
			e.op, e.a = opNullCheck, t.enc(in.Args[0])
		} else {
			e.op = opNop // scalars are never null
		}

	case ir.OpArrayNew:
		if t.closed(in.Type) {
			at, ok := in.Type.(*types.Array)
			if !ok {
				e.op = opBadOp
				e.xerr = fmt.Errorf("interp: %s: array.new of non-array type %s", fname, in.Type)
				break
			}
			e.op, e.dst, e.a, e.typ = opArrNewC, t.dst0(in), t.enc(in.Args[0]), at.Elem
			if at.Elem == t.p.tc.Void() {
				e.k = 1
			} else {
				e.val = interp.DefaultValue(t.p.tc, at.Elem)
			}
		} else {
			e.op, e.dst, e.a, e.typ = opArrNewO, t.dst0(in), t.enc(in.Args[0]), in.Type
		}
	case ir.OpArrayLoad:
		e.op, e.dst, e.a, e.b = opArrLoad, t.dst0(in), t.enc(in.Args[0]), t.enc(in.Args[1])
	case ir.OpArrayStore:
		e.op, e.a, e.b, e.c = opArrStore, t.enc(in.Args[0]), t.enc(in.Args[1]), t.enc(in.Args[2])
	case ir.OpArrayLen:
		e.op, e.dst, e.a = opArrLen, t.dst0(in), t.enc(in.Args[0])

	case ir.OpGlobalLoad:
		g, d := t.p.gEnc[in.Global.Index], t.dst0(in)
		switch {
		case !isRefEnc(g) && !isRefEnc(d):
			e.op, e.dst, e.aux = opGLoadS, d, int32(slotOf(g))
		case isRefEnc(g) && isRefEnc(d):
			e.op, e.dst, e.aux = opGLoadR, d, int32(slotOf(g))
		default:
			e.op, e.dst, e.a = opGLoadX, d, g
		}
	case ir.OpGlobalStore:
		g, a := t.p.gEnc[in.Global.Index], t.enc(in.Args[0])
		switch {
		case !isRefEnc(g) && !isRefEnc(a):
			e.op, e.a, e.aux = opGStoreS, a, int32(slotOf(g))
		case isRefEnc(g) && isRefEnc(a):
			e.op, e.a, e.aux = opGStoreR, a, int32(slotOf(g))
		default:
			e.op, e.a, e.b = opGStoreX, g, a
		}

	case ir.OpCallStatic:
		callee := t.p.fns[in.Fn]
		e.irFn, e.fn = in.Fn, callee
		e.targs = in.TypeArgs
		e.open = !t.closedAll(in.TypeArgs)
		for _, d := range in.Dst {
			e.dsts = append(e.dsts, t.enc(d))
		}
		if callee != nil && !callee.hasTP && len(in.Args) == len(in.Fn.Params) {
			e.op = opCallF
			for k, a := range in.Args {
				e.plan = append(e.plan, argMove{src: t.enc(a), dst: callee.params[k]})
			}
		} else {
			e.op = opCallB
			for _, a := range in.Args {
				e.args = append(e.args, t.enc(a))
			}
		}
	case ir.OpCallVirtual:
		e.op, e.aux, e.ic = opCallVirt, int32(in.FieldSlot), t.newIC(false, int32(in.FieldSlot))
		e.targs = in.TypeArgs
		e.open = !t.closedAll(in.TypeArgs)
		for _, a := range in.Args {
			e.args = append(e.args, t.enc(a))
		}
		for _, d := range in.Dst {
			e.dsts = append(e.dsts, t.enc(d))
		}
	case ir.OpCallIndirect:
		e.op, e.ic = opCallInd, t.newIC(true, -1)
		e.a = t.enc(in.Args[0])
		for _, a := range in.Args[1:] {
			e.args = append(e.args, t.enc(a))
		}
		for _, d := range in.Dst {
			e.dsts = append(e.dsts, t.enc(d))
		}
	case ir.OpCallBuiltin:
		e.op, e.sval, e.dst = opCallBuiltin, in.SVal, t.dst0(in)
		for _, a := range in.Args {
			e.args = append(e.args, t.enc(a))
		}

	case ir.OpMakeClosure:
		e.op, e.dst, e.irFn = opMakeClosure, t.dst0(in), in.Fn
		e.targs, e.typ2 = in.TypeArgs, in.Type2
		e.open = !t.closedAll(in.TypeArgs) || !t.closed(in.Type2)
	case ir.OpMakeBound:
		e.op, e.dst, e.a, e.aux = opMakeBound, t.dst0(in), t.enc(in.Args[0]), int32(in.FieldSlot)
		e.targs, e.typ2 = in.TypeArgs, in.Type2
		e.open = !t.closedAll(in.TypeArgs) || !t.closed(in.Type2)

	case ir.OpConstEnum:
		if t.closed(in.Type) {
			et, ok := in.Type.(*types.Enum)
			if !ok {
				e.op = opBadOp
				e.xerr = fmt.Errorf("interp: %s: const.enum of non-enum type %s", fname, in.Type)
				break
			}
			e.op, e.dst = opConstR, t.dst0(in)
			e.val = interp.EnumVal{Def: et.Def, Tag: int(in.IVal)}
		} else {
			e.op, e.dst, e.typ, e.imm = opConstEnumO, t.dst0(in), in.Type, in.IVal
		}
	case ir.OpEnumTag:
		e.op, e.dst, e.a = opEnumTag, t.dst0(in), t.enc(in.Args[0])
	case ir.OpEnumName:
		e.op, e.dst, e.a, e.typ = opEnumName, t.dst0(in), t.enc(in.Args[0]), t.p.tc.Byte()

	case ir.OpTypeCast:
		t.cast(in, &e)
	case ir.OpTypeQuery:
		d, a := t.dst0(in), t.enc(in.Args[0])
		if t.closed(in.Type) && !isRefEnc(a) {
			// A scalar operand's dynamic type is its static type, so the
			// query folds to a constant.
			res := t.p.tc.IsSubtype(primOf(t.p.tc, kindOf(a)), in.Type)
			e.op, e.dst = opConstS, d
			if res {
				e.imm = 1
			}
			if isRefEnc(d) {
				e.op, e.val = opConstR, interp.BoolVal(res)
			}
		} else {
			e.op, e.dst, e.a, e.typ = opQueryR, d, a, in.Type
			e.open = !t.closed(in.Type)
		}

	case ir.OpRet:
		if len(in.Args) == 0 {
			e.op = opRet0
		} else {
			e.op = opRet
			for _, a := range in.Args {
				e.args = append(e.args, t.enc(a))
			}
			if len(e.args) > t.p.maxRet {
				t.p.maxRet = len(e.args)
			}
		}
	case ir.OpJump:
		e.op = opJump
		pc := t.emit(e)
		t.target(pc, 1, in.Blocks[0])
		return
	case ir.OpBranch:
		a := t.enc(in.Args[0])
		if !isRefEnc(a) && kindOf(a) == kBool {
			e.op, e.a = opBranchS, a
		} else {
			e.op, e.a = opBranchR, a
		}
		e.ic = t.newBr(in.Blocks[0], in.Blocks[1])
		pc := t.emit(e)
		t.target(pc, 1, in.Blocks[0])
		t.target(pc, 2, in.Blocks[1])
		return
	case ir.OpThrow:
		e.op, e.sval = opThrow, in.SVal

	default:
		e.op = opBadOp
		e.xerr = fmt.Errorf("interp: %s: unhandled op %s", fname, in.Op)
	}
	t.emit(e)
}

// primOf maps a scalar kind back to its type.
func primOf(tc *types.Cache, k uint32) types.Type {
	switch k {
	case kByte:
		return tc.Byte()
	case kBool:
		return tc.Bool()
	}
	return tc.Int()
}

// cast translates OpTypeCast, folding casts whose outcome is decided by
// the operand's static scalar type (the paper's "statically-decided
// casts") and keeping the generic EvalCast path otherwise.
func (t *translator) cast(in *ir.Instr, e *einstr) {
	d, a := t.dst0(in), t.enc(in.Args[0])
	to := in.Type
	if !t.closed(to) || isRefEnc(a) {
		e.op, e.dst, e.a, e.typ = opCastR, d, a, to
		e.open = !t.closed(to)
		return
	}
	sk := kindOf(a)
	if p, ok := to.(*types.Prim); ok {
		switch {
		case p.Kind == types.KindInt && sk == kInt,
			p.Kind == types.KindByte && sk == kByte,
			p.Kind == types.KindBool && sk == kBool:
			e.op, e.dst, e.a = opMoveSS, d, a
			return
		case p.Kind == types.KindInt && sk == kByte:
			e.op, e.dst, e.a = opMoveSS, d, a // widen: byte slots are valid ints
			return
		case p.Kind == types.KindByte && sk == kInt:
			e.op, e.dst, e.a = opCastIntByte, d, a
			return
		}
		e.op = opCastTrap
		e.sval, e.emsg = "!TypeCheckException", "cannot cast to "+to.String()
		return
	}
	if _, ok := to.(*types.Tuple); ok {
		e.op = opCastTrap
		e.sval, e.emsg = "!TypeCheckException", "cannot cast to "+to.String()
		return
	}
	from := primOf(t.p.tc, sk)
	if t.p.tc.IsSubtype(from, to) {
		e.op, e.dst, e.a = opMoveBox, d, a
		return
	}
	e.op = opCastTrap
	e.sval = "!TypeCheckException"
	e.emsg = fmt.Sprintf("%s is not a %s", from, to)
}

// classFor resolves a closed class type to its IR class, with the
// interpreter's error strings.
func (p *Program) classFor(ct *types.Class) (*ir.Class, error) {
	if p.mod.Monomorphic {
		if c, ok := p.classByTyp[ct]; ok {
			return c, nil
		}
		return nil, fmt.Errorf("interp: no specialized class for %s", ct)
	}
	if c, ok := p.classByDef[ct.Def]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("interp: unknown class %s", ct)
}
