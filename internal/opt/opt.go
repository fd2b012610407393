// Package opt implements the classical optimizations the paper relies
// on to make its emulation patterns free (§3.3): after
// monomorphization, type queries and casts between closed types are
// decided statically, the if-chains guarding them fold away, and the
// remaining direct call is inlined — "resulting in code just as
// efficient as if the caller had called the appropriate print* method
// directly".
//
// Passes: constant folding, copy propagation, type-query/cast folding,
// branch folding, unreachable-code elimination, dead-code elimination,
// and a conservative inliner. All passes run to a bounded fixpoint.
package opt

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// Stats reports what the optimizer did.
type Stats struct {
	InstrsBefore   int
	InstrsAfter    int
	QueriesFolded  int
	CastsElided    int
	BranchesFolded int
	InstrsRemoved  int
	Inlined        int
	Devirtualized  int
	// Analysis-driven passes (Config.Analyze).
	DevirtIndirect   int // indirect calls bound to their unique closure target
	PureCallsRemoved int // dead calls to pure functions deleted
	PureCallsCSEd    int // repeated deterministic calls merged
	StackPromoted    int // non-escaping allocations relieved of heap charges
	// Profile-guided pass (Config.Profile).
	HotInlined int // extra inlines paid for by profile heat
}

// Config controls optimization.
type Config struct {
	// InlineLimit is the maximum callee size (in instructions) for
	// inlining; 0 means the default of 16.
	InlineLimit int
	// Rounds bounds the fold/inline fixpoint; 0 means the default of 4.
	Rounds int
	// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
	Jobs int
	// Analyze enables the analysis-driven passes: call-graph
	// devirtualization (including indirect calls through closures),
	// pure-call elimination/CSE, and stack promotion of non-escaping
	// allocations. Off, the optimizer runs only the local folding and
	// inlining passes — the ablation the analysis-off differential
	// tests compile against.
	Analyze bool
	// Profile, when non-nil and non-empty, supplies a runtime execution
	// profile for hot inlining: functions the profile marks hot get a
	// second inlining round with a raised budget. Profiles are advisory:
	// a stale or wrong profile can cost speed, never correctness.
	Profile *profile.Profile
	// Record, when non-nil, captures the per-round inline snapshots and
	// change bits of this optimization, the replay substrate of
	// incremental compilation (core.Store). Recording copies every
	// inline-candidate body once per round and costs nothing else.
	Record *Recording
}

// Snapshot is a frozen copy of an inline-candidate function body taken
// at a round boundary (after folding, before any inlining of that
// round). Inlining splices from snapshots, never from live bodies, so
// one function's optimization trajectory depends only on its own body
// and the round's snapshot set — the property that makes per-function
// incremental replay (OptimizeReplay) byte-identical to a from-scratch
// optimization. Immutable after creation.
type Snapshot struct {
	Params []*ir.Reg
	Instrs []*ir.Instr
	// NumRegs is the function's register count when the snapshot was
	// taken: every register the snapshot mentions has an ID below it, so
	// the inliner sizes its Reg.ID-indexed renaming table by it.
	NumRegs int
}

// RoundRecord is the replay record of one fold/inline round: the
// snapshot of every inline candidate the round's inlining read, and
// the set of functions the round changed (fold or inline). Changed
// stores only true entries.
type RoundRecord struct {
	Snaps   map[string]*Snapshot
	Changed map[string]bool
}

// Recording is the complete replay record of one optimization run.
type Recording struct {
	Rounds []RoundRecord
}

// Optimize runs all passes over the module in place.
//
// Each round folds every function — a pass that reads and writes only
// that function — and then inlines every function from snapshots of
// the round's folded callee bodies.
func Optimize(ctx context.Context, mod *ir.Module, cfg Config) (*Stats, error) {
	if cfg.InlineLimit == 0 {
		cfg.InlineLimit = 16
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 4
	}
	st := &Stats{InstrsBefore: mod.NumInstrs()}
	o := &optimizer{mod: mod, tc: mod.Types, cfg: cfg, st: st}
	if cfg.Analyze {
		// Whole-program facts drive devirtualization and pure-call
		// elimination up front, so the direct calls they expose feed the
		// fold/inline rounds below.
		res, err := o.runAnalysis(ctx)
		if err != nil {
			return st, err
		}
		o.devirtualizeCG(res)
		o.elimPureCalls(res)
	}
	if err := o.rounds(ctx, mod.Funcs, nil); err != nil {
		return st, err
	}
	o.inlineHot()
	if cfg.Analyze {
		// Promote after all transformation: escape facts must describe
		// the final IR. Core re-analyzes once more and ICEs on any mark
		// it cannot re-prove (analysis.VerifyPromotions).
		res, err := o.runAnalysis(ctx)
		if err != nil {
			return st, err
		}
		o.elimPureCalls(res)
		o.promoteAllocations(res)
	}
	st.InstrsAfter = mod.NumInstrs()
	return st, nil
}

type optimizer struct {
	mod *ir.Module
	tc  *types.Cache
	cfg Config
	st  *Stats

	// Scratch tables, reused across functions and passes. Register
	// tables are indexed by Reg.ID and block tables by Block.ID; each
	// use takes table(&buf, n), which keeps the largest buffer seen and
	// returns its first n entries cleared. Two uses of one buffer must
	// never overlap.
	defCount   []int       // foldFunc, elimPureCalls
	defInstr   []*ir.Instr // foldFunc, elimPureCalls
	consts     []constVal  // foldFunc
	copies     []*ir.Reg   // foldFunc
	used       []bool      // dce, elimPureCalls
	regMap     []*ir.Reg   // inlineCalls, by callee Reg.ID
	blockMark  []bool      // removeUnreachable
	blockCount []int       // mergeBlocks
	blockWork  []*ir.Block // removeUnreachable
}

// table returns the first n entries of *buf, cleared, growing *buf
// when it is shorter. The result has length exactly n, so an ID out of
// its function's range still panics on the index.
func table[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	t := (*buf)[:n]
	clear(t)
	return t
}

// round returns the replay record for round r, clamped to the last
// recorded round: a recording that ended early did so because its last
// round changed nothing, so that round's snapshots are the final
// bodies and stay valid for every later round.
func (rec *Recording) round(r int) RoundRecord {
	if r < len(rec.Rounds) {
		return rec.Rounds[r]
	}
	if n := len(rec.Rounds); n > 0 {
		return RoundRecord{Snaps: rec.Rounds[n-1].Snaps}
	}
	return RoundRecord{}
}

// Filter drops recorded entries for functions outside keep, in place.
// Incremental compilation uses it to trim replay records of deleted
// functions, whose stale change bits would otherwise desynchronize a
// later replay's round count from a from-scratch compilation's.
func (rec *Recording) Filter(keep func(name string) bool) {
	for _, rr := range rec.Rounds {
		for n := range rr.Snaps {
			if !keep(n) {
				delete(rr.Snaps, n)
			}
		}
		for n := range rr.Changed {
			if !keep(n) {
				delete(rr.Changed, n)
			}
		}
	}
}

// OptimizeReplay re-optimizes only the dirty functions of a module
// whose clean functions were reused from a previous compilation, using
// that compilation's Recording for the clean functions' per-round
// inline snapshots and change bits. Because inlining reads only round
// snapshots, replaying the dirty subset this way produces bodies
// byte-identical to optimizing the whole module from scratch — clean
// functions never reference dirty ones (or they would be dirty
// themselves), so their recorded trajectories are exactly what a
// from-scratch run would recompute.
//
// Analysis- and profile-driven passes read whole-program state and are
// not replayable; cfg.Analyze and cfg.Profile must be off.
func OptimizeReplay(ctx context.Context, dirty []*ir.Func, tc *types.Cache, cfg Config, base *Recording) (*Stats, error) {
	if cfg.InlineLimit == 0 {
		cfg.InlineLimit = 16
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 4
	}
	if cfg.Analyze || cfg.Profile != nil {
		return nil, fmt.Errorf("opt: replay cannot run analysis- or profile-driven passes")
	}
	st := &Stats{}
	for _, f := range dirty {
		st.InstrsBefore += f.NumInstrs()
	}
	o := &optimizer{tc: tc, cfg: cfg, st: st}
	if err := o.rounds(ctx, dirty, base); err != nil {
		return st, err
	}
	for _, f := range dirty {
		st.InstrsAfter += f.NumInstrs()
	}
	return st, nil
}

// rounds runs the bounded fold/inline fixpoint over funcs. With a nil
// base this is the whole-module optimization; with a non-nil base it
// is an incremental replay where funcs is the dirty subset and base
// supplies the remaining (clean) functions' snapshots and change bits.
// Each round folds every function, snapshots the inline candidates,
// inlines every function from the frozen snapshots, and stops when
// neither the live functions nor the base's recorded round changed
// anything. ctx is checked before each function.
func (o *optimizer) rounds(ctx context.Context, funcs []*ir.Func, base *Recording) error {
	cfg := o.cfg
	live := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		live[f.Name] = true
	}
	folded := make([]bool, len(funcs))
	inlined := make([]bool, len(funcs))
	var prevSnaps map[string]*Snapshot
	for r := 0; r < cfg.Rounds; r++ {
		for i, f := range funcs {
			if err := ctx.Err(); err != nil {
				return err
			}
			folded[i] = o.foldFunc(f)
		}
		// Freeze this round's inline candidates. Inlining below reads
		// only these snapshots, so every function and any replay see
		// identical callee bodies regardless of processing order. A
		// function not inlined into last round (inlined still holds
		// round r-1) and not folded this round has the body it had at
		// last round's snapshot, so it keeps that immutable snapshot —
		// or, not a candidate then, is not one now.
		snaps := make(map[string]*Snapshot, len(prevSnaps))
		for i, f := range funcs {
			if r > 0 && !folded[i] && !inlined[i] {
				if s := prevSnaps[f.Name]; s != nil {
					snaps[f.Name] = s
				}
				continue
			}
			if s := snapshotOf(f, cfg.InlineLimit); s != nil {
				snaps[f.Name] = s
			}
		}
		prevSnaps = snaps
		lookup := func(name string) *Snapshot {
			if live[name] {
				return snaps[name]
			}
			if base != nil {
				return base.round(r).Snaps[name]
			}
			return nil
		}
		changed := false
		for i, f := range funcs {
			if err := ctx.Err(); err != nil {
				return err
			}
			inlined[i] = o.inlineCalls(f, lookup)
			changed = changed || folded[i] || inlined[i]
		}
		baseChanged := false
		if base != nil && r < len(base.Rounds) {
			for n := range base.Rounds[r].Changed {
				if !live[n] {
					baseChanged = true
					break
				}
			}
		}
		if cfg.Record != nil {
			var rec RoundRecord
			if base != nil {
				// Bulk-clone the base round's tables, then evict the live
				// (replayed) names: on the incremental path the dirty set is
				// tiny and the base tables are module-sized, so clone+delete
				// beats inserting the complement entry by entry.
				br := base.round(r)
				rec.Snaps = maps.Clone(br.Snaps)
				if r < len(base.Rounds) {
					rec.Changed = maps.Clone(base.Rounds[r].Changed)
				}
				for n := range live {
					delete(rec.Snaps, n)
					delete(rec.Changed, n)
				}
			}
			if rec.Snaps == nil {
				rec.Snaps = map[string]*Snapshot{}
			}
			if rec.Changed == nil {
				rec.Changed = map[string]bool{}
			}
			for n, s := range snaps {
				rec.Snaps[n] = s
			}
			for i, f := range funcs {
				if folded[i] || inlined[i] {
					rec.Changed[f.Name] = true
				}
			}
			cfg.Record.Rounds = append(cfg.Record.Rounds, rec)
		}
		if !changed && !baseChanged {
			break
		}
	}
	return nil
}

// snapshotOf returns a frozen copy of f's body if f is an inline
// candidate — a small single-block function ending in a return that
// never writes its own parameters — or nil. The instruction objects
// are copied (later rounds fold them in place) but registers are
// shared; splicing allocates fresh caller registers anyway.
func snapshotOf(f *ir.Func, limit int) *Snapshot {
	if len(f.Blocks) != 1 {
		return nil
	}
	body := f.Blocks[0].Instrs
	if len(body) == 0 || len(body) > limit {
		return nil
	}
	if body[len(body)-1].Op != ir.OpRet {
		return nil
	}
	nregs := 0
	for _, in := range body {
		for _, d := range in.Dst {
			if slices.Contains(f.Params, d) {
				return nil
			}
		}
		nregs += len(in.Dst) + len(in.Args)
	}
	// One array holds the copied instructions and one their operand
	// lists; the snapshot is read-only, so they never grow.
	instrs := make([]ir.Instr, len(body))
	regs := make([]*ir.Reg, 0, nregs)
	s := &Snapshot{Params: f.Params, Instrs: make([]*ir.Instr, len(body)), NumRegs: f.NumRegs()}
	for i, in := range body {
		ni := &instrs[i]
		*ni = ir.Instr{
			Op: in.Op, FieldSlot: in.FieldSlot, IVal: in.IVal,
			SVal: in.SVal, Global: in.Global, Fn: in.Fn,
			Type: in.Type, Type2: in.Type2, TypeArgs: in.TypeArgs,
			Pos: in.Pos, StackAlloc: in.StackAlloc,
		}
		regs = append(regs, in.Dst...)
		ni.Dst = regs[len(regs)-len(in.Dst) : len(regs) : len(regs)]
		regs = append(regs, in.Args...)
		ni.Args = regs[len(regs)-len(in.Args) : len(regs) : len(regs)]
		s.Instrs[i] = ni
	}
	return s
}

// constVal is a known compile-time constant.
type constVal struct {
	op   ir.Op // OpConstInt, OpConstByte, OpConstBool, OpConstVoid, OpConstNull
	ival int64
}

// foldFunc runs constant folding, copy propagation, branch folding,
// unreachable-code removal and DCE on one function; reports change.
func (o *optimizer) foldFunc(f *ir.Func) bool {
	// Per-register tables are slices indexed by Reg.ID: IDs are dense
	// in [0, f.NumRegs()), and no pass below allocates registers.
	n := f.NumRegs()
	changed := false
	for pass := 0; pass < 4; pass++ {
		defCount := table(&o.defCount, n)
		defInstr := table(&o.defInstr, n)
		consts := table(&o.consts, n)
		copies := table(&o.copies, n)
		for _, p := range f.Params {
			defCount[p.ID] = 1
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, d := range in.Dst {
					defCount[d.ID]++
					defInstr[d.ID] = in
				}
			}
		}
		for id, in := range defInstr {
			if in == nil || defCount[id] != 1 {
				continue
			}
			switch in.Op {
			case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool:
				consts[id] = constVal{op: in.Op, ival: in.IVal}
			case ir.OpConstVoid:
				consts[id] = constVal{op: ir.OpConstVoid}
			case ir.OpMove:
				src := in.Args[0]
				if defCount[src.ID] == 1 {
					copies[id] = src
				}
			}
		}
		// Resolve copy chains.
		resolve := func(r *ir.Reg) *ir.Reg {
			for i := 0; i < 16; i++ {
				s := copies[r.ID]
				if s == nil {
					break
				}
				r = s
			}
			return r
		}
		localChanged := false
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for k, a := range in.Args {
					if s := resolve(a); s != a {
						in.Args[k] = s
						localChanged = true
					}
				}
			}
		}
		for _, blk := range f.Blocks {
			for idx, in := range blk.Instrs {
				if o.foldInstr(f, blk, idx, in, consts) {
					localChanged = true
				}
				// A null check over a freshly allocated value can never
				// trap; dropping it unpins the allocation for DCE (the
				// devirtualizer inserts these in front of direct calls).
				if in.Op == ir.OpNullCheck {
					if id := in.Args[0].ID; defInstr[id] != nil && defCount[id] == 1 && freshNonNull(defInstr[id].Op) {
						in.Op = ir.OpNop
						in.Args = nil
						localChanged = true
					}
				}
			}
		}
		if o.removeUnreachable(f) {
			localChanged = true
		}
		if o.threadJumps(f) {
			localChanged = true
		}
		if o.mergeBlocks(f) {
			localChanged = true
		}
		if o.dce(f) {
			localChanged = true
		}
		if !localChanged {
			break
		}
		changed = true
	}
	return changed
}

// constOf looks r up in a Reg.ID-indexed constant table. OpNop is the
// zero Op and never a constant, so it marks "not known".
func constOf(consts []constVal, r *ir.Reg) (constVal, bool) {
	c := consts[r.ID]
	return c, c.op != ir.OpNop
}

// freshNonNull reports whether op always produces a non-null value.
func freshNonNull(op ir.Op) bool {
	switch op {
	case ir.OpNewObject, ir.OpMakeTuple, ir.OpMakeClosure, ir.OpMakeBound,
		ir.OpArrayNew, ir.OpConstString:
		return true
	}
	return false
}

// foldInstr rewrites one instruction in place when its result is known
// statically; reports change.
func (o *optimizer) foldInstr(f *ir.Func, blk *ir.Block, idx int, in *ir.Instr, consts []constVal) bool {
	mkConst := func(op ir.Op, v int64) {
		in.Op = op
		in.IVal = v
		in.Args = nil
		in.Type = nil
		in.Type2 = nil
		in.Fn = nil
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor:
		a, ok1 := constOf(consts, in.Args[0])
		b, ok2 := constOf(consts, in.Args[1])
		if !ok1 || !ok2 || a.op != ir.OpConstInt || b.op != ir.OpConstInt {
			return false
		}
		x, y := int32(a.ival), int32(b.ival)
		var v int32
		switch in.Op {
		case ir.OpAdd:
			v = x + y
		case ir.OpSub:
			v = x - y
		case ir.OpMul:
			v = x * y
		case ir.OpShl:
			if y >= 0 && y <= 31 {
				v = x << uint(y)
			}
		case ir.OpShr:
			if y >= 0 && y <= 31 {
				v = int32(uint32(x) >> uint(y))
			}
		case ir.OpAnd:
			v = x & y
		case ir.OpOr:
			v = x | y
		case ir.OpXor:
			v = x ^ y
		}
		mkConst(ir.OpConstInt, int64(v))
		return true
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		a, ok1 := constOf(consts, in.Args[0])
		b, ok2 := constOf(consts, in.Args[1])
		if !ok1 || !ok2 {
			return false
		}
		var v bool
		switch in.Op {
		case ir.OpLt:
			v = a.ival < b.ival
		case ir.OpLe:
			v = a.ival <= b.ival
		case ir.OpGt:
			v = a.ival > b.ival
		case ir.OpGe:
			v = a.ival >= b.ival
		}
		mkConst(ir.OpConstBool, boolToInt(v))
		return true
	case ir.OpEq, ir.OpNe:
		a, ok1 := constOf(consts, in.Args[0])
		b, ok2 := constOf(consts, in.Args[1])
		if !ok1 || !ok2 || a.op != b.op {
			return false
		}
		eq := a.ival == b.ival
		if in.Op == ir.OpNe {
			eq = !eq
		}
		mkConst(ir.OpConstBool, boolToInt(eq))
		return true
	case ir.OpNot:
		a, ok := constOf(consts, in.Args[0])
		if !ok || a.op != ir.OpConstBool {
			return false
		}
		mkConst(ir.OpConstBool, boolToInt(a.ival == 0))
		return true
	case ir.OpBoolAnd, ir.OpBoolOr:
		a, ok1 := constOf(consts, in.Args[0])
		b, ok2 := constOf(consts, in.Args[1])
		if !ok1 || !ok2 {
			return false
		}
		var v bool
		if in.Op == ir.OpBoolAnd {
			v = a.ival != 0 && b.ival != 0
		} else {
			v = a.ival != 0 || b.ival != 0
		}
		mkConst(ir.OpConstBool, boolToInt(v))
		return true

	case ir.OpTypeQuery:
		return o.foldQuery(in)
	case ir.OpTypeCast:
		return o.foldCast(in)

	case ir.OpBranch:
		c, ok := constOf(consts, in.Args[0])
		if !ok || c.op != ir.OpConstBool {
			return false
		}
		target := in.Blocks[1]
		if c.ival != 0 {
			target = in.Blocks[0]
		}
		in.Op = ir.OpJump
		in.Args = nil
		in.Blocks = []*ir.Block{target}
		o.st.BranchesFolded++
		return true
	}
	return false
}

// foldQuery decides a type query statically when possible (§4.3: "The
// type queries and casts in each version can be decided statically").
// Queries against reference types stay dynamic because null fails them.
func (o *optimizer) foldQuery(in *ir.Instr) bool {
	from, to := in.Type2, in.Type
	if from == nil || to == nil || types.HasTypeParams(from) || types.HasTypeParams(to) {
		return false
	}
	fold := func(v bool) bool {
		in.Op = ir.OpConstBool
		in.IVal = boolToInt(v)
		in.Args = nil
		in.Type = nil
		in.Type2 = nil
		o.st.QueriesFolded++
		return true
	}
	fp, fprim := from.(*types.Prim)
	tp, tprim := to.(*types.Prim)
	if fprim && tprim {
		return fold(fp.Kind == tp.Kind)
	}
	if fprim != tprim {
		return fold(false)
	}
	if o.tc.Castable(from, to) == types.CastFalse {
		// Provably unrelated types can never satisfy the query.
		return fold(false)
	}
	return false
}

// foldCast elides casts that are statically guaranteed: identity casts
// and reference upcasts become moves.
func (o *optimizer) foldCast(in *ir.Instr) bool {
	from, to := in.Type2, in.Type
	if from == nil || to == nil || types.HasTypeParams(from) || types.HasTypeParams(to) {
		return false
	}
	if from == to || (types.IsRefType(to) && o.tc.IsSubtype(from, to)) {
		in.Op = ir.OpMove
		in.Type = nil
		in.Type2 = nil
		o.st.CastsElided++
		return true
	}
	return false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// removeUnreachable drops blocks not reachable from the entry, and
// truncates instructions after a terminator. Neither edit writes into
// the old slices.
func (o *optimizer) removeUnreachable(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	changed := false
	for _, blk := range f.Blocks {
		for i, in := range blk.Instrs {
			if in.Op.IsTerminator() && i != len(blk.Instrs)-1 {
				blk.Instrs = blk.Instrs[:i+1]
				changed = true
				break
			}
		}
	}
	seen := table(&o.blockMark, f.NumBlocks())
	seen[f.Blocks[0].ID] = true
	work := append(o.blockWork[:0], f.Blocks[0])
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if t := blk.Terminator(); t != nil {
			for _, nb := range t.Blocks {
				if !seen[nb.ID] {
					seen[nb.ID] = true
					work = append(work, nb)
				}
			}
		}
	}
	o.blockWork = work
	var kept []*ir.Block // nil until the first drop; then a copy
	for i, blk := range f.Blocks {
		if seen[blk.ID] {
			if kept != nil {
				kept = append(kept, blk)
			}
			continue
		}
		if kept == nil {
			kept = append(make([]*ir.Block, 0, len(f.Blocks)-1), f.Blocks[:i]...)
		}
		changed = true
	}
	if kept != nil {
		f.Blocks = kept
	}
	return changed
}

// threadJumps retargets terminators that point at blocks containing
// only a jump.
func (o *optimizer) threadJumps(f *ir.Func) bool {
	changed := false
	for _, blk := range f.Blocks {
		t := blk.Terminator()
		if t == nil {
			continue
		}
		for k, target := range t.Blocks {
			for hops := 0; hops < 8; hops++ {
				if len(target.Instrs) != 1 || target.Instrs[0].Op != ir.OpJump {
					break
				}
				next := target.Instrs[0].Blocks[0]
				if next == target {
					break
				}
				target = next
				t.Blocks[k] = next
				changed = true
			}
		}
	}
	return changed
}

// mergeBlocks splices a block into its unique jumping predecessor, so
// that folded branch chains collapse into straight-line code (and
// become inlinable).
func (o *optimizer) mergeBlocks(f *ir.Func) bool {
	changed := false
	for {
		preds := table(&o.blockCount, f.NumBlocks())
		for _, b := range f.Blocks {
			if t := b.Terminator(); t != nil {
				for _, nb := range t.Blocks {
					preds[nb.ID]++
				}
			}
		}
		merged := false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpJump {
				continue
			}
			nb := t.Blocks[0]
			if nb == b || preds[nb.ID] != 1 || nb == f.Blocks[0] {
				continue
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], nb.Instrs...)
			nb.Instrs = nil
			merged = true
			changed = true
			break
		}
		if !merged {
			break
		}
		kept := make([]*ir.Block, 0, len(f.Blocks)-1)
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
	return changed
}

// pureOp reports whether an instruction can be removed when its results
// are unused.
func pureOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool, ir.OpConstVoid,
		ir.OpConstNull, ir.OpConstString, ir.OpMove,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpShr, ir.OpAnd,
		ir.OpOr, ir.OpXor, ir.OpNeg, ir.OpNot, ir.OpBoolAnd, ir.OpBoolOr,
		ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe,
		ir.OpMakeTuple, ir.OpTupleGet, ir.OpMakeClosure, ir.OpTypeQuery,
		ir.OpGlobalLoad, ir.OpConstEnum, ir.OpEnumTag, ir.OpEnumName:
		return true
	}
	return false
}

// dce removes pure instructions whose destinations are never used. A
// block's instruction slice is replaced by a copy at its first
// removal, never edited in place.
func (o *optimizer) dce(f *ir.Func) bool {
	changed := false
	for {
		used := table(&o.used, f.NumRegs())
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, a := range in.Args {
					used[a.ID] = true
				}
			}
		}
		removed := false
		for _, blk := range f.Blocks {
			var kept []*ir.Instr // nil until the first removal; then a copy
			for i, in := range blk.Instrs {
				if !dead(in, used) {
					if kept != nil {
						kept = append(kept, in)
					}
					continue
				}
				if kept == nil {
					kept = append(make([]*ir.Instr, 0, len(blk.Instrs)-1), blk.Instrs[:i]...)
				}
				removed = true
				o.st.InstrsRemoved++
			}
			if kept != nil {
				blk.Instrs = kept
			}
		}
		if !removed {
			break
		}
		changed = true
	}
	return changed
}

// dead reports whether dce may delete in: a nop with no results, or a
// pure instruction none of whose results is in used (indexed by
// Reg.ID).
func dead(in *ir.Instr, used []bool) bool {
	if in.Op == ir.OpNop && len(in.Dst) == 0 {
		return true
	}
	if !pureOp(in) || len(in.Dst) == 0 {
		return false
	}
	for _, d := range in.Dst {
		if used[d.ID] {
			return false
		}
	}
	return true
}

// inlineCalls splices small single-block callees into their callers
// (§3.3: "which the compiler may then inline"). Callee bodies come
// from lookup — the round's frozen snapshots — never from live
// functions, so the result is independent of inlining order. A block's
// instruction slice is replaced by a copy at its first splice, never
// edited in place.
func (o *optimizer) inlineCalls(f *ir.Func, lookup func(name string) *Snapshot) bool {
	changed := false
	for _, blk := range f.Blocks {
		var out []*ir.Instr // nil until the first splice; then a copy
		for i, in := range blk.Instrs {
			var snap *Snapshot
			if in.Op == ir.OpCallStatic && in.Fn != nil && in.Fn.Name != f.Name {
				snap = lookup(in.Fn.Name)
			}
			if snap == nil {
				if out != nil {
					out = append(out, in)
				}
				continue
			}
			if out == nil {
				out = append(make([]*ir.Instr, 0, len(blk.Instrs)+len(snap.Instrs)), blk.Instrs[:i]...)
			}
			out = o.splice(f, out, in, snap)
			o.st.Inlined++
			changed = true
		}
		if out != nil {
			blk.Instrs = out
		}
	}
	return changed
}

// splice appends to out the inlined body of call site in, whose callee
// is snap: the body's instructions over fresh caller registers, then a
// move of each returned value into the call's destination.
func (o *optimizer) splice(f *ir.Func, out []*ir.Instr, in *ir.Instr, snap *Snapshot) []*ir.Instr {
	// regMap renames callee registers, indexed by callee Reg.ID.
	regMap := table(&o.regMap, snap.NumRegs)
	for k, p := range snap.Params {
		regMap[p.ID] = in.Args[k]
	}
	mapReg := func(r *ir.Reg) *ir.Reg {
		if nr := regMap[r.ID]; nr != nil {
			return nr
		}
		nr := f.NewReg(r.Type, r.Name)
		regMap[r.ID] = nr
		return nr
	}
	body := snap.Instrs
	ret := body[len(body)-1]
	nres := min(len(in.Dst), len(ret.Args))
	// One array holds the new instructions and one their operand lists.
	// Each operand list is capped at its length, so a later append to
	// it reallocates instead of overwriting its neighbour.
	nregs := 2 * nres
	for _, ci := range body[:len(body)-1] {
		nregs += len(ci.Dst) + len(ci.Args)
	}
	instrs := make([]ir.Instr, len(body)-1+nres)
	regs := make([]*ir.Reg, 0, nregs)
	operands := func(rs []*ir.Reg) []*ir.Reg {
		if len(rs) == 0 {
			return nil
		}
		for _, r := range rs {
			regs = append(regs, mapReg(r))
		}
		return regs[len(regs)-len(rs) : len(regs) : len(regs)]
	}
	for k, ci := range body[:len(body)-1] {
		ni := &instrs[k]
		*ni = ir.Instr{
			Op: ci.Op, FieldSlot: ci.FieldSlot, IVal: ci.IVal,
			SVal: ci.SVal, Global: ci.Global, Fn: ci.Fn,
			Type: ci.Type, Type2: ci.Type2, TypeArgs: ci.TypeArgs,
			Pos: ci.Pos, StackAlloc: ci.StackAlloc,
		}
		ni.Dst = operands(ci.Dst)
		ni.Args = operands(ci.Args)
		out = append(out, ni)
	}
	for k := 0; k < nres; k++ {
		mv := &instrs[len(body)-1+k]
		regs = append(regs, in.Dst[k], mapReg(ret.Args[k]))
		n := len(regs)
		*mv = ir.Instr{Op: ir.OpMove, Dst: regs[n-2 : n-1 : n-1], Args: regs[n-1 : n : n]}
		out = append(out, mv)
	}
	return out
}
