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
	// Profile-guided passes (Config.Profile).
	SpecDevirt int // virtual sites given a guarded speculative fast path
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
	// profile for the profile-guided passes: speculative
	// devirtualization of observed-monomorphic virtual sites (guarded,
	// falling through to the original dispatch) and hot inlining with a
	// raised budget. Profiles are advisory: a stale or wrong profile can
	// cost speed, never correctness.
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
	// Profile-guided passes run after the deterministic fold/inline
	// rounds — so the call-site ordinals counted here match the ones the
	// engine assigned when profiling the same optimized IR — and before
	// the final pure-call/promotion phase, which never moves a virtual
	// or indirect site.
	o.pgo()
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
	for r := 0; r < cfg.Rounds; r++ {
		for i, f := range funcs {
			if err := ctx.Err(); err != nil {
				return err
			}
			folded[i] = o.foldFunc(f)
		}
		// Freeze this round's inline candidates. Inlining below reads
		// only these snapshots, so every function and any replay see
		// identical callee bodies regardless of processing order.
		snaps := map[string]*Snapshot{}
		for _, f := range funcs {
			if s := snapshotOf(f, cfg.InlineLimit); s != nil {
				snaps[f.Name] = s
			}
		}
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
	params := map[*ir.Reg]bool{}
	for _, p := range f.Params {
		params[p] = true
	}
	for _, in := range body {
		for _, d := range in.Dst {
			if params[d] {
				return nil
			}
		}
	}
	s := &Snapshot{Params: f.Params, Instrs: make([]*ir.Instr, len(body))}
	for i, in := range body {
		ni := &ir.Instr{
			Op: in.Op, FieldSlot: in.FieldSlot, IVal: in.IVal,
			SVal: in.SVal, Global: in.Global, Fn: in.Fn,
			Type: in.Type, Type2: in.Type2, TypeArgs: in.TypeArgs,
			Pos: in.Pos, StackAlloc: in.StackAlloc,
		}
		ni.Dst = append([]*ir.Reg{}, in.Dst...)
		ni.Args = append([]*ir.Reg{}, in.Args...)
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
	changed := false
	for pass := 0; pass < 4; pass++ {
		defCount := map[*ir.Reg]int{}
		defInstr := map[*ir.Reg]*ir.Instr{}
		for _, p := range f.Params {
			defCount[p] = 1
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, d := range in.Dst {
					defCount[d]++
					defInstr[d] = in
				}
			}
		}
		consts := map[*ir.Reg]constVal{}
		copies := map[*ir.Reg]*ir.Reg{}
		for r, in := range defInstr {
			if defCount[r] != 1 {
				continue
			}
			switch in.Op {
			case ir.OpConstInt, ir.OpConstByte, ir.OpConstBool:
				consts[r] = constVal{op: in.Op, ival: in.IVal}
			case ir.OpConstVoid:
				consts[r] = constVal{op: ir.OpConstVoid}
			case ir.OpMove:
				src := in.Args[0]
				if defCount[src] == 1 {
					copies[r] = src
				}
			}
		}
		// Resolve copy chains.
		resolve := func(r *ir.Reg) *ir.Reg {
			for i := 0; i < 16; i++ {
				if s, ok := copies[r]; ok {
					r = s
				} else {
					break
				}
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
					if def := defInstr[in.Args[0]]; def != nil && defCount[in.Args[0]] == 1 && freshNonNull(def.Op) {
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

func constOf(consts map[*ir.Reg]constVal, r *ir.Reg) (constVal, bool) {
	c, ok := consts[r]
	return c, ok
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
func (o *optimizer) foldInstr(f *ir.Func, blk *ir.Block, idx int, in *ir.Instr, consts map[*ir.Reg]constVal) bool {
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
// truncates instructions after a terminator.
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
	seen := map[*ir.Block]bool{f.Blocks[0]: true}
	work := []*ir.Block{f.Blocks[0]}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		if t := blk.Terminator(); t != nil {
			for _, nb := range t.Blocks {
				if !seen[nb] {
					seen[nb] = true
					work = append(work, nb)
				}
			}
		}
	}
	var kept []*ir.Block
	for _, blk := range f.Blocks {
		if seen[blk] {
			kept = append(kept, blk)
		} else {
			changed = true
		}
	}
	f.Blocks = kept
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
		preds := map[*ir.Block]int{}
		for _, b := range f.Blocks {
			if t := b.Terminator(); t != nil {
				for _, nb := range t.Blocks {
					preds[nb]++
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
			if nb == b || preds[nb] != 1 || nb == f.Blocks[0] {
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
		var kept []*ir.Block
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

// dce removes pure instructions whose destinations are never used.
func (o *optimizer) dce(f *ir.Func) bool {
	changed := false
	for {
		used := map[*ir.Reg]bool{}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				for _, a := range in.Args {
					used[a] = true
				}
			}
		}
		removed := false
		for _, blk := range f.Blocks {
			var kept []*ir.Instr
			for _, in := range blk.Instrs {
				if in.Op == ir.OpNop && len(in.Dst) == 0 {
					removed = true
					o.st.InstrsRemoved++
					continue
				}
				dead := pureOp(in) && len(in.Dst) > 0
				if dead {
					for _, d := range in.Dst {
						if used[d] {
							dead = false
							break
						}
					}
				}
				if dead {
					removed = true
					o.st.InstrsRemoved++
					continue
				}
				kept = append(kept, in)
			}
			blk.Instrs = kept
		}
		if !removed {
			break
		}
		changed = true
	}
	return changed
}

// inlineCalls splices small single-block callees into their callers
// (§3.3: "which the compiler may then inline"). Callee bodies come
// from lookup — the round's frozen snapshots — never from live
// functions, so the result is independent of inlining order.
func (o *optimizer) inlineCalls(f *ir.Func, lookup func(name string) *Snapshot) bool {
	changed := false
	for _, blk := range f.Blocks {
		var out []*ir.Instr
		for _, in := range blk.Instrs {
			var snap *Snapshot
			if in.Op == ir.OpCallStatic && in.Fn != nil && in.Fn.Name != f.Name {
				snap = lookup(in.Fn.Name)
			}
			if snap == nil {
				out = append(out, in)
				continue
			}
			regMap := map[*ir.Reg]*ir.Reg{}
			for k, p := range snap.Params {
				regMap[p] = in.Args[k]
			}
			mapReg := func(r *ir.Reg) *ir.Reg {
				if nr, ok := regMap[r]; ok {
					return nr
				}
				nr := f.NewReg(r.Type, r.Name)
				regMap[r] = nr
				return nr
			}
			body := snap.Instrs
			for _, ci := range body[:len(body)-1] {
				ni := &ir.Instr{
					Op: ci.Op, FieldSlot: ci.FieldSlot, IVal: ci.IVal,
					SVal: ci.SVal, Global: ci.Global, Fn: ci.Fn,
					Type: ci.Type, Type2: ci.Type2, TypeArgs: ci.TypeArgs,
					Pos: ci.Pos, StackAlloc: ci.StackAlloc,
				}
				for _, d := range ci.Dst {
					ni.Dst = append(ni.Dst, mapReg(d))
				}
				for _, a := range ci.Args {
					ni.Args = append(ni.Args, mapReg(a))
				}
				out = append(out, ni)
			}
			ret := body[len(body)-1]
			for k, d := range in.Dst {
				if k < len(ret.Args) {
					out = append(out, &ir.Instr{Op: ir.OpMove, Dst: []*ir.Reg{d}, Args: []*ir.Reg{mapReg(ret.Args[k])}})
				}
			}
			o.st.Inlined++
			changed = true
		}
		blk.Instrs = out
	}
	return changed
}
