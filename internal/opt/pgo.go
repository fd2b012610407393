package opt

import (
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/types"
)

// The profile-guided passes. A runtime profile (package profile) names
// functions, inline-cache call sites, and branches by deterministic
// per-function ordinals, so a profile recorded by one process can steer
// a fresh compilation of the same source in another. Profiles are
// advisory by construction: every fact is either re-proven against the
// module or guarded at runtime, so a stale or adversarially wrong
// profile can cost speed, never correctness.
//
// Two passes run when Config.Profile is set:
//
//   - speculative devirtualization: a virtual call site the profile saw
//     dispatch overwhelmingly to one receiver class C splits into a
//     guarded fast path — "if recv is-a C, call C's method directly,
//     else fall through to the original dynamic dispatch". The guard is
//     an ordinary type query, the fall-through arm is the original
//     OpCallVirtual, so semantics are byte-identical on every receiver
//     (including null, which fails the query and reaches the virtual
//     call's own null check). There is no deoptimization machinery to
//     get wrong: a missed guard is just the slow path.
//
//   - hot inlining: functions the profile marks hot get a second
//     inlining round with a raised size budget, so the speculative
//     direct calls (and any other calls the conservative first rounds
//     declined) can splice in where the time is actually spent.
//
// Indirect call sites are profiled but never speculated: the IR has no
// closure-identity test to guard them with, and inventing one would add
// an opcode both engines must model. The call graph's unique-target
// devirtualization (devirtualizeCG) already binds the provable cases.

// hotInlineLimit is the raised callee-size budget for functions the
// profile marks hot: four times the default conservative limit.
const hotInlineLimit = 64

// pgo runs the profile-guided passes. Called after the fold/inline
// rounds so the ordinals counted here match the ordinals the engine
// assigned when it profiled the same deterministically-optimized IR,
// and before the final pure-call/promotion phase (which never moves a
// virtual or indirect call site).
func (o *optimizer) pgo() {
	prof := o.cfg.Profile
	if prof == nil || prof.Empty() || !o.mod.Monomorphic || !o.mod.Normalized {
		return
	}
	fns, pnames := profile.Walk(o.mod)
	names := make(map[*ir.Func]string, len(fns))
	for i, f := range fns {
		names[f] = pnames[i]
	}
	funcSet := make(map[*ir.Func]bool, len(o.mod.Funcs))
	for _, f := range o.mod.Funcs {
		funcSet[f] = true
	}
	for _, f := range o.mod.Funcs {
		if pf := prof.Funcs[names[f]]; pf != nil {
			o.specDevirt(f, pf, funcSet)
		}
	}
	o.inlineHot(prof, names)
}

// specDevirt gives every profitable monomorphic virtual site in f a
// guarded speculative fast path. Site ordinals are counted on the
// unmodified function first — rewrites insert new blocks and clone
// nothing, so a single pre-pass scan pins down every candidate before
// the CFG changes under it.
func (o *optimizer) specDevirt(f *ir.Func, pf *profile.Func, funcSet map[*ir.Func]bool) {
	type cand struct {
		in     *ir.Instr
		cls    *ir.Class
		target *ir.Func
	}
	var cands []cand
	ord := 0
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.OpCallVirtual:
				if site := pf.SiteAt(ord); site.Monomorphic() && site.Kind == profile.SiteVirtual {
					if cls, target, ok := o.speculable(in, site, funcSet); ok {
						cands = append(cands, cand{in, cls, target})
					}
				}
				ord++
			case ir.OpCallIndirect:
				// Counted (the engine numbers these sites too) but never
				// speculated: no closure-identity guard exists in the IR.
				ord++
			}
		}
	}
	for _, c := range cands {
		o.applySpecDevirt(f, c.in, c.cls, c.target)
	}
}

// speculable re-proves a profile site fact against the module: the
// observed class must exist and still resolve the slot to the observed
// callee, every instantiated subclass that would pass the subtype guard
// must dispatch to the same target, and the direct call must satisfy
// exactly the signature rules the verifier enforces for OpCallStatic.
// Any mismatch — a stale profile, a renamed class, shifted ordinals —
// skips the site.
func (o *optimizer) speculable(in *ir.Instr, site *profile.Site, funcSet map[*ir.Func]bool) (*ir.Class, *ir.Func, bool) {
	cls := o.classByName(site.Class)
	if cls == nil || cls.Type == nil {
		return nil, nil, false
	}
	slot := in.FieldSlot
	if slot < 0 || slot >= len(cls.Vtable) {
		return nil, nil, false
	}
	target := cls.Vtable[slot]
	if target == nil || target.Name != site.Callee || !funcSet[target] {
		return nil, nil, false
	}
	if len(target.TypeParams) > 0 || len(in.TypeArgs) > 0 {
		return nil, nil, false
	}
	if len(in.Args) == 0 || len(in.Args) != len(target.Params) {
		return nil, nil, false
	}
	// The guard is a subtype query, so any instantiated subclass of cls
	// passes it; all of them must resolve the slot to the same target.
	for _, d := range o.mod.Classes {
		if d.IsSubclassOf(cls) && (slot >= len(d.Vtable) || d.Vtable[slot] != target) {
			return nil, nil, false
		}
	}
	// The fast arm casts the receiver to cls and calls target directly;
	// everything must line up under the verifier's assignability rules.
	if !o.assignableTo(cls.Type, target.Params[0].Type) {
		return nil, nil, false
	}
	for i := 1; i < len(in.Args); i++ {
		if !o.assignableTo(in.Args[i].Type, target.Params[i].Type) {
			return nil, nil, false
		}
	}
	if len(in.Dst) != len(target.Results) {
		return nil, nil, false
	}
	for i, r := range target.Results {
		if !o.assignableTo(r, in.Dst[i].Type) {
			return nil, nil, false
		}
	}
	return cls, target, true
}

// applySpecDevirt splits the site's block around the call:
//
//	B:    ...pre...                     B:    ...pre...
//	      dst = call.virtual #s recv →        q = query recv is-a C
//	      ...post...                          branch q fast slow
//	                                    fast: rc = cast recv to C
//	                                          dst = call C.m rc ...
//	                                          jump cont
//	                                    slow: dst = call.virtual #s recv
//	                                          jump cont
//	                                    cont: ...post...
//
// The slow arm reuses the original instruction, so the fall-through
// behavior (dispatch, null check, trap positions) is untouched.
func (o *optimizer) applySpecDevirt(f *ir.Func, in *ir.Instr, cls *ir.Class, target *ir.Func) {
	var blk *ir.Block
	idx := -1
	for _, b := range f.Blocks {
		for i, bi := range b.Instrs {
			if bi == in {
				blk, idx = b, i
				break
			}
		}
		if blk != nil {
			break
		}
	}
	if blk == nil {
		return
	}
	post := append([]*ir.Instr(nil), blk.Instrs[idx+1:]...)
	cont := f.NewBlock()
	cont.Instrs = post
	fast := f.NewBlock()
	slow := f.NewBlock()
	recv := in.Args[0]
	q := f.NewReg(o.tc.Bool(), "spec")
	blk.Instrs = append(blk.Instrs[:idx:idx],
		&ir.Instr{Op: ir.OpTypeQuery, Dst: []*ir.Reg{q}, Args: []*ir.Reg{recv},
			Type: cls.Type, Type2: recv.Type, Pos: in.Pos},
		&ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{q},
			Blocks: []*ir.Block{fast, slow}, Pos: in.Pos})
	rc := f.NewReg(cls.Type, recv.Name)
	args := append([]*ir.Reg{rc}, in.Args[1:]...)
	fast.Instrs = []*ir.Instr{
		{Op: ir.OpTypeCast, Dst: []*ir.Reg{rc}, Args: []*ir.Reg{recv},
			Type: cls.Type, Type2: recv.Type, Pos: in.Pos},
		{Op: ir.OpCallStatic, Dst: append([]*ir.Reg(nil), in.Dst...), Fn: target, Args: args, Pos: in.Pos},
		{Op: ir.OpJump, Blocks: []*ir.Block{cont}, Pos: in.Pos},
	}
	slow.Instrs = []*ir.Instr{
		in,
		{Op: ir.OpJump, Blocks: []*ir.Block{cont}, Pos: in.Pos},
	}
	o.st.SpecDevirt++
}

// inlineHot spends a raised inlining budget on the functions the
// profile marks hot, then folds them to clean up the splices. The fold
// statistics merge into the main Stats; the extra inlines are counted
// separately as HotInlined.
func (o *optimizer) inlineHot(prof *profile.Profile, names map[*ir.Func]string) {
	hotNames := map[string]bool{}
	for _, name := range prof.HotFuncs(profile.DefaultHotCalls, profile.DefaultHotSteps) {
		hotNames[name] = true
	}
	var hot []*ir.Func
	for _, f := range o.mod.Funcs {
		if hotNames[names[f]] {
			hot = append(hot, f)
		}
	}
	if len(hot) == 0 {
		return
	}
	hs := &Stats{}
	ho := &optimizer{mod: o.mod, tc: o.tc, cfg: o.cfg, st: hs}
	ho.cfg.InlineLimit = hotInlineLimit
	for round := 0; round < 2; round++ {
		// Hot inlining reads round-frozen snapshots like the main
		// rounds, built here over the whole module since hot callers
		// may inline any callee.
		snaps := map[string]*Snapshot{}
		for _, f := range o.mod.Funcs {
			if s := snapshotOf(f, hotInlineLimit); s != nil {
				snaps[f.Name] = s
			}
		}
		lookup := func(name string) *Snapshot { return snaps[name] }
		changed := false
		for _, f := range hot {
			if ho.inlineCalls(f, lookup) {
				changed = true
			}
		}
		for _, f := range hot {
			ho.foldFunc(f)
		}
		if !changed {
			break
		}
	}
	o.st.HotInlined += hs.Inlined
	o.st.QueriesFolded += hs.QueriesFolded
	o.st.CastsElided += hs.CastsElided
	o.st.BranchesFolded += hs.BranchesFolded
	o.st.InstrsRemoved += hs.InstrsRemoved
}

// classByName resolves a profile's class name against the module's
// materialized classes; an ambiguous name resolves to nothing rather
// than guessing between instantiations.
func (o *optimizer) classByName(name string) *ir.Class {
	if name == "" {
		return nil
	}
	var found *ir.Class
	for _, c := range o.mod.Classes {
		if c.Name == name {
			if found != nil {
				return nil
			}
			found = c
		}
	}
	return found
}

// assignableTo mirrors the verifier's compatibility relation on the
// closed types of a monomorphic module.
func (o *optimizer) assignableTo(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	return from == to || o.tc.IsSubtype(from, to)
}
