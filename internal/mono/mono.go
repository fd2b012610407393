// Package mono implements whole-program monomorphization (§4.3): a
// specialized version of each polymorphic class and method is generated
// for each distinct assignment of type arguments to type parameters.
// After this pass no type parameters appear anywhere in the program, so
// casts and queries involving former type parameters become decidable
// statically (the optimizer then folds them, §3.3) and normalization can
// flatten every tuple (§4.2).
//
// Generic virtual methods (k3: Matcher.add<T>) are handled by giving
// each (vtable slot, method type arguments) combination its own slot in
// the specialized vtables of the hierarchy.
package mono

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/types"
)

// FuncExpansion records per-source-function code growth (E4).
type FuncExpansion struct {
	Name         string
	Instances    int
	InstrsBefore int
	InstrsAfter  int
}

// Stats summarizes specialization, the statistic the paper reports
// tracking continually (§6.1).
type Stats struct {
	FuncsBefore   int
	FuncsAfter    int
	InstrsBefore  int
	InstrsAfter   int
	ClassesBefore int
	ClassesAfter  int
	PerFunc       []FuncExpansion
}

// ExpansionFactor returns the instruction-count growth ratio.
func (s *Stats) ExpansionFactor() float64 {
	if s.InstrsBefore == 0 {
		return 1
	}
	return float64(s.InstrsAfter) / float64(s.InstrsBefore)
}

// Config controls monomorphization.
type Config struct {
	// MaxInstances bounds the number of specializations of one function;
	// exceeding it indicates polymorphic recursion, which Virgil
	// disallows (§4.3). 0 means the default of 10000.
	MaxInstances int
	// Deprecated: ignored; the pipeline is sequential. Kept only so perfbench builds.
	Jobs int
	// SkipBody, when non-nil, suppresses the body copy of specialized
	// functions it reports true for. It receives the output instance
	// name and the lowered source function's name it specializes — the
	// names are related but not mechanically derivable (source names may
	// themselves contain '<', e.g. operator wrappers). The discovery
	// fixpoint still runs in full — the instance set, vtable layouts,
	// and function order are unaffected — but skipped functions come
	// out with declarations only. Incremental compilation uses this to
	// avoid copying bodies it will replace with cached artifacts.
	SkipBody func(dstName, srcName string) bool
}

type funcKey struct {
	f   *ir.Func
	key string
}

type classKey struct {
	def *types.ClassDef
	key string
}

type vtEntry struct {
	origSlot int
	margs    []types.Type
	newSlot  int
}

// hierarchy tracks specialized vtable layout for one class hierarchy
// (rooted at a parentless class).
type hierarchy struct {
	entries   []vtEntry
	slotOf    map[string]int
	instances []*ir.Class
}

type monomorphizer struct {
	in  *ir.Module
	out *ir.Module
	tc  *types.Cache
	cfg Config

	funcInst  map[funcKey]*ir.Func
	classInst map[classKey]*ir.Class
	perFunc   map[*ir.Func]int // instance count per source func
	origByDef map[*types.ClassDef]*ir.Class
	hiers     map[*types.ClassDef]*hierarchy
	work      []func() error
	plans     []*bodyPlan
	err       error
}

// bodyPlan is one specialized function body scheduled for copying. The
// sequential discovery fixpoint (planBody) resolves everything that
// touches shared monomorphizer state — call targets, vtable slots,
// class instances — and records the per-instruction resolutions here,
// in traversal order; copyBody then rebuilds the body from the plan
// without consulting the monomorphizer's maps, so a copy can be skipped
// (Config.SkipBody) without disturbing any other function.
type bodyPlan struct {
	src, dst *ir.Func
	env      map[*types.TypeParamDef]types.Type
	// fns are the specialized targets of OpCallStatic/OpMakeClosure
	// instructions, in block/instruction order.
	fns []*ir.Func
	// slots are the specialized vtable slots of OpCallVirtual/OpMakeBound
	// instructions, in block/instruction order.
	slots []int
}

// Monomorphize specializes mod into a new, fully monomorphic module.
func Monomorphize(ctx context.Context, mod *ir.Module, cfg Config) (*ir.Module, *Stats, error) {
	if mod.Monomorphic {
		return mod, &Stats{}, nil
	}
	if cfg.MaxInstances == 0 {
		cfg.MaxInstances = 10000
	}
	m := &monomorphizer{
		in:  mod,
		tc:  mod.Types,
		cfg: cfg,
		out: &ir.Module{
			Types:       mod.Types,
			Globals:     mod.Globals,
			Monomorphic: true,
		},
		funcInst:  map[funcKey]*ir.Func{},
		classInst: map[classKey]*ir.Class{},
		perFunc:   map[*ir.Func]int{},
		origByDef: map[*types.ClassDef]*ir.Class{},
		hiers:     map[*types.ClassDef]*hierarchy{},
	}
	for _, c := range mod.Classes {
		m.origByDef[c.Def] = c
	}
	if mod.Init != nil {
		m.out.Init = m.instance(mod.Init, nil)
	}
	if mod.Main != nil {
		m.out.Main = m.instance(mod.Main, nil)
	}
	// Drain the worklist: vtable fills may create new instances and new
	// vtable entries. This fixpoint is the whole-program barrier — it
	// fixes the identity and order of every output function and class.
	// It is also the stage's longest sequential stretch, so it polls ctx
	// every few items to stay cancellable on explosive instantiations.
	for drained := 0; len(m.work) > 0 && m.err == nil; drained++ {
		if drained&0x3F == 0 && ctx.Err() != nil {
			m.err = ctx.Err()
			break
		}
		w := m.work[0]
		m.work = m.work[1:]
		if err := w(); err != nil {
			m.err = err
		}
	}
	if m.err != nil {
		return nil, nil, m.err
	}
	// Copy the planned bodies; every cross-function fact was resolved
	// during the fixpoint, so the copies are independent.
	for _, p := range m.plans {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if cfg.SkipBody != nil && cfg.SkipBody(p.dst.Name, p.src.Name) {
			continue
		}
		if err := m.copyBody(p); err != nil {
			return nil, nil, err
		}
	}
	stats := m.stats()
	return m.out, stats, nil
}

func (m *monomorphizer) stats() *Stats {
	s := &Stats{
		FuncsBefore:   len(m.in.Funcs),
		FuncsAfter:    len(m.out.Funcs),
		InstrsBefore:  m.in.NumInstrs(),
		InstrsAfter:   m.out.NumInstrs(),
		ClassesBefore: len(m.in.Classes),
		ClassesAfter:  len(m.out.Classes),
	}
	byName := map[string]*FuncExpansion{}
	for _, f := range m.out.Funcs {
		src := f.Name
		if i := strings.IndexByte(src, '<'); i >= 0 {
			src = src[:i]
		}
		fe := byName[src]
		if fe == nil {
			fe = &FuncExpansion{Name: src}
			byName[src] = fe
		}
		fe.Instances++
		fe.InstrsAfter += f.NumInstrs()
	}
	for _, f := range m.in.Funcs {
		if fe := byName[f.Name]; fe != nil {
			fe.InstrsBefore = f.NumInstrs()
		}
	}
	for _, fe := range byName {
		s.PerFunc = append(s.PerFunc, *fe)
	}
	sort.Slice(s.PerFunc, func(i, j int) bool {
		a, b := s.PerFunc[i], s.PerFunc[j]
		if a.Instances != b.Instances {
			return a.Instances > b.Instances
		}
		return a.Name < b.Name
	})
	return s
}

func typesKey(ts []types.Type) string {
	if len(ts) == 0 {
		return ""
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

// instance returns the specialization of f for the given closed type
// arguments, creating it (and enqueueing its body) on first use.
func (m *monomorphizer) instance(f *ir.Func, targs []types.Type) *ir.Func {
	key := funcKey{f: f, key: typesKey(targs)}
	if g, ok := m.funcInst[key]; ok {
		return g
	}
	m.perFunc[f]++
	tooBig := false
	for _, t := range targs {
		if types.Size(t) > 256 {
			tooBig = true
		}
	}
	if tooBig || m.perFunc[f] > m.cfg.MaxInstances {
		m.fail(fmt.Errorf("mono: function %s exceeds %d specializations; polymorphic recursion is disallowed (§4.3)", f.Name, m.cfg.MaxInstances))
		// Return a placeholder to keep the traversal terminating.
		g := &ir.Func{Name: f.Name + "<...>", Kind: f.Kind, VtSlot: -1}
		m.funcInst[key] = g
		return g
	}
	name := f.Name
	if len(targs) > 0 {
		name = fmt.Sprintf("%s<%s>", f.Name, typesKey(targs))
	}
	g := &ir.Func{
		Name:    name,
		Kind:    f.Kind,
		VtSlot:  -1,
		Results: m.substAll(f.Results, types.BindParams(f.TypeParams, targs)),
	}
	m.funcInst[key] = g
	m.out.Funcs = append(m.out.Funcs, g)
	env := types.BindParams(f.TypeParams, targs)
	m.work = append(m.work, func() error { return m.planBody(f, g, env) })
	// Params must exist immediately: callers consult arity and types.
	for _, p := range f.Params {
		g.Params = append(g.Params, g.NewReg(m.tc.Subst(p.Type, env), p.Name))
	}
	return g
}

func (m *monomorphizer) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

func (m *monomorphizer) substAll(ts []types.Type, env map[*types.TypeParamDef]types.Type) []types.Type {
	out := make([]types.Type, len(ts))
	for i, t := range ts {
		out[i] = m.tc.Subst(t, env)
	}
	return out
}

// classInstance returns the specialized class for a closed class type,
// creating it and filling its vtable on first use.
func (m *monomorphizer) classInstance(ct *types.Class) *ir.Class {
	key := classKey{def: ct.Def, key: typesKey(ct.Args)}
	if c, ok := m.classInst[key]; ok {
		return c
	}
	orig := m.origByDef[ct.Def]
	c := &ir.Class{
		Name:  ct.String(),
		Def:   ct.Def,
		Args:  ct.Args,
		Depth: orig.Depth,
		Type:  ct,
	}
	m.classInst[key] = c
	m.out.Classes = append(m.out.Classes, c)
	env := types.BindParams(ct.Def.TypeParams, ct.Args)
	for _, fd := range orig.Fields {
		c.Fields = append(c.Fields, ir.Field{Name: fd.Name, Type: m.tc.Subst(fd.Type, env)})
	}
	if pt := m.tc.ParentOf(ct); pt != nil {
		c.Parent = m.classInstance(pt)
	}
	h := m.hierarchyOf(ct.Def)
	h.instances = append(h.instances, c)
	// Fill this class's vtable for every dispatch entry discovered so
	// far (and future ones as they appear).
	entries := append([]vtEntry{}, h.entries...)
	m.work = append(m.work, func() error {
		for _, e := range entries {
			m.fillSlot(c, e)
		}
		return nil
	})
	return c
}

func (m *monomorphizer) rootOf(def *types.ClassDef) *types.ClassDef {
	for def.ParentType != nil {
		def = def.ParentType.Def
	}
	return def
}

func (m *monomorphizer) hierarchyOf(def *types.ClassDef) *hierarchy {
	root := m.rootOf(def)
	h := m.hiers[root]
	if h == nil {
		h = &hierarchy{slotOf: map[string]int{}}
		m.hiers[root] = h
	}
	return h
}

// dispatchSlot returns the specialized vtable slot for (origSlot,
// method type args) in the hierarchy of def, creating it (and filling
// it in all known instances) on first use.
func (m *monomorphizer) dispatchSlot(def *types.ClassDef, origSlot int, margs []types.Type) int {
	h := m.hierarchyOf(def)
	k := fmt.Sprintf("%d|%s", origSlot, typesKey(margs))
	if s, ok := h.slotOf[k]; ok {
		return s
	}
	e := vtEntry{origSlot: origSlot, margs: margs, newSlot: len(h.entries)}
	h.slotOf[k] = e.newSlot
	h.entries = append(h.entries, e)
	insts := append([]*ir.Class{}, h.instances...)
	m.work = append(m.work, func() error {
		for _, c := range insts {
			m.fillSlot(c, e)
		}
		return nil
	})
	return e.newSlot
}

// fillSlot installs the specialized implementation of a dispatch entry
// into one specialized class's vtable.
func (m *monomorphizer) fillSlot(c *ir.Class, e vtEntry) {
	for len(c.Vtable) <= e.newSlot {
		c.Vtable = append(c.Vtable, nil)
	}
	if c.Vtable[e.newSlot] != nil {
		return
	}
	orig := m.origByDef[c.Def]
	if e.origSlot >= len(orig.Vtable) {
		return // slot belongs to an unrelated branch of the hierarchy
	}
	target := orig.Vtable[e.origSlot]
	if target == nil {
		return
	}
	// Class-part type arguments: walk the instantiation up to the
	// target's declaring class.
	var cargs []types.Type
	if target.NumClassParams > 0 {
		w := c.Type
		for w != nil && w.Def != target.Class.Def {
			w = m.tc.ParentOf(w)
		}
		if w != nil {
			cargs = w.Args
		}
	}
	inst := m.instance(target, append(append([]types.Type{}, cargs...), e.margs...))
	inst.VtSlot = e.newSlot
	c.Vtable[e.newSlot] = inst
}

// planBody walks f's instructions in order, resolving everything the
// specialized body needs from shared state: call targets become
// instances (which enqueue their own plans), virtual dispatches get
// specialized vtable slots, and referenced classes are materialized.
// The traversal order fixes the output module's function and class
// order. The resolutions are recorded on a bodyPlan for copyBody.
func (m *monomorphizer) planBody(f, g *ir.Func, env map[*types.TypeParamDef]types.Type) error {
	p := &bodyPlan{src: f, dst: g, env: env}
	subst := func(t types.Type) types.Type {
		if t == nil {
			return nil
		}
		return m.tc.Subst(t, env)
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.OpNewObject:
				ct := subst(in.Type).(*types.Class)
				m.classInstance(ct)
			case ir.OpCallStatic, ir.OpMakeClosure:
				targs := m.substAll(in.TypeArgs, env)
				p.fns = append(p.fns, m.instance(in.Fn, targs))
			case ir.OpCallVirtual, ir.OpMakeBound:
				recvType, ok := subst(in.Type).(*types.Class)
				if !ok {
					return fmt.Errorf("mono: virtual dispatch on non-class type %s in %s", subst(in.Type), f.Name)
				}
				margs := m.substAll(in.TypeArgs, env)
				p.slots = append(p.slots, m.dispatchSlot(recvType.Def, in.FieldSlot, margs))
				// Make sure the static receiver class itself exists so
				// statically-typed allocations elsewhere dispatch.
				m.classInstance(recvType)
			case ir.OpFieldLoad, ir.OpFieldStore:
				// Normalization computes field layouts from the static
				// receiver class, which must therefore be materialized.
				if ct, ok := subst(in.Args[0].Type).(*types.Class); ok {
					m.classInstance(ct)
				}
			}
		}
	}
	m.plans = append(m.plans, p)
	return nil
}

// copyBody copies the planned body from p.src into p.dst, substituting
// types and installing the resolutions planBody recorded. It touches
// only p.dst and the type cache.
func (m *monomorphizer) copyBody(p *bodyPlan) error {
	f, g, env := p.src, p.dst, p.env
	fi, si := 0, 0
	regMap := map[*ir.Reg]*ir.Reg{}
	for i, pr := range f.Params {
		regMap[pr] = g.Params[i]
	}
	mapReg := func(r *ir.Reg) *ir.Reg {
		if nr, ok := regMap[r]; ok {
			return nr
		}
		nr := g.NewReg(m.tc.Subst(r.Type, env), r.Name)
		regMap[r] = nr
		return nr
	}
	blockMap := map[*ir.Block]*ir.Block{}
	for _, blk := range f.Blocks {
		blockMap[blk] = g.NewBlock()
	}
	subst := func(t types.Type) types.Type {
		if t == nil {
			return nil
		}
		return m.tc.Subst(t, env)
	}
	for _, blk := range f.Blocks {
		nb := blockMap[blk]
		for _, in := range blk.Instrs {
			ni := &ir.Instr{
				Op: in.Op, FieldSlot: in.FieldSlot, IVal: in.IVal,
				SVal: in.SVal, Global: in.Global, Pos: in.Pos,
			}
			for _, d := range in.Dst {
				ni.Dst = append(ni.Dst, mapReg(d))
			}
			for _, a := range in.Args {
				ni.Args = append(ni.Args, mapReg(a))
			}
			for _, tb := range in.Blocks {
				ni.Blocks = append(ni.Blocks, blockMap[tb])
			}
			ni.Type = subst(in.Type)
			ni.Type2 = subst(in.Type2)
			switch in.Op {
			case ir.OpConstNull:
				// Re-expand defaults whose type was a type parameter:
				// the specialized type may be a primitive or tuple.
				m.emitDefault(g, nb, ni.Dst[0], ni.Type)
				continue
			case ir.OpCallStatic, ir.OpMakeClosure:
				ni.Fn = p.fns[fi]
				fi++
			case ir.OpCallVirtual, ir.OpMakeBound:
				ni.FieldSlot = p.slots[si]
				si++
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	return nil
}

// emitDefault appends instructions materializing the default value of a
// closed type into dst.
func (m *monomorphizer) emitDefault(g *ir.Func, blk *ir.Block, dst *ir.Reg, t types.Type) {
	switch t := t.(type) {
	case *types.Prim:
		switch t.Kind {
		case types.KindInt:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstInt, Dst: []*ir.Reg{dst}})
		case types.KindByte:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstByte, Dst: []*ir.Reg{dst}})
		case types.KindBool:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstBool, Dst: []*ir.Reg{dst}})
		case types.KindVoid:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstVoid, Dst: []*ir.Reg{dst}})
		default:
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{dst}, Type: t})
		}
	case *types.Enum:
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstEnum, Dst: []*ir.Reg{dst}, Type: t})
	case *types.Tuple:
		elems := make([]*ir.Reg, len(t.Elems))
		for i, et := range t.Elems {
			er := g.NewReg(et, "")
			m.emitDefault(g, blk, er, et)
			elems[i] = er
		}
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpMakeTuple, Dst: []*ir.Reg{dst}, Args: elems, Type: t})
	default:
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpConstNull, Dst: []*ir.Reg{dst}, Type: t})
	}
}
