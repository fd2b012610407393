package analysis

import (
	"cmp"
	"slices"

	"repro/internal/ir"
	"repro/internal/types"
)

// CallGraph is the whole-program call graph: class-hierarchy analysis
// (a virtual call at slot s on static class C can reach any
// implementation of s in C's subtree) refined by rapid type analysis
// (only subclasses the program actually instantiates count, and only
// closures the program actually creates can flow to an indirect call).
//
// Indirect-call resolution is arity-based over the taken-closure set:
// a first-class function value can only be an OpMakeClosure result or
// an OpMakeBound over an instantiated class, so the possible targets
// of f(args...) are the taken functions accepting len(args) values.
// This is what lets the optimizer devirtualize through closures, which
// the old local-only heuristic in opt/devirt.go could not see.
type CallGraph struct {
	Mod *ir.Module
	// Nodes is index-aligned with Mod.Funcs.
	Nodes []*CGNode
	// Instantiated is the RTA set: classes some reachable OpNewObject
	// creates. Virtual dispatch can only land on their vtables.
	Instantiated map[*ir.Class]bool
	// Taken is the set of functions whose closures exist at runtime:
	// OpMakeClosure targets plus vtable entries reachable from
	// OpMakeBound sites over instantiated classes.
	Taken map[*ir.Func]bool
	// Reachable marks functions reachable from main and the global
	// initializer through resolved edges.
	Reachable map[*ir.Func]bool

	// takenClosure and takenBound split Taken by provenance: a plain
	// closure invoked with n values targets an n-parameter function,
	// while a bound method carries its receiver as a hidden leading
	// argument and targets an (n+1)-parameter function. Indirect-call
	// resolution must consult both arities.
	takenClosure map[*ir.Func]bool
	takenBound   map[*ir.Func]bool

	// Target memos, filled once the RTA sets are final: vtable targets
	// by (class, slot) and indirect targets by value count. A memo's
	// slice is shared by every site that resolves to it and clipped, so
	// an append by a reader copies; readers must not modify it.
	vtMemo   map[vtKey][]*ir.Func
	indirect map[int][]*ir.Func

	byFn    map[*ir.Func]*CGNode
	order   map[*ir.Func]int // module function order
	byClass map[*types.Class]*ir.Class
}

// vtKey names a virtual call's target set: static receiver class and
// vtable slot.
type vtKey struct {
	cls  *ir.Class
	slot int
}

// CGNode is one function's calls.
type CGNode struct {
	Fn *ir.Func
	// Callees are the distinct resolved targets in deterministic order
	// (module function order).
	Callees []*ir.Func
	// Sites maps each call instruction to its resolved targets.
	// Builtin calls have no entry. A nil slice means the site is
	// unresolved (open receiver type): the caller must assume anything.
	Sites map[*ir.Instr][]*ir.Func
	// Unresolved counts sites whose targets are unknown.
	Unresolved int
	// InCycle marks functions on a call-graph cycle (possibly mutual
	// recursion); unresolved callees conservatively count as cycles.
	InCycle bool
}

// NodeFor returns the node of fn, or nil for a function outside the
// module.
func (cg *CallGraph) NodeFor(fn *ir.Func) *CGNode { return cg.byFn[fn] }

// TargetsOf returns the resolved targets of call site in within fn,
// and whether the site is resolved at all.
func (cg *CallGraph) TargetsOf(fn *ir.Func, in *ir.Instr) ([]*ir.Func, bool) {
	n := cg.byFn[fn]
	if n == nil {
		return nil, false
	}
	ts, ok := n.Sites[in]
	return ts, ok && ts != nil
}

// buildCallGraph constructs the call graph over the whole module.
// Collection is whole-module rather than reachability-seeded: the
// pipeline in front of this pass (monomorphization) already prunes
// unreachable specializations, so scanning everything keeps the
// builder a simple two-pass loop with deterministic output.
func buildCallGraph(mod *ir.Module) *CallGraph {
	cg := &CallGraph{
		Mod:          mod,
		Instantiated: map[*ir.Class]bool{},
		Taken:        map[*ir.Func]bool{},
		Reachable:    map[*ir.Func]bool{},
		takenClosure: map[*ir.Func]bool{},
		takenBound:   map[*ir.Func]bool{},
		vtMemo:       map[vtKey][]*ir.Func{},
		byFn:         make(map[*ir.Func]*CGNode, len(mod.Funcs)),
		order:        make(map[*ir.Func]int, len(mod.Funcs)),
		byClass:      make(map[*types.Class]*ir.Class, len(mod.Classes)),
	}
	for _, c := range mod.Classes {
		cg.byClass[c.Type] = c
	}

	// Pass 1: collect the RTA sets — instantiated classes and taken
	// closures. Bound-method sites are slot-based, so they are resolved
	// against the instantiated set after it is complete.
	var bounds []vtKey
	for _, f := range mod.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpNewObject:
					if c := cg.classOf(in.Type); c != nil {
						cg.Instantiated[c] = true
					}
				case ir.OpMakeClosure:
					if in.Fn != nil {
						cg.Taken[in.Fn] = true
						cg.takenClosure[in.Fn] = true
					}
				case ir.OpMakeBound:
					if c := cg.classOf(in.Args[0].Type); c != nil {
						bounds = append(bounds, vtKey{c, in.FieldSlot})
					}
				}
			}
		}
	}
	for _, bs := range bounds {
		for _, t := range cg.vtableTargets(bs.cls, bs.slot) {
			cg.Taken[t] = true
			cg.takenBound[t] = true
		}
	}
	cg.indexIndirect()

	// Pass 2: resolve every call site.
	for i, f := range mod.Funcs {
		cg.order[f] = i
	}
	nodes := make([]CGNode, len(mod.Funcs))
	cg.Nodes = make([]*CGNode, len(mod.Funcs))
	// stamp[j] == i+1 records that function j is already a callee of
	// function i.
	stamp := make([]int, len(mod.Funcs))
	for i, f := range mod.Funcs {
		n := &nodes[i]
		n.Fn = f
		cg.Nodes[i] = n
		cg.byFn[f] = n
		addTargets := func(in *ir.Instr, ts []*ir.Func) {
			if n.Sites == nil {
				n.Sites = map[*ir.Instr][]*ir.Func{}
			}
			n.Sites[in] = ts
			if ts == nil {
				n.Unresolved++
				return
			}
			for _, t := range ts {
				if j, ok := cg.order[t]; ok {
					if stamp[j] == i+1 {
						continue
					}
					stamp[j] = i + 1
				} else if slices.Contains(n.Callees, t) {
					continue
				}
				n.Callees = append(n.Callees, t)
			}
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpCallStatic:
					if in.Fn != nil {
						addTargets(in, []*ir.Func{in.Fn})
					} else {
						addTargets(in, nil)
					}
				case ir.OpCallVirtual:
					if c := cg.classOf(in.Type); c != nil {
						addTargets(in, cg.vtableTargets(c, in.FieldSlot))
					} else {
						// Open receiver type (pre-mono IR): any override.
						addTargets(in, nil)
					}
				case ir.OpCallIndirect:
					addTargets(in, cg.indirectTargets(len(in.Args)-1))
				}
			}
		}
		slices.SortFunc(n.Callees, func(a, b *ir.Func) int { return cmp.Compare(cg.order[a], cg.order[b]) })
	}

	cg.markReachable()
	cg.markCycles()
	return cg
}

// classOf maps a static receiver type to its IR class, or nil when the
// type is open or not a class.
func (cg *CallGraph) classOf(t types.Type) *ir.Class {
	ct, ok := t.(*types.Class)
	if !ok {
		return nil
	}
	return cg.byClass[ct]
}

// noTargets is the resolved-but-empty target set: a site that can
// only trap. It is non-nil, because a nil set means unresolved.
var noTargets = []*ir.Func{}

// vtableTargets returns the distinct implementations of slot reachable
// from a receiver statically typed c, restricted to instantiated
// classes, in module class order. A null receiver traps before
// dispatch, so an empty result means the call can only trap. Results
// are memoized, so it must not be called before the instantiated set
// is complete.
func (cg *CallGraph) vtableTargets(c *ir.Class, slot int) []*ir.Func {
	key := vtKey{c, slot}
	if ts, ok := cg.vtMemo[key]; ok {
		return ts
	}
	var out []*ir.Func
	for _, d := range cg.Mod.Classes {
		if !cg.Instantiated[d] || !d.IsSubclassOf(c) {
			continue
		}
		if slot >= len(d.Vtable) || d.Vtable[slot] == nil {
			continue
		}
		if t := d.Vtable[slot]; !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	if out == nil {
		out = noTargets
	}
	out = slices.Clip(out)
	cg.vtMemo[key] = out
	return out
}

// indexIndirect fills the indirect-target memo from the final taken
// sets, in one pass in module function order: an indirect call passing
// n values can reach plain closures of n parameters and bound methods
// of n+1 parameters (the hidden receiver).
func (cg *CallGraph) indexIndirect() {
	cg.indirect = map[int][]*ir.Func{}
	for _, f := range cg.Mod.Funcs {
		n := len(f.Params)
		if cg.takenClosure[f] {
			cg.indirect[n] = append(cg.indirect[n], f)
		}
		if cg.takenBound[f] {
			cg.indirect[n-1] = append(cg.indirect[n-1], f)
		}
	}
	for n, ts := range cg.indirect {
		cg.indirect[n] = slices.Clip(ts)
	}
}

// indirectTargets returns every taken function an indirect call
// passing nargs values could reach, in module function order: plain
// closures of nargs parameters, plus bound methods of nargs+1
// parameters (the hidden receiver).
func (cg *CallGraph) indirectTargets(nargs int) []*ir.Func {
	if ts, ok := cg.indirect[nargs]; ok {
		return ts
	}
	return noTargets
}

// UniqueIndirectTarget resolves an indirect call passing nargs values
// to a single statically callable target: exactly one plain-closure
// candidate and no bound-method candidate (a bound closure's receiver
// lives only in the runtime function value, so the call cannot be
// rewritten to a direct call).
func (cg *CallGraph) UniqueIndirectTarget(nargs int) (*ir.Func, bool) {
	// A plain-closure candidate has nargs parameters and a bound-method
	// candidate nargs+1, so a lone candidate with nargs parameters that
	// is a taken closure is the unique plain one.
	ts := cg.indirectTargets(nargs)
	if len(ts) == 1 && cg.takenClosure[ts[0]] && len(ts[0].Params) == nargs {
		return ts[0], true
	}
	return nil, false
}

// markReachable floods the resolved edges from main and the global
// initializer. Unresolved sites conservatively reach every taken
// function.
func (cg *CallGraph) markReachable() {
	var work []*ir.Func
	push := func(f *ir.Func) {
		if f != nil && !cg.Reachable[f] {
			cg.Reachable[f] = true
			work = append(work, f)
		}
	}
	push(cg.Mod.Init)
	push(cg.Mod.Main)
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		n := cg.byFn[f]
		if n == nil {
			continue
		}
		for _, t := range n.Callees {
			push(t)
		}
		if n.Unresolved > 0 {
			for _, g := range cg.Mod.Funcs {
				if cg.Taken[g] {
					push(g)
				}
			}
		}
		// A taken closure can be invoked by any indirect site reachable
		// later; treat taken functions created here as reachable.
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpMakeClosure && in.Fn != nil {
					push(in.Fn)
				}
				if in.Op == ir.OpMakeBound {
					if c := cg.classOf(in.Args[0].Type); c != nil {
						for _, t := range cg.vtableTargets(c, in.FieldSlot) {
							push(t)
						}
					}
				}
			}
		}
	}
}

// markCycles finds call-graph SCCs (iterative Tarjan over resolved
// edges) and flags every function on a cycle; a function with
// unresolved call sites is conservatively cyclic too, since the
// unknown callee could call back.
func (cg *CallGraph) markCycles() {
	n := len(cg.Nodes)
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	// The successors of v are its callees, as module indices.
	callees := func(v int) []*ir.Func { return cg.Nodes[v].Callees }
	var stack []int
	counter := 0
	type frame struct{ v, next int }
	var work []frame
	for root := 0; root < n; root++ {
		if idx[root] != -1 {
			continue
		}
		work = append(work[:0], frame{v: root})
		idx[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			top := &work[len(work)-1]
			v := top.v
			if top.next < len(callees(v)) {
				w := cg.order[callees(v)[top.next]]
				top.next++
				if idx[w] == -1 {
					idx[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{v: w})
				} else if onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				// v roots an SCC: the stack from v up.
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				scc := stack[k:]
				for _, w := range scc {
					onStack[w] = false
				}
				if len(scc) > 1 {
					for _, w := range scc {
						cg.Nodes[w].InCycle = true
					}
				} else {
					for _, c := range callees(v) {
						if cg.order[c] == v {
							cg.Nodes[v].InCycle = true
						}
					}
				}
				stack = stack[:k]
			}
		}
	}
	for _, node := range cg.Nodes {
		if node.Unresolved > 0 {
			node.InCycle = true
		}
	}
}
