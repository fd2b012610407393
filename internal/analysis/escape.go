package analysis

import "repro/internal/ir"

// Escape analysis: a value "escapes" its creating frame when it can be
// observed after the frame returns — it is returned or thrown, stored
// into an object, array, or global, captured by a bound-method
// closure, or passed to a callee that lets the corresponding parameter
// escape. An allocation whose result register never escapes is
// frame-local: both engines may skip its modeled heap charge (stack
// promotion) without changing any observable behavior except the
// HeapBytes meter itself.
//
// The analysis is interprocedural: each function gets a parameter
// summary (does param i escape from the callee?), and the summaries
// are iterated to a least fixpoint over the call graph. Starting from
// the optimistic "nothing escapes" bottom and applying monotone rules
// converges to the least sound may-escape solution, so recursion needs
// no special casing.
//
// Deliberate conservatisms, in both directions of the cost model:
//   - Builtins (System.puts and friends) do not retain their
//     arguments — they copy bytes to the output stream — so builtin
//     call arguments do not escape.
//   - A bound-method receiver (OpMakeBound Args[0]) always escapes:
//     the closure may flow to call sites this pass does not track
//     pairwise, and the target method could leak its receiver.
//   - Returning a value counts as escaping, which keeps synthesized
//     allocator functions (A.new returns the object) honest; callers
//     see the allocation as local only after the allocator is inlined.
type escapeState struct {
	res *Result
	// summaries[f][i] reports whether f's parameter i may escape f
	// (including by being returned).
	summaries map[*ir.Func][]bool
}

// computeEscapes fills FuncFacts.EscapingRegs, ParamEscapes, and
// NonEscaping for every function in res.
func computeEscapes(res *Result) {
	funcs := res.Mod.Funcs
	es := newEscapeState(res)
	// Worklist fixpoint: a function's set depends only on its callees'
	// summaries, so it is recomputed only when one of them grew. The
	// worklist starts with every function in module order. Summaries
	// only grow, so this reaches the same least fixpoint as sweeping the
	// whole module until nothing changes, and each function's last set
	// was computed against summaries that never grew afterwards: those
	// sets are the final facts.
	callers := reverseCallees(res.CallGraph)
	escs := make([][]bool, len(funcs))
	queued := make([]bool, len(funcs))
	work := make([]int, len(funcs))
	for i := range work {
		work[i] = i
		queued[i] = true
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		queued[i] = false
		escs[i] = es.escapingRegs(funcs[i], escs[i])
		if !es.widen(funcs[i], escs[i]) {
			continue
		}
		for _, c := range callers[i] {
			if !queued[c] {
				queued[c] = true
				work = append(work, c)
			}
		}
	}
	es.record(escs)
}

// newEscapeState starts the fixpoint at its bottom: no parameter of
// any function escapes.
func newEscapeState(res *Result) *escapeState {
	es := &escapeState{res: res, summaries: make(map[*ir.Func][]bool, len(res.Mod.Funcs))}
	for _, f := range res.Mod.Funcs {
		es.summaries[f] = make([]bool, len(f.Params))
	}
	return es
}

// widen adds to f's summary every parameter that esc, a set just
// computed for f, marks escaping; it reports whether the summary grew.
func (es *escapeState) widen(f *ir.Func, esc []bool) bool {
	sum, grew := es.summaries[f], false
	for k, p := range f.Params {
		if esc[p.ID] && !sum[k] {
			sum[k] = true
			grew = true
		}
	}
	return grew
}

// record stores the fixpoint's facts into res: escs[i] is the final
// may-escape set of the i-th function in module order.
func (es *escapeState) record(escs [][]bool) {
	for i, f := range es.res.Mod.Funcs {
		facts := es.res.Funcs[i]
		esc := escs[i]
		facts.EscapingRegs = esc
		facts.ParamEscapes = es.summaries[f]
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if !IsAlloc(in) || len(in.Dst) == 0 {
					continue
				}
				escapes := false
				for _, d := range in.Dst {
					if esc[d.ID] {
						escapes = true
					}
				}
				facts.AllocSites = append(facts.AllocSites, AllocSite{Instr: in, Escapes: escapes})
				if !escapes {
					facts.NonEscaping = append(facts.NonEscaping, in)
				}
			}
		}
	}
}

// reverseCallees returns, for each function in module order, the
// indices of the functions that list it among their Callees, in module
// order.
func reverseCallees(cg *CallGraph) [][]int {
	callers := make([][]int, len(cg.Nodes))
	for i, n := range cg.Nodes {
		for _, c := range n.Callees {
			if j, ok := cg.order[c]; ok {
				callers[j] = append(callers[j], i)
			}
		}
	}
	return callers
}

// escapingRegs computes the set of registers of f whose values may
// escape the frame, under the current callee summaries. The local
// rules are iterated to a fixpoint because escape propagates backward
// through value-transparent instructions (moves, casts, aggregates).
// The set is indexed by Reg.ID. buf is nil or a set computed earlier
// for f, whose storage is reused.
func (es *escapeState) escapingRegs(f *ir.Func, buf []bool) []bool {
	esc := buf
	if esc == nil {
		esc = make([]bool, f.NumRegs())
	} else {
		clear(esc)
	}
	mark := func(r *ir.Reg) bool {
		if r == nil || esc[r.ID] {
			return false
		}
		esc[r.ID] = true
		return true
	}
	cgNode := es.res.CallGraph.NodeFor(f)
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpRet, ir.OpThrow:
					for _, a := range in.Args {
						if mark(a) {
							changed = true
						}
					}
				case ir.OpGlobalStore:
					if mark(in.Args[0]) {
						changed = true
					}
				case ir.OpFieldStore:
					// The stored value escapes into the object; the object
					// itself does not escape by being stored into.
					if mark(in.Args[1]) {
						changed = true
					}
				case ir.OpArrayStore:
					if mark(in.Args[2]) {
						changed = true
					}
				case ir.OpMove, ir.OpTypeCast:
					if len(in.Dst) > 0 && esc[in.Dst[0].ID] && mark(in.Args[0]) {
						changed = true
					}
				case ir.OpMakeTuple:
					// A tuple escaping carries its elements with it.
					if len(in.Dst) > 0 && esc[in.Dst[0].ID] {
						for _, a := range in.Args {
							if mark(a) {
								changed = true
							}
						}
					}
				case ir.OpMakeBound:
					// The receiver is captured by the closure; see the
					// conservatism note above.
					if mark(in.Args[0]) {
						changed = true
					}
				case ir.OpCallStatic:
					// Arity-bent sites (tuple args adapted at runtime in
					// pre-normalized IR) cannot be mapped parameterwise.
					if in.Fn == nil || len(in.Args) != len(in.Fn.Params) {
						for _, a := range in.Args {
							if mark(a) {
								changed = true
							}
						}
						continue
					}
					for k, a := range in.Args {
						if es.paramEscapes(in.Fn, k) && mark(a) {
							changed = true
						}
					}
				case ir.OpCallVirtual, ir.OpCallIndirect:
					targets, resolved := []*ir.Func(nil), false
					if cgNode != nil {
						ts, ok := cgNode.Sites[in]
						targets, resolved = ts, ok && ts != nil
					}
					// For indirect calls, Args[0] is the invoked closure:
					// invoking it does not make the closure itself escape.
					args := in.Args
					if in.Op == ir.OpCallIndirect {
						args = in.Args[1:]
					}
					if !resolved {
						for _, a := range args {
							if mark(a) {
								changed = true
							}
						}
						continue
					}
					for k, a := range args {
						for _, t := range targets {
							if len(args) != len(t.Params) || es.paramEscapes(t, k) {
								if mark(a) {
									changed = true
								}
								break
							}
						}
					}
				}
			}
		}
	}
	return esc
}

// paramEscapes looks up the current summary bit for fn's parameter k.
// A nil or unknown callee and out-of-range parameters (arity-bent call
// sites survive in unoptimized IR) are conservatively escaping.
func (es *escapeState) paramEscapes(fn *ir.Func, k int) bool {
	if fn == nil {
		return true
	}
	sum, ok := es.summaries[fn]
	if !ok || k >= len(sum) {
		return true
	}
	return sum[k]
}
