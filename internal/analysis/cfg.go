// Package analysis is the compiler's whole-program static-analysis
// layer: per-function control-flow graphs over the typed IR, a sound
// call graph (class-hierarchy analysis refined by rapid type analysis
// over the classes and closures the program actually creates), and a
// fixpoint dataflow engine running three interprocedural analyses —
// escape analysis, purity/effect summaries, and interval/constant
// propagation.
//
// The facts feed three consumers: internal/opt (stack promotion of
// non-escaping allocations, call-graph-driven devirtualization,
// pure-call elimination), internal/lint (IR-level advisory rules), and
// the `virgil analyze` JSON report. All of them require the same
// guarantee the rest of the pipeline already has: results are
// byte-for-byte identical for identical inputs.
package analysis

import "repro/internal/ir"

// CFG is the control-flow graph of one function. Blocks are the
// function's blocks in their module order; edges are indices into that
// slice.
type CFG struct {
	Fn     *ir.Func
	Blocks []*ir.Block
	// Succs and Preds are the forward and backward edges per block
	// index, in terminator operand order (deterministic).
	Succs [][]int
	Preds [][]int
	// RPO is a reverse postorder over reachable blocks from the entry;
	// unreachable blocks are appended after it in module order so every
	// block has a position.
	RPO []int
	// InLoop marks blocks that participate in a cycle (a non-trivial
	// strongly connected component, or a self-loop).
	InLoop []bool
	// TrapExit marks blocks whose terminator is an explicit throw.
	TrapExit []bool

	index map[*ir.Block]int
}

// BuildCFG constructs the control-flow graph of f. It never mutates f.
func BuildCFG(f *ir.Func) *CFG {
	g := &CFG{
		Fn:     f,
		Blocks: f.Blocks,
		Succs:  make([][]int, len(f.Blocks)),
		Preds:  make([][]int, len(f.Blocks)),
		InLoop: make([]bool, len(f.Blocks)),
		index:  make(map[*ir.Block]int, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		g.index[b] = i
	}
	g.TrapExit = make([]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		if t.Op == ir.OpThrow {
			g.TrapExit[i] = true
		}
		for _, nb := range t.Blocks {
			if j, ok := g.index[nb]; ok {
				g.Succs[i] = append(g.Succs[i], j)
				g.Preds[j] = append(g.Preds[j], i)
			}
		}
	}
	g.buildRPO()
	g.findLoops()
	return g
}

// BlockIndex returns b's index in the CFG, or -1 if it is not part of
// the function.
func (g *CFG) BlockIndex(b *ir.Block) int {
	if i, ok := g.index[b]; ok {
		return i
	}
	return -1
}

// buildRPO computes a reverse postorder from the entry block with an
// iterative DFS (adversarial inputs produce deep graphs), then appends
// unreachable blocks in module order.
func (g *CFG) buildRPO() {
	n := len(g.Blocks)
	if n == 0 {
		return
	}
	seen := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{b: 0}}
	seen[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(g.Succs[top.b]) {
			s := g.Succs[top.b][top.next]
			top.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, 0, n)
	for i := len(post) - 1; i >= 0; i-- {
		g.RPO = append(g.RPO, post[i])
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			g.RPO = append(g.RPO, i)
		}
	}
}

// findLoops marks blocks in cycles using an iterative Tarjan SCC over
// the block graph. A block is in a loop when its SCC has more than one
// member, or when it branches to itself.
func (g *CFG) findLoops() {
	for _, scc := range g.SCCs() {
		if len(scc) > 1 {
			for _, b := range scc {
				g.InLoop[b] = true
			}
			continue
		}
		b := scc[0]
		for _, s := range g.Succs[b] {
			if s == b {
				g.InLoop[b] = true
			}
		}
	}
}

// hasLoop reports whether some block of f lies on a cycle, exactly
// when BuildCFG(f).InLoop has a true entry, without building the CFG:
// the compile path reads only this bit. An iterative three-colour DFS
// from every block in order meets an edge back to a block still on its
// stack exactly when the block graph has a cycle, self-loops included.
// Blocks are found by their dense IDs; edges to blocks outside f are
// ignored, as BuildCFG ignores them.
func hasLoop(f *ir.Func) bool {
	const (
		white = iota // not yet visited
		grey         // on the DFS stack
		black        // finished
	)
	n, nb := len(f.Blocks), f.NumBlocks()
	// pos maps a block ID to the block's index in f.Blocks, or -1;
	// color is per index. One allocation holds both.
	buf := make([]int32, nb+n)
	pos, color := buf[:nb], buf[nb:]
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range f.Blocks {
		pos[b.ID] = int32(i)
	}
	index := func(b *ir.Block) int {
		if b.ID < 0 || b.ID >= nb {
			return -1
		}
		if i := pos[b.ID]; i >= 0 && f.Blocks[i] == b {
			return int(i)
		}
		return -1
	}
	type frame struct{ b, next int }
	stack := make([]frame, 0, n) // a block is pushed at most once
	for root := range f.Blocks {
		if color[root] != white {
			continue
		}
		color[root] = grey
		stack = append(stack, frame{b: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if t := f.Blocks[top.b].Terminator(); t != nil && top.next < len(t.Blocks) {
				j := index(t.Blocks[top.next])
				top.next++
				switch {
				case j < 0:
				case color[j] == grey:
					return true
				case color[j] == white:
					color[j] = grey
					stack = append(stack, frame{b: j})
				}
				continue
			}
			color[top.b] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}

// SCCs returns the strongly connected components of the block graph in
// deterministic order (Tarjan, iterative; components come out in
// reverse topological order).
func (g *CFG) SCCs() [][]int {
	n := len(g.Blocks)
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	var (
		stack   []int
		sccs    [][]int
		counter int
	)
	type frame struct {
		v, next int
	}
	for root := 0; root < n; root++ {
		if idx[root] != -1 {
			continue
		}
		work := []frame{{v: root}}
		idx[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			top := &work[len(work)-1]
			v := top.v
			if top.next < len(g.Succs[v]) {
				w := g.Succs[v][top.next]
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
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// MayTrap reports whether executing in can raise a Virgil trap: an
// implicit exceptional edge out of the function. Explicit throws are
// block terminators and tracked as TrapExit edges instead.
func MayTrap(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpDiv, ir.OpMod, // !DivideByZeroException
		ir.OpNullCheck, ir.OpFieldLoad, ir.OpFieldStore, // !NullCheckException
		ir.OpCallVirtual, ir.OpMakeBound, // null receiver
		ir.OpCallIndirect,                              // null closure
		ir.OpArrayNew,                                  // !LengthCheckException
		ir.OpArrayLoad, ir.OpArrayStore, ir.OpArrayLen, // !BoundsCheckException / null
		ir.OpTypeCast: // !TypeCheckException
		return true
	}
	return false
}

// IsAlloc reports whether in allocates on the modeled heap (the ops
// charged by interp.ChargeHeap).
func IsAlloc(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpNewObject, ir.OpMakeTuple, ir.OpMakeClosure, ir.OpMakeBound,
		ir.OpArrayNew, ir.OpConstString, ir.OpEnumName:
		return true
	}
	return false
}

// Promotable reports whether in is a statically-sized allocation the
// optimizer may stack-promote when it does not escape. Arrays and
// strings are excluded: their size is dynamic (or the template of a
// shared constant), so they stay on the modeled heap.
func Promotable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpNewObject, ir.OpMakeTuple, ir.OpMakeClosure, ir.OpMakeBound:
		return true
	}
	return false
}
