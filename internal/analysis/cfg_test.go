package analysis

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/types"
)

// TestBuildCFGShapes: table-driven structural checks over lowered
// control flow. Exact block counts depend on the lowering strategy, so
// the table asserts invariants (edge symmetry, RPO coverage) plus the
// properties the analyses consume: loop membership and trap exits.
func TestBuildCFGShapes(t *testing.T) {
	cases := []struct {
		name     string
		source   string
		fn       string
		wantLoop bool
		minBlks  int
	}{
		{
			name: "straightline",
			source: `
def f(x: int) -> int { return x + 1; }
def main() { System.puti(f(1)); }
`,
			fn: "f", wantLoop: false, minBlks: 1,
		},
		{
			name: "branch",
			source: `
def f(x: int) -> int { if (x > 0) return 1; return 0 - 1; }
def main() { System.puti(f(1)); }
`,
			fn: "f", wantLoop: false, minBlks: 3,
		},
		{
			name: "loop",
			source: `
def f(n: int) -> int {
	var t = 0;
	for (i = 0; i < n; i++) t = t + i;
	return t;
}
def main() { System.puti(f(5)); }
`,
			fn: "f", wantLoop: true, minBlks: 3,
		},
		{
			name: "nested_loop",
			source: `
def f(n: int) -> int {
	var t = 0;
	for (i = 0; i < n; i++) {
		for (j = 0; j < i; j++) t = t + 1;
	}
	return t;
}
def main() { System.puti(f(4)); }
`,
			fn: "f", wantLoop: true, minBlks: 5,
		},
		{
			name: "while_break",
			source: `
def f(n: int) -> int {
	var i = 0;
	while (true) {
		if (i >= n) break;
		i++;
	}
	return i;
}
def main() { System.puti(f(3)); }
`,
			fn: "f", wantLoop: true, minBlks: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := compile(t, tc.source, true)
			f := funcByName(t, mod, tc.fn)
			g := BuildCFG(f)

			if len(g.Blocks) < tc.minBlks {
				t.Errorf("got %d blocks, want at least %d", len(g.Blocks), tc.minBlks)
			}
			// Every forward edge must have a matching backward edge.
			for b, succs := range g.Succs {
				for _, s := range succs {
					found := false
					for _, p := range g.Preds[s] {
						if p == b {
							found = true
						}
					}
					if !found {
						t.Errorf("edge %d->%d has no pred entry", b, s)
					}
				}
			}
			// RPO covers every block exactly once, entry first.
			if len(g.RPO) != len(g.Blocks) {
				t.Errorf("RPO covers %d of %d blocks", len(g.RPO), len(g.Blocks))
			}
			seen := map[int]bool{}
			for _, b := range g.RPO {
				if seen[b] {
					t.Errorf("block %d appears twice in RPO", b)
				}
				seen[b] = true
			}
			if len(g.RPO) > 0 && g.RPO[0] != 0 {
				t.Errorf("RPO starts at block %d, want entry (0)", g.RPO[0])
			}
			hasLoop := false
			for _, in := range g.InLoop {
				if in {
					hasLoop = true
				}
			}
			if hasLoop != tc.wantLoop {
				t.Errorf("hasLoop = %v, want %v", hasLoop, tc.wantLoop)
			}
		})
	}
}

// TestHasLoopAgreesWithCFG: hasLoop finds a cycle exactly when
// BuildCFG marks some block InLoop, on hand-built block graphs. succs
// lists each block's targets by index; foreignLow and foreignHigh stand
// for blocks of another function, whose IDs alias one of ours or lie
// past our NumBlocks. Both must be ignored, as BuildCFG ignores them.
func TestHasLoopAgreesWithCFG(t *testing.T) {
	const (
		foreignLow  = -1
		foreignHigh = -2
	)
	cases := []struct {
		name  string
		succs [][]int
		want  bool
	}{
		{"straight_line", [][]int{{1}, {2}, {}}, false},
		{"diamond", [][]int{{1, 2}, {3}, {3}, {}}, false},
		{"self_loop", [][]int{{1}, {1, 2}, {}}, true},
		{"natural_loop", [][]int{{1}, {2, 3}, {1}, {}}, true},
		{"unreachable_cycle", [][]int{{}, {2}, {1}}, true},
		{"foreign_alias", [][]int{{foreignLow}}, false},
		{"foreign_past_end", [][]int{{1}, {foreignHigh, 0}}, true},
		{"foreign_only_exit", [][]int{{1, foreignHigh}, {foreignLow}}, false},
	}
	tc := types.NewCache()
	other := &ir.Func{Name: "other", Results: []types.Type{tc.Void()}, VtSlot: -1}
	low := other.NewBlock()
	low.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	high := &ir.Block{ID: 7, Instrs: []*ir.Instr{{Op: ir.OpRet}}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &ir.Func{Name: "f", Results: []types.Type{tc.Void()}, VtSlot: -1}
			for range c.succs {
				f.NewBlock()
			}
			cond := f.NewReg(tc.Bool(), "")
			for i, succ := range c.succs {
				var targets []*ir.Block
				for _, j := range succ {
					switch j {
					case foreignLow:
						targets = append(targets, low)
					case foreignHigh:
						targets = append(targets, high)
					default:
						targets = append(targets, f.Blocks[j])
					}
				}
				var term *ir.Instr
				switch len(targets) {
				case 0:
					term = &ir.Instr{Op: ir.OpRet}
				case 1:
					term = &ir.Instr{Op: ir.OpJump, Blocks: targets}
				default:
					term = &ir.Instr{Op: ir.OpBranch, Args: []*ir.Reg{cond}, Blocks: targets}
				}
				f.Blocks[i].Instrs = []*ir.Instr{term}
			}
			cfgLoop := slices.Contains(BuildCFG(f).InLoop, true)
			if got := hasLoop(f); got != cfgLoop || got != c.want {
				t.Errorf("hasLoop = %v, BuildCFG loop = %v, want %v", got, cfgLoop, c.want)
			}
		})
	}
}

func TestSCCs(t *testing.T) {
	mod := compile(t, `
def f(n: int) -> int {
	var t = 0;
	for (i = 0; i < n; i++) t = t + i;
	return t;
}
def main() { System.puti(f(5)); }
`, true)
	g := BuildCFG(funcByName(t, mod, "f"))
	sccs := g.SCCs()
	total := 0
	nontrivial := 0
	for _, scc := range sccs {
		total += len(scc)
		if len(scc) > 1 {
			nontrivial++
		}
	}
	if total != len(g.Blocks) {
		t.Errorf("SCCs cover %d of %d blocks", total, len(g.Blocks))
	}
	if nontrivial == 0 {
		t.Error("loop function should have a non-trivial SCC")
	}
}

func TestMayTrap(t *testing.T) {
	trapping := []ir.Op{
		ir.OpDiv, ir.OpMod, ir.OpNullCheck, ir.OpFieldLoad, ir.OpFieldStore,
		ir.OpCallVirtual, ir.OpMakeBound, ir.OpCallIndirect, ir.OpArrayNew,
		ir.OpArrayLoad, ir.OpArrayStore, ir.OpArrayLen, ir.OpTypeCast,
	}
	for _, op := range trapping {
		if !MayTrap(&ir.Instr{Op: op}) {
			t.Errorf("MayTrap(%v) = false, want true", op)
		}
	}
	benign := []ir.Op{ir.OpAdd, ir.OpMove, ir.OpConstInt, ir.OpMakeTuple, ir.OpJump, ir.OpRet}
	for _, op := range benign {
		if MayTrap(&ir.Instr{Op: op}) {
			t.Errorf("MayTrap(%v) = true, want false", op)
		}
	}
}

func TestIsAllocAndPromotable(t *testing.T) {
	allocs := []ir.Op{
		ir.OpNewObject, ir.OpMakeTuple, ir.OpMakeClosure, ir.OpMakeBound,
		ir.OpArrayNew, ir.OpConstString, ir.OpEnumName,
	}
	for _, op := range allocs {
		if !IsAlloc(&ir.Instr{Op: op}) {
			t.Errorf("IsAlloc(%v) = false, want true", op)
		}
	}
	if IsAlloc(&ir.Instr{Op: ir.OpAdd}) {
		t.Error("IsAlloc(add) = true")
	}
	// Only statically-sized allocations are promotable: arrays carry a
	// runtime length and strings/enum names are interned, so the
	// promotion set is strictly smaller than the alloc set.
	promotable := []ir.Op{ir.OpNewObject, ir.OpMakeTuple, ir.OpMakeClosure, ir.OpMakeBound}
	for _, op := range promotable {
		if !Promotable(&ir.Instr{Op: op}) {
			t.Errorf("Promotable(%v) = false, want true", op)
		}
	}
	for _, op := range []ir.Op{ir.OpArrayNew, ir.OpConstString, ir.OpEnumName, ir.OpAdd} {
		if Promotable(&ir.Instr{Op: op}) {
			t.Errorf("Promotable(%v) = true, want false", op)
		}
	}
}
