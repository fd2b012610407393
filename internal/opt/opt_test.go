package opt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
	"repro/internal/types"
)

// compileNorm compiles source through mono+norm, ready for opt.
func compileNorm(t *testing.T, source string) *ir.Module {
	t.Helper()
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", source, errs)
	if !errs.Empty() {
		t.Fatalf("parse errors:\n%s", errs.Error())
	}
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		t.Fatalf("check errors:\n%s", errs.Error())
	}
	mod, err := lower.Lower(context.Background(), prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	monoMod, _, err := mono.Monomorphize(context.Background(), mod, mono.Config{})
	if err != nil {
		t.Fatal(err)
	}
	normMod, _, err := norm.Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	return normMod
}

func run(t *testing.T, mod *ir.Module) string {
	t.Helper()
	var out strings.Builder
	it := interp.New(mod, interp.Options{Out: &out})
	if _, err := it.Run(); err != nil {
		t.Fatalf("run error: %v\noutput: %s", err, out.String())
	}
	return out.String()
}

// TestCorpusPreserved: optimization preserves observable behaviour on
// the whole corpus.
func TestCorpusPreserved(t *testing.T) {
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			mod := compileNorm(t, p.Source)
			st, _ := Optimize(context.Background(), mod, Config{})
			if err := mod.Validate(); err != nil {
				t.Fatalf("invalid IR after optimization: %v", err)
			}
			got := run(t, mod)
			if got != p.Want {
				t.Fatalf("got %q, want %q", got, p.Want)
			}
			if st.InstrsAfter > st.InstrsBefore*2 {
				t.Errorf("optimization grew code unreasonably: %d -> %d", st.InstrsBefore, st.InstrsAfter)
			}
		})
	}
}

// TestConstantFolding: constant arithmetic folds to a constant return.
func TestConstantFolding(t *testing.T) {
	mod := compileNorm(t, `
def f() -> int {
	var a = 2 + 3 * 4;
	var b = a << 2;
	return b - 1;
}
def main() { System.puti(f()); }
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if got := run(t, mod); got != "55" {
		t.Fatalf("got %q", got)
	}
	if st.InstrsRemoved == 0 {
		t.Error("expected dead instructions removed after folding")
	}
	// f should contain no arithmetic after folding.
	for _, f := range mod.Funcs {
		if f.Name != "f" {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
					t.Errorf("f still contains %s after constant folding", in.Op)
				}
			}
		}
	}
}

// TestQueryFolding: prim-vs-prim queries fold, class queries stay
// dynamic (null may fail them at runtime).
func TestQueryFolding(t *testing.T) {
	mod := compileNorm(t, `
class A { }
class B extends A { }
def classify<T>(x: T) -> int {
	if (int.?(x)) return 1;
	if (bool.?(x)) return 2;
	return 0;
}
def main() {
	System.puti(classify(5));
	System.puti(classify(false));
	var a: A = B.new();
	System.putb(B.?(a));
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.QueriesFolded == 0 {
		t.Error("expected primitive queries to fold")
	}
	dynamicQueries := 0
	for _, f := range mod.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpTypeQuery {
					dynamicQueries++
					if _, isClass := in.Type.(*types.Class); !isClass {
						t.Errorf("non-class query survived folding: %s", in)
					}
				}
			}
		}
	}
	if dynamicQueries == 0 {
		t.Error("class downcast query must stay dynamic")
	}
	if got := run(t, mod); got != "12true" {
		t.Fatalf("got %q", got)
	}
}

// TestUpcastElided: casts to a supertype become moves.
func TestUpcastElided(t *testing.T) {
	mod := compileNorm(t, `
class A { def id() -> int { return 1; } }
class B extends A { }
def main() {
	var b = B.new();
	var a = A.!(b);
	System.puti(a.id());
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.CastsElided == 0 {
		t.Error("upcast should be elided")
	}
	if got := run(t, mod); got != "1" {
		t.Fatalf("got %q", got)
	}
}

// TestInlining: small functions get inlined into callers.
func TestInlining(t *testing.T) {
	mod := compileNorm(t, `
def add3(x: int) -> int { return x + 3; }
def main() { System.puti(add3(add3(1))); }
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.Inlined == 0 {
		t.Error("expected inlining")
	}
	if got := run(t, mod); got != "7" {
		t.Fatalf("got %q", got)
	}
	// After inlining and folding, main should call nothing but the
	// builtin.
	for _, f := range mod.Funcs {
		if f.Name != "main" {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpCallStatic {
					t.Errorf("main still contains a static call after inlining")
				}
			}
		}
	}
}

// TestNoInlineParamWriters: functions that assign their parameters are
// not inlined (splicing would clobber caller registers).
func TestNoInlineParamWriters(t *testing.T) {
	mod := compileNorm(t, `
def bump(x: int) -> int { x = x + 1; return x; }
def main() {
	var a = 5;
	System.puti(bump(a));
	System.puti(a);
}
`)
	Optimize(context.Background(), mod, Config{})
	if got := run(t, mod); got != "65" {
		t.Fatalf("got %q (caller register clobbered?)", got)
	}
}

// TestBranchFoldingRemovesDeadBlocks: constant conditions eliminate
// entire branches.
func TestBranchFoldingRemovesDeadBlocks(t *testing.T) {
	mod := compileNorm(t, `
def main() {
	if (1 < 2) System.puts("yes");
	else System.puts("no");
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.BranchesFolded == 0 {
		t.Error("expected the constant branch to fold")
	}
	if got := run(t, mod); got != "yes" {
		t.Fatalf("got %q", got)
	}
	for _, f := range mod.Funcs {
		if f.Name != "main" {
			continue
		}
		s := f.String()
		if strings.Contains(s, `"no"`) {
			t.Error("dead else branch survived")
		}
	}
}

// TestOptimizeIdempotent: a second run changes nothing.
func TestOptimizeIdempotent(t *testing.T) {
	p := testprogs.Get("print1_j")
	mod := compileNorm(t, p.Source)
	Optimize(context.Background(), mod, Config{})
	before := mod.NumInstrs()
	st, _ := Optimize(context.Background(), mod, Config{})
	if mod.NumInstrs() != before {
		t.Errorf("second optimize changed size: %d -> %d", before, mod.NumInstrs())
	}
	_ = st
}

// TestSnapshotReuse: under Config.Record, a function whose body did
// not change since the previous round's snapshot (not inlined into in
// that round, not folded in this one) keeps the same *Snapshot, and a
// function that was inlined into or folded gets a new one.
func TestSnapshotReuse(t *testing.T) {
	mod := compileNorm(t, `
def leaf(x: int) -> int { return x + 1; }
def mid(x: int) -> int { return leaf(x) * 2; }
def top(x: int) -> int { return mid(x) - 3; }
def long(x: int) -> int {
	var a = 1;
	var b = a + 1;
	var c = b + 1;
	var d = c + 1;
	var e = d + 1;
	var f = e + 1;
	var g = f + 1;
	return x + g;
}
def main() { System.puti(top(4)); System.puti(long(2)); }
`)
	rec := &Recording{}
	if _, err := Optimize(context.Background(), mod, Config{Record: rec}); err != nil {
		t.Fatal(err)
	}
	if got := run(t, mod); got != "79" {
		t.Fatalf("output = %q, want 79", got)
	}
	if len(rec.Rounds) < 3 {
		t.Fatalf("recorded %d rounds, want at least 3", len(rec.Rounds))
	}
	snap := func(r int, name string) *Snapshot {
		t.Helper()
		s := rec.Rounds[r].Snaps[name]
		if s == nil {
			t.Fatalf("round %d has no snapshot of %s", r, name)
		}
		return s
	}
	// leaf never changes.
	for r := 1; r < len(rec.Rounds); r++ {
		if snap(r, "leaf") != snap(0, "leaf") {
			t.Errorf("round %d: leaf got a new snapshot though it never changed", r)
		}
	}
	// mid is inlined into in round 0, and in round 1 only folds the
	// splice's moves; round 2 reuses round 1's snapshot.
	if snap(1, "mid") == snap(0, "mid") {
		t.Error("round 1: mid kept its snapshot though leaf was inlined into it in round 0")
	}
	if snap(2, "mid") != snap(1, "mid") {
		t.Error("round 2: mid got a new snapshot though round 1 did not inline into it and round 2 did not fold it")
	}
	// long calls nothing, but needs more fold passes than one round runs.
	if !rec.Rounds[1].Changed["long"] || snap(1, "long") == snap(0, "long") {
		t.Error("round 1: long folded but kept its round 0 snapshot")
	}
	// Generally: no change in the previous round or this one means the
	// same snapshot.
	for r := 1; r < len(rec.Rounds); r++ {
		prev, cur := rec.Rounds[r-1], rec.Rounds[r]
		for name, s := range cur.Snaps {
			if ps := prev.Snaps[name]; ps != nil && !prev.Changed[name] && !cur.Changed[name] && ps != s {
				t.Errorf("round %d: unchanged %s got a new snapshot", r, name)
			}
		}
	}
}

// TestOptimizeAllocs pins the optimizer's allocation rate, analysis
// runs included, on an unoptimized progen Scale 4 module. The passes
// reuse scratch tables sized to the largest function seen, copy a
// block's instruction slice only when they change it, and keep an
// unchanged function's inline snapshot across rounds; with all of that
// a run measures about 9.3k allocations, and without it about 61k.
// The 20k ceiling fails if per-function or per-block allocation comes
// back.
func TestOptimizeAllocs(t *testing.T) {
	const runs = 4
	source := progen.Generate(progen.Scale(4))
	// AllocsPerRun makes one warm-up call before the measured ones, and
	// Optimize rewrites its module, so every call gets a fresh module.
	mods := make([]*ir.Module, runs+1)
	for i := range mods {
		mods[i] = compileNorm(t, source)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		mod := mods[next]
		next++
		if _, err := Optimize(context.Background(), mod, Config{Analyze: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("opt.Optimize{Analyze: true} on progen Scale 4: %.0f allocs/run", allocs)
	if allocs > 20000 {
		t.Errorf("opt.Optimize allocs/run = %.0f, want <= 20000: the optimizer's allocation diet regressed", allocs)
	}
}
