package analysis

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/typecheck"
)

// compile lowers source through mono (and optionally norm) without
// optimization, so the IR still contains the shapes the analyses
// classify: tuples survive when normalize is false, and no pass has
// deleted dead code.
func compile(t *testing.T, source string, normalize bool) *ir.Module {
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
	if !normalize {
		return monoMod
	}
	normMod, _, err := norm.Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	return normMod
}

func analyze(t *testing.T, mod *ir.Module) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func funcByName(t *testing.T, mod *ir.Module, name string) *ir.Func {
	t.Helper()
	for _, f := range mod.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %q not in module", name)
	return nil
}

func TestCallGraphStaticResolution(t *testing.T) {
	mod := compile(t, `
def helper(x: int) -> int { return x * 2; }
def main() { System.puti(helper(21)); }
`, true)
	res := analyze(t, mod)
	cg := res.CallGraph

	mainFn := funcByName(t, mod, "main")
	helper := funcByName(t, mod, "helper")

	node := cg.NodeFor(mainFn)
	found := false
	for _, c := range node.Callees {
		if c == helper {
			found = true
		}
	}
	if !found {
		t.Error("main's callees do not include helper")
	}
	if !cg.Reachable[helper] {
		t.Error("helper should be reachable from main")
	}
	if node.Unresolved != 0 {
		t.Errorf("main has %d unresolved sites, want 0", node.Unresolved)
	}
}

func TestCallGraphVirtualTargets(t *testing.T) {
	mod := compile(t, `
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
class C extends A { def m() -> int { return 3; } }
def main() {
	var a: A = B.new();
	System.puti(a.m());
}
`, true)
	res := analyze(t, mod)
	cg := res.CallGraph

	// RTA: only B is instantiated, so the virtual site has exactly one
	// target even though A has three implementations.
	instantiated := 0
	for c := range cg.Instantiated {
		_ = c
		instantiated++
	}
	if instantiated != 1 {
		t.Errorf("instantiated classes = %d, want 1 (only B.new runs)", instantiated)
	}
	mainFn := funcByName(t, mod, "main")
	node := cg.NodeFor(mainFn)
	for in, targets := range node.Sites {
		if in.Op != ir.OpCallVirtual {
			continue
		}
		if targets == nil {
			t.Fatal("virtual site unresolved; RTA should resolve it")
		}
		if len(targets) != 1 {
			t.Fatalf("virtual site has %d targets, want 1", len(targets))
		}
	}
}

func TestCallGraphCycles(t *testing.T) {
	mod := compile(t, `
def even(n: int) -> bool { if (n == 0) return true; return odd(n - 1); }
def odd(n: int) -> bool { if (n == 0) return false; return even(n - 1); }
def leaf(x: int) -> int { return x + 1; }
def main() {
	if (even(4)) System.puti(leaf(1));
}
`, true)
	res := analyze(t, mod)
	cg := res.CallGraph
	if !cg.NodeFor(funcByName(t, mod, "even")).InCycle {
		t.Error("even is mutually recursive; want InCycle")
	}
	if !cg.NodeFor(funcByName(t, mod, "odd")).InCycle {
		t.Error("odd is mutually recursive; want InCycle")
	}
	if cg.NodeFor(funcByName(t, mod, "leaf")).InCycle {
		t.Error("leaf is not recursive; InCycle should be false")
	}
}

func TestEscapeClosures(t *testing.T) {
	mod := compile(t, `
def inc(x: int) -> int { return x + 1; }
def call(f: int -> int) -> int { return f(3); }
def local() -> int { return call(inc); }
def leak(f: int -> int) -> int -> int { return f; }
def main() {
	System.puti(local());
	System.puti(leak(inc)(4));
}
`, true)
	res := analyze(t, mod)

	// In call, parameter f is only invoked (the indirect call's callee
	// operand), never stored or returned: it must not escape.
	callFacts := res.FactsFor(funcByName(t, mod, "call"))
	if len(callFacts.ParamEscapes) == 0 || callFacts.ParamEscapes[0] {
		t.Errorf("call's closure param should not escape: %v", callFacts.ParamEscapes)
	}
	// leak returns its parameter, so it escapes.
	leakFacts := res.FactsFor(funcByName(t, mod, "leak"))
	if len(leakFacts.ParamEscapes) == 0 || !leakFacts.ParamEscapes[0] {
		t.Errorf("leak returns its param; want escape: %v", leakFacts.ParamEscapes)
	}
	// The closure made in local flows only into call's non-escaping
	// parameter, so its alloc site is frame-local.
	localFacts := res.FactsFor(funcByName(t, mod, "local"))
	nonEsc := 0
	for _, site := range localFacts.AllocSites {
		if !site.Escapes {
			nonEsc++
		}
	}
	if nonEsc == 0 {
		t.Error("the closure made in local should be non-escaping")
	}
	// The closure made in main for leak(inc) escapes through leak.
	mainFacts := res.FactsFor(funcByName(t, mod, "main"))
	esc := 0
	for _, site := range mainFacts.AllocSites {
		if site.Escapes {
			esc++
		}
	}
	if esc == 0 {
		t.Error("the closure passed to leak should escape")
	}
}

func TestEffects(t *testing.T) {
	mod := compile(t, `
class G { var x: int; new(x) { } def set(v: int) { x = v; } }
def pureAdd(a: int, b: int) -> int { return a + b; }
def printer(v: int) { System.puti(v); }
def viaPure(v: int) -> int { return pureAdd(v, 1); }
def viaIO(v: int) { printer(v); }
def fib(n: int) -> int { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
def main() {
	var g = G.new(0);
	g.set(viaPure(1));
	viaIO(g.x);
	System.puti(fib(5));
}
`, true)
	res := analyze(t, mod)
	facts := func(name string) Effect {
		return res.FactsFor(funcByName(t, mod, name)).Effects
	}
	if e := facts("pureAdd"); !e.Pure() || !e.Deterministic() {
		t.Errorf("pureAdd effects = %v, want pure and deterministic", e)
	}
	if e := facts("viaPure"); !e.Pure() {
		t.Errorf("viaPure calls only a pure function; effects = %v", e)
	}
	if e := facts("printer"); e&EffIO == 0 || e.Pure() {
		t.Errorf("printer does IO; effects = %v", e)
	}
	if e := facts("viaIO"); e&EffIO == 0 {
		t.Errorf("viaIO transitively does IO; effects = %v", e)
	}
	if e := facts("G.set"); e&EffHeapWrite == 0 {
		t.Errorf("G.set stores a field; effects = %v", e)
	}
	if e := facts("fib"); e&EffDiverge == 0 {
		t.Errorf("fib is recursive; want diverge bit, got %v", e)
	}
}

func TestIntervals(t *testing.T) {
	mod := compile(t, `
def main() {
	var x = 5;
	var y = x + 2;
	System.puti(y);
}
`, true)
	res := analyze(t, mod)
	facts := res.FactsFor(funcByName(t, mod, "main"))
	sum := SummarizeIntervals(computeIntervals(facts.Fn, BuildCFG(facts.Fn)))
	if sum.Consts == 0 {
		t.Errorf("expected constant intervals in main, got %+v", sum)
	}
	if sum.Total == 0 {
		t.Error("no intervals computed at all")
	}
	// Intervals reach users only through the analyze report, which
	// computes them itself; it must carry the same rollup.
	out, err := ReportJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	for _, rf := range rep.Functions {
		if rf.Name == "main" {
			if got := IntervalSummary(rf.Intervals); got != sum {
				t.Errorf("report intervals for main = %+v, want %+v", got, sum)
			}
			return
		}
	}
	t.Error("report has no entry for main")
}

func TestIntervalJoinWiden(t *testing.T) {
	a := point(1)
	b := point(10)
	j := a.join(b)
	if !j.Known || j.Lo != 1 || j.Hi != 10 {
		t.Errorf("join(1,10) = %+v", j)
	}
	unk := Interval{}
	if j2 := j.join(unk); j2.Known {
		t.Errorf("join with unknown should be unknown, got %+v", j2)
	}
}

func TestVerifyPromotions(t *testing.T) {
	mod := compile(t, `
def inc(x: int) -> int { return x + 1; }
def call(f: int -> int) -> int { return f(3); }
def leak(f: int -> int) -> int -> int { return f; }
def main() {
	System.puti(call(inc));
	System.puti(leak(inc)(4));
}
`, true)
	res := analyze(t, mod)
	if err := VerifyPromotions(mod, res); err != nil {
		t.Fatalf("clean module failed verification: %v", err)
	}
	// Mark the non-escaping closure: still verifies.
	mainFn := funcByName(t, mod, "main")
	facts := res.FactsFor(mainFn)
	var escaping, safe *ir.Instr
	for _, site := range facts.AllocSites {
		if !Promotable(site.Instr) {
			continue
		}
		if site.Escapes {
			escaping = site.Instr
		} else {
			safe = site.Instr
		}
	}
	if safe != nil {
		safe.StackAlloc = true
		if err := VerifyPromotions(mod, res); err != nil {
			t.Errorf("non-escaping promotion rejected: %v", err)
		}
		safe.StackAlloc = false
	}
	if escaping == nil {
		t.Fatal("test program should have an escaping promotable alloc in main")
	}
	escaping.StackAlloc = true
	if err := VerifyPromotions(mod, res); err == nil {
		t.Error("escaping promotion passed verification; want error")
	}
	escaping.StackAlloc = false
}
