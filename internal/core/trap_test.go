package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
)

// trapProgs trigger each Virgil-level trap inside a function called
// from main, so every trap carries a multi-frame source-level trace.
// Each helper contains control flow so the optimizer's inliner (single
// block, ≤16 instrs) cannot collapse its frame under Compiled().
var trapProgs = []struct {
	name string // expected VirgilError.Name
	msg  string // expected VirgilError.Msg; empty skips the check
	src  string
}{
	{"!NullCheckException", "", `
class C {
	var x: int;
}
def deref(c: C) -> int {
	if (c == null) return c.x;
	return c.x;
}
def main() -> int {
	var c: C;
	return deref(c);
}
`},
	{"!BoundsCheckException", "", `
def get(a: Array<int>, i: int) -> int {
	if (i >= 0) return a[i];
	return 0;
}
def main() -> int {
	var a = Array<int>.new(3);
	return get(a, 5);
}
`},
	{"!DivideByZeroException", "", `
def div(a: int, b: int) -> int {
	if (b != 1) return a / b;
	return a;
}
def main() -> int {
	return div(7, 0);
}
`},
	{"!TypeCheckException", "", `
def narrow(x: int) -> byte {
	if (x > 255) return byte.!(x);
	return byte.!(x);
}
def main() -> int {
	return int.!(narrow(1000));
}
`},
	{"!TypeCheckException", "IntBox is not a Box<bool>", `
class Any { }
class Box<T> extends Any { }
class IntBox extends Box<int> { }
def unbox(x: Any) -> Box<bool> {
	if (x != null) return Box<bool>.!(x);
	return null;
}
def main() -> int {
	var b = unbox(IntBox.new());
	return 0;
}
`},
	{"!StackOverflow", "", `
def spin(n: int) -> int {
	if (n > 0) return spin(n + 1);
	return n;
}
def main() -> int {
	return spin(1);
}
`},
}

// trapConfigs are the two canonical pipeline configurations, with a
// small depth guard so the !StackOverflow case stays fast.
func trapConfigs() []core.Config {
	ref := core.Reference()
	full := core.Compiled()
	ref.MaxDepth = 64
	full.MaxDepth = 64
	return []core.Config{ref, full}
}

// TestTrapsCarryTraces asserts every trap surfaces with the same
// language-level name under the reference interpreter and the full
// compiled pipeline, and that each carries a non-empty stack trace
// whose frames all have a function name and source position.
func TestTrapsCarryTraces(t *testing.T) {
	for _, tp := range trapProgs {
		t.Run(tp.name, func(t *testing.T) {
			for _, cfg := range trapConfigs() {
				comp, err := core.Compile("trap.v", tp.src, cfg)
				if err != nil {
					t.Fatalf("[%s] compile: %v", cfg.Name(), err)
				}
				res := comp.Run()
				ve, ok := res.Err.(*interp.VirgilError)
				if !ok {
					t.Fatalf("[%s] want *interp.VirgilError, got %T: %v", cfg.Name(), res.Err, res.Err)
				}
				if ve.Name != tp.name {
					t.Errorf("[%s] trap name = %q, want %q", cfg.Name(), ve.Name, tp.name)
				}
				if tp.msg != "" && ve.Msg != tp.msg {
					t.Errorf("[%s] trap message = %q, want %q", cfg.Name(), ve.Msg, tp.msg)
				}
				checkTrace(t, cfg, ve)
			}
		})
	}
}

// TestCallArityTrapCarriesTrace covers !CallArityException, which a
// well-typed program cannot raise from source: it fires at the
// embedding boundary when a host caller invokes an exported function
// with the wrong argument count. It must behave identically under both
// configurations.
func TestCallArityTrapCarriesTrace(t *testing.T) {
	src := `
def add(a: int, b: int) -> int {
	if (a == 0) return b;
	return a + b;
}
def main() -> int {
	return add(1, 2);
}
`
	for _, cfg := range trapConfigs() {
		comp, err := core.Compile("arity.v", src, cfg)
		if err != nil {
			t.Fatalf("[%s] compile: %v", cfg.Name(), err)
		}
		it := comp.Interp(nil)
		_, err = it.CallFunc("add", interp.IntVal(1))
		ve, ok := err.(*interp.VirgilError)
		if !ok {
			t.Fatalf("[%s] want *interp.VirgilError, got %T: %v", cfg.Name(), err, err)
		}
		if ve.Name != "!CallArityException" {
			t.Errorf("[%s] trap name = %q, want !CallArityException", cfg.Name(), ve.Name)
		}
		checkTrace(t, cfg, ve)
	}
}

func checkTrace(t *testing.T, cfg core.Config, ve *interp.VirgilError) {
	t.Helper()
	if len(ve.Trace) == 0 {
		t.Fatalf("[%s] %s: empty stack trace", cfg.Name(), ve.Name)
	}
	for k, fr := range ve.Trace {
		if fr.Func == "" {
			t.Errorf("[%s] %s: frame %d has no function name", cfg.Name(), ve.Name, k)
		}
		if !fr.Pos.IsValid() {
			t.Errorf("[%s] %s: frame %d (%s) has no source position", cfg.Name(), ve.Name, k, fr.Func)
		}
	}
}

// TestNullDerefTraceDepth is the paper's §2 safety story end to end: a
// null dereference three calls deep yields a trace with at least three
// frames, innermost first, under both configurations.
func TestNullDerefTraceDepth(t *testing.T) {
	src := `
class C {
	var x: int;
}
def h(c: C) -> int {
	if (c == null) return c.x;
	return c.x;
}
def g(c: C) -> int {
	if (c == null) return h(c);
	return h(c);
}
def f() -> int {
	var c: C;
	if (c == null) return g(c);
	return 0;
}
def main() -> int {
	return f();
}
`
	for _, cfg := range []core.Config{core.Reference(), core.Compiled()} {
		comp, err := core.Compile("nulldeep.v", src, cfg)
		if err != nil {
			t.Fatalf("[%s] compile: %v", cfg.Name(), err)
		}
		res := comp.Run()
		ve, ok := res.Err.(*interp.VirgilError)
		if !ok || ve.Name != "!NullCheckException" {
			t.Fatalf("[%s] want !NullCheckException, got %v", cfg.Name(), res.Err)
		}
		if len(ve.Trace) < 3 {
			t.Fatalf("[%s] want >=3 frames, got %d:\n%s", cfg.Name(), len(ve.Trace), ve.TraceString())
		}
		want := []string{"h", "g", "f", "main"}
		for k, name := range want {
			if k >= len(ve.Trace) {
				break
			}
			fr := ve.Trace[k]
			if fr.Func != name {
				t.Errorf("[%s] frame %d = %q, want %q", cfg.Name(), k, fr.Func, name)
			}
			if !fr.Pos.IsValid() {
				t.Errorf("[%s] frame %d (%s) missing source position", cfg.Name(), k, fr.Func)
			}
		}
	}
}

// TestResourceGuards asserts the step budget and wall-clock deadline
// stop a divergent program with a graceful ResourceError, and that the
// !StackOverflow depth guard reports a bounded (elided) trace.
func TestResourceGuards(t *testing.T) {
	loop := `
def main() -> int {
	var n = 0;
	while (true) n = n + 1;
	return n;
}
`
	cfg := core.Reference()
	cfg.MaxSteps = 10_000
	comp, err := core.Compile("loop.v", loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := comp.Run()
	re, ok := res.Err.(*interp.ResourceError)
	if !ok || re.Kind != "steps" {
		t.Fatalf("want steps ResourceError, got %T: %v", res.Err, res.Err)
	}

	cfg = core.Reference()
	cfg.Timeout = 50 * 1e6 // 50ms in nanoseconds
	comp, err = core.Compile("loop.v", loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = comp.Run()
	re, ok = res.Err.(*interp.ResourceError)
	if !ok || re.Kind != "deadline" {
		t.Fatalf("want deadline ResourceError, got %T: %v", res.Err, res.Err)
	}

	deep := `
def spin(n: int) -> int {
	if (n > 0) return spin(n + 1);
	return n;
}
def main() -> int {
	return spin(1);
}
`
	cfg = core.Reference()
	cfg.MaxDepth = 1000
	comp, err = core.Compile("deep.v", deep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = comp.Run()
	ve, ok := res.Err.(*interp.VirgilError)
	if !ok || ve.Name != "!StackOverflow" {
		t.Fatalf("want !StackOverflow, got %v", res.Err)
	}
	if ve.Elided == 0 {
		t.Errorf("1000-deep overflow should elide frames, trace len %d elided %d", len(ve.Trace), ve.Elided)
	}
}
