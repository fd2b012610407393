package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/progen"
)

// TestTranslateAllocs pins bytecode translation's allocation rate on a
// compiled progen Scale 4 module, the module edit-loop re-translates
// after every edit. Translation allocates the function records and
// register tables once per module; each function's code and position
// arrays once at their final size; call operands from one arena per
// function; and cold payloads in one exact-size table per function,
// only for the instructions that need one. Its ID-indexed tables are
// reused across functions. A run measures about 1,360 allocations,
// against 4,102 when code arrays grew by append and the tables were
// maps. The 1,690 ceiling (1.25x) fails if per-instruction or
// per-function allocation comes back.
func TestTranslateAllocs(t *testing.T) {
	comp, err := core.Compile("gen.v", progen.Generate(progen.Scale(4)), core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { engine.Compile(comp.Module) })
	t.Logf("engine.Compile on progen Scale 4: %.0f allocs/run", allocs)
	if allocs > 1690 {
		t.Errorf("engine.Compile allocs/run = %.0f, want <= 1690: translation's allocation diet regressed", allocs)
	}
}

// TestObjectQueryAllocs pins the allocation-free object query: a ? or !
// on an object walks its IR class chain and compares interned types, so
// neither engine allocates for it. Deciding it through the type cache
// cost at least 3 allocations per query (the argument copy, the *Class
// and the key string of the cache lookup). The loop keeps every int
// below 256, which Go boxes without allocating, so what is left per
// iteration is the query and the cast themselves.
func TestObjectQueryAllocs(t *testing.T) {
	comp, err := core.Compile("query.v", `
class Any { }
class Box<T> extends Any { var v: T; }
def make() -> Any { return Box<int>.new(); }
def probe(x: Any, n: int) -> int {
	var s = 0;
	for (i = 0; i < n; i++) {
		if (Box<int>.?(x)) s = s + 1;
		s = s + Box<int>.!(x).v;
	}
	return s;
}
def main() { System.puti(probe(make(), 1) + probe(Any.new(), 0)); }
`, core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	const iters = 200
	type caller func(name string, args ...interp.Value) ([]interp.Value, error)
	sw := comp.Interp(nil)
	bc, err := comp.Engine(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]caller{"switch": sw.CallFunc, "bytecode": bc.CallFunc} {
		res, err := call("make")
		if err != nil {
			t.Fatal(err)
		}
		x := res[0]
		perCall := testing.AllocsPerRun(10, func() {
			got, err := call("probe", x, interp.IntVal(iters))
			if err != nil || got[0] != interp.IntVal(iters) {
				t.Fatalf("%s: probe = %v, %v; want %d", name, got, err, iters)
			}
		})
		perIter := perCall / iters
		t.Logf("%s: %.2f allocs per iteration (%.0f per call)", name, perIter, perCall)
		if perIter >= 1 {
			t.Errorf("%s: %.2f Go allocs per query-and-cast iteration (%.0f per %d-iteration call), want < 1", name, perIter, perCall, iters)
		}
	}
}

// polySource alternates the receiver class at one virtual call site
// and the closure at one indirect call site on every call, so each
// call misses its monomorphic inline cache.
const polySource = `
class A { def m(k: int) -> int { return k + 1; } }
class B extends A { def m(k: int) -> int { return k + 2; } }
class C extends A { def m(k: int) -> int { return k + 3; } }
def poll(x: A, k: int) -> int { return x.m(k); }
def inc(x: int) -> int { return x + 1; }
def dec(x: int) -> int { return x - 1; }
def apply(f: int -> int, x: int) -> int { return f(x); }
def spin(n: int) -> int {
	var a = A.new();
	var b: A = B.new();
	var c: A = C.new();
	var f = inc;
	var g = dec;
	var s = 0;
	for (i = 0; i < n; i++) {
		var x = a;
		if (i % 3 == 1) x = b;
		if (i % 3 == 2) x = c;
		var h = f;
		if ((i & 1) == 1) h = g;
		s = s + apply(h, poll(x, i & 7));
	}
	return s;
}
def main() { System.puti(spin(30)); }
`

// TestPolymorphicCallAllocs pins allocation-free dispatch at call
// sites whose target changes on every call: a miss re-keys the site's
// inline cache in place and enters the new target straight from the
// argument registers. A megamorphic fallback that boxed the arguments
// of every call measured 1.54 allocations per call on this source.
func TestPolymorphicCallAllocs(t *testing.T) {
	comp, err := core.Compile("poly.v", polySource, core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	bc, err := comp.Engine(nil)
	if err != nil {
		t.Fatal(err)
	}
	const iters, callsPerIter = 96, 2
	want := 0
	for i := 0; i < iters; i++ {
		want += i&7 + i%3 + 1 // inc and dec alternate, so they cancel
	}
	perRun := testing.AllocsPerRun(10, func() {
		got, err := bc.CallFunc("spin", interp.IntVal(iters))
		if err != nil || got[0] != interp.IntVal(want) {
			t.Fatalf("spin = %v, %v; want %d", got, err, want)
		}
	})
	perCall := perRun / (iters * callsPerIter)
	t.Logf("bytecode: %.3f allocs per polymorphic call (%.0f per run)", perCall, perRun)
	if perCall >= 1 {
		t.Errorf("%.2f Go allocs per polymorphic virtual or indirect call (%.0f per %d-iteration run), want < 1", perCall, perRun, iters)
	}
}
