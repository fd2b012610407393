package opt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
)

// The profile-guided pass is tested the way it deploys: compile and
// optimize once, run under the profiling engine, then optimize a fresh
// module of the same source with the recorded profile — the tier-up
// recompile. Plus the adversarial case: a garbage profile must never
// change observable behavior.

// pollSource has a virtual site RTA cannot devirtualize (both A and B
// are instantiated and both override m) inside a hot loop.
const pollSource = `
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def poll(x: A) -> int { return x.m(); }
def main() {
	var i = 0;
	var s = 0;
	var a = A.new();
	var b: A = B.new();
	s = s + poll(a);
	while (i < 100) { s = s + poll(b); i = i + 1; }
	System.puti(s);
}
`

// recordProfile optimizes mod (in place), runs it under the profiling
// bytecode engine, and returns the recorded profile and the output.
func recordProfile(t *testing.T, mod *ir.Module, cfg Config) (*profile.Profile, string) {
	t.Helper()
	if _, err := Optimize(context.Background(), mod, cfg); err != nil {
		t.Fatal(err)
	}
	p := engine.Compile(mod)
	var out strings.Builder
	e := engine.New(p, interp.Options{Out: &out, Profile: true})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Profile(), out.String()
}

// TestGarbageProfileIsIgnored: hot counters under names no function
// of the module carries (an unknown function, a duplicate suffix past
// any real duplicate) must skip cleanly.
func TestGarbageProfileIsIgnored(t *testing.T) {
	prof := profile.New()
	pf := prof.FuncFor("no_such_function")
	pf.Calls, pf.Steps = 1000, 100000
	prof.FuncFor("poll#9").Calls = 1000 // duplicate suffix no walk assigns

	mod := compileNorm(t, pollSource)
	if _, err := Optimize(context.Background(), mod, Config{Analyze: true, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := run(t, mod); got != "201" {
		t.Fatalf("got %q, want 201", got)
	}
}

// TestHotInlineRaisedBudget: a callee too big for the conservative
// limit splices into a profile-hot loop under the raised budget.
func TestHotInlineRaisedBudget(t *testing.T) {
	src := `
def big(x: int) -> int {
	var a = x * 3 + 1;
	var b = a * 2 - 4;
	var c = b * 5 + a;
	var d = c * 7 - b;
	var e = d * 11 + c;
	var f = e * 13 - d;
	var g = f * 17 + e;
	var h = g * 19 - f;
	return h + g + f + e + d + c + b + a;
}
def main() {
	var i = 0;
	var s = 0;
	while (i < 500) { s = s + big(i); i = i + 1; }
	System.puti(s);
}
`
	cfg := Config{Analyze: true}
	mod1 := compileNorm(t, src)
	prof, want := recordProfile(t, mod1, cfg)

	mod2 := compileNorm(t, src)
	cfg.Profile = prof
	st, err := Optimize(context.Background(), mod2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.HotInlined == 0 {
		t.Skip("big() fit the default budget; raise the callee size if this trips")
	}
	if err := mod2.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := run(t, mod2); got != want {
		t.Fatalf("hot-inlined output %q != %q", got, want)
	}
}
