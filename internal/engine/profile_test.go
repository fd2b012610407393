package engine

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/profile"
)

// White-box tests for the inline caches, profile counter collection,
// and profile-driven run fusion.

func TestMonoSiteStaysInstalled(t *testing.T) {
	mod := compileMod(t, `
class A { def m() -> int { return 7; } }
def poll(x: A) -> int { return x.m(); }
def main() {
	var i = 0;
	var s = 0;
	var a = A.new();
	while (i < 50) { s = s + poll(a); i = i + 1; }
	System.puti(s);
}
`)
	p := Compile(mod)
	var out strings.Builder
	e := New(p, interp.Options{Out: &out})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "350" {
		t.Fatalf("output %q, want 350", out.String())
	}
	var site *icEntry
	for i := range e.ics {
		if e.ics[i].cls != nil {
			site = &e.ics[i]
		}
	}
	if site == nil {
		t.Fatal("no virtual site cached")
	}
	if site.cls.Name != "A" || site.fast == nil || site.fast.name != "A.m" {
		t.Errorf("mono site cached %q without a fast path to A.m", site.cls.Name)
	}
}

func TestProfileFuncCounters(t *testing.T) {
	mod := compileMod(t, `
def work(n: int) -> int {
	var i = 0;
	var s = 0;
	while (i < n) { s = s + i; i = i + 1; }
	return s;
}
def main() { System.puti(work(100)); }
`)
	p := Compile(mod)
	e := New(p, interp.Options{Out: io.Discard, Profile: true})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	prof := e.Profile()
	wf := prof.Funcs["work"]
	if wf == nil {
		t.Fatal("work not in profile")
	}
	if wf.Calls != 1 {
		t.Errorf("work calls = %d, want 1", wf.Calls)
	}
	if wf.Steps < 100 {
		t.Errorf("work steps = %d, want at least the loop trip count", wf.Steps)
	}
	if prof.Funcs["main"] == nil {
		t.Error("main not in profile")
	}
}

func TestProfileDisabledRecordsNothing(t *testing.T) {
	mod := compileMod(t, `def main() { System.puti(1); }`)
	p := Compile(mod)
	e := New(p, interp.Options{Out: io.Discard})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Profile() != nil {
		t.Fatal("Profile() must be nil when Options.Profile is off")
	}
}

// hotLoopSource has a tight scalar loop body that run fusion collapses.
const hotLoopSource = `
def work(n: int) -> int {
	var i = 0;
	var s = 0;
	while (i < n) {
		s = s + i * 3 - 1;
		i = i + 1;
	}
	return s;
}
def main() { System.puti(work(200)); }
`

func TestProfileDrivenFusion(t *testing.T) {
	mod := compileMod(t, hotLoopSource)
	cold := Compile(mod)

	// Record a profile, then recompile with it.
	var out1 bytes.Buffer
	e1 := New(cold, interp.Options{Out: &out1, Profile: true})
	if _, err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	prof := e1.Profile()
	hot := CompileProfiled(mod, prof)

	fused := countOps(fnByName(t, hot, "work"), opFused) + countOps(fnByName(t, hot, "work"), opFusedBr)
	if fused == 0 {
		t.Fatal("profiled recompile formed no fused runs in the hot loop")
	}
	if n := countOps(fnByName(t, cold, "work"), opFused) + countOps(fnByName(t, cold, "work"), opFusedBr); n != 0 {
		t.Fatalf("unprofiled compile must not fuse runs, found %d", n)
	}

	// Identical observable behavior, identical step accounting.
	var out2 bytes.Buffer
	e2 := New(hot, interp.Options{Out: &out2})
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("tiered output %q != untiered %q", out2.String(), out1.String())
	}
	if e1.Stats().Steps != e2.Stats().Steps {
		t.Fatalf("tiered steps %d != untiered %d", e2.Stats().Steps, e1.Stats().Steps)
	}
}

func TestFusedStepBudgetIdentical(t *testing.T) {
	mod := compileMod(t, hotLoopSource)
	cold := Compile(mod)
	e0 := New(cold, interp.Options{Out: io.Discard, Profile: true})
	if _, err := e0.Run(); err != nil {
		t.Fatal(err)
	}
	total := e0.Stats().Steps
	hot := CompileProfiled(mod, e0.Profile())

	// Sweep budgets around fused-run boundaries: the tiered program
	// must stop at exactly the same Steps value with the same error.
	for _, budget := range []int64{1, 7, 50, 51, 52, 53, 100, total - 1, total, total + 1} {
		ec := New(cold, interp.Options{Out: io.Discard, MaxSteps: budget})
		_, errC := ec.Run()
		eh := New(hot, interp.Options{Out: io.Discard, MaxSteps: budget})
		_, errH := eh.Run()
		if (errC == nil) != (errH == nil) {
			t.Fatalf("budget %d: cold err %v, hot err %v", budget, errC, errH)
		}
		if errC != nil && errC.Error() != errH.Error() {
			t.Fatalf("budget %d: cold %q, hot %q", budget, errC, errH)
		}
		if cs, hs := ec.Stats().Steps, eh.Stats().Steps; cs != hs {
			t.Fatalf("budget %d: cold steps %d, hot steps %d", budget, cs, hs)
		}
	}
}

func TestProfileMergeAcrossRuns(t *testing.T) {
	mod := compileMod(t, hotLoopSource)
	p := Compile(mod)
	run := func() *profile.Profile {
		e := New(p, interp.Options{Out: io.Discard, Profile: true})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Profile()
	}
	a, b := run(), run()
	calls := a.Funcs["work"].Calls
	a.Merge(b)
	if got := a.Funcs["work"].Calls; got != 2*calls {
		t.Fatalf("merged calls = %d, want %d", got, 2*calls)
	}
	var b1, b2 bytes.Buffer
	if err := run().Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := run().Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical runs produced different profile JSON")
	}
}
