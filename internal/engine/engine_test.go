package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/typecheck"
)

// White-box tests for the translator: register classing, fused
// superinstruction formation, and inline-cache behavior. End-to-end
// semantic equivalence with the switch interpreter is proven by the
// differential suite in internal/core; these tests pin the structural
// properties that make the engine fast.

func compileMod(t *testing.T, source string) *ir.Module {
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
		t.Fatalf("lower error: %v", err)
	}
	return mod
}

func fnByName(t *testing.T, p *Program, name string) *fnCode {
	t.Helper()
	for f, fc := range p.fns {
		if f.Name == name {
			return fc
		}
	}
	t.Fatalf("no translated function %q", name)
	return nil
}

func countOps(fc *fnCode, op uint8) int {
	n := 0
	for i := range fc.code {
		if fc.code[i].op == op {
			n++
		}
	}
	return n
}

func TestRegisterClasses(t *testing.T) {
	mod := compileMod(t, `
class P { var v: int; }
def f(i: int, b: byte, c: bool, p: P, s: Array<byte>) -> int {
	return i;
}
def main() { }
`)
	p := Compile(mod)
	fc := fnByName(t, p, "f")
	if len(fc.params) != 5 {
		t.Fatalf("want 5 params, got %d", len(fc.params))
	}
	wantKinds := []struct {
		ref  bool
		kind uint32
	}{{false, kInt}, {false, kByte}, {false, kBool}, {true, 0}, {true, 0}}
	for i, w := range wantKinds {
		e := fc.params[i]
		if isRefEnc(e) != w.ref {
			t.Errorf("param %d: ref=%v, want %v", i, isRefEnc(e), w.ref)
		}
		if !w.ref && kindOf(e) != w.kind {
			t.Errorf("param %d: kind=%d, want %d", i, kindOf(e), w.kind)
		}
	}
	// Scalar and ref slots must each be dense: every slot < nS / nR.
	for i, e := range fc.regs {
		if e == regNone {
			continue
		}
		if isRefEnc(e) {
			if slotOf(e) >= fc.nR {
				t.Errorf("reg %d: ref slot %d >= nR %d", i, slotOf(e), fc.nR)
			}
		} else if slotOf(e) >= fc.nS {
			t.Errorf("reg %d: scalar slot %d >= nS %d", i, slotOf(e), fc.nS)
		}
	}
}

// TestInstrLayout pins the hot instruction's layout: at most 64 bytes
// and no pointers, so code arrays stay compact and the garbage
// collector never scans them.
func TestInstrLayout(t *testing.T) {
	if size := unsafe.Sizeof(einstr{}); size > 64 {
		t.Errorf("einstr is %d bytes, want <= 64", size)
	}
	typ := reflect.TypeOf(einstr{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint32, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("einstr.%s has kind %s; the hot instruction must hold only integers", f.Name, f.Type.Kind())
		}
	}
}

func TestFusionCmpBranchConst(t *testing.T) {
	mod := compileMod(t, `
def count(n: int) -> int {
	var i = 0;
	while (i < n) { i = i + 1; }
	return i;
}
def main() { count(3); }
`)
	p := Compile(mod)
	fc := fnByName(t, p, "count")
	// i < n branches on two int scalars: fused compare+branch. i + 1
	// has a constant operand: fused const+arith.
	if countOps(fc, opCmpBrSS) == 0 {
		t.Errorf("count: no opCmpBrSS formed:\n%s", dumpOps(fc))
	}
	if countOps(fc, opArithSI) == 0 {
		t.Errorf("count: no opArithSI formed:\n%s", dumpOps(fc))
	}
}

func TestFusionConstCmpBranch(t *testing.T) {
	mod := compileMod(t, `
def clamp(n: int) -> int {
	if (n > 100) { return 100; }
	return n;
}
def main() { clamp(5); }
`)
	p := Compile(mod)
	fc := fnByName(t, p, "clamp")
	if countOps(fc, opCmpBrSI) == 0 {
		t.Errorf("clamp: no opCmpBrSI formed:\n%s", dumpOps(fc))
	}
}

// TestNoBoolOrderingFusion pins the bool-ordering guard: Eq/Ne on bool
// scalars may compare raw slots, but the translator must never emit a
// slot-ordering compare (fused or plain) for bool operands, because
// the reference semantics compare non-numeric operands as (0,0).
func TestNoBoolOrderingFusion(t *testing.T) {
	mod := compileMod(t, `
def pick(a: bool, b: bool) -> int {
	if (a == b) { return 1; }
	return 0;
}
def main() { pick(true, false); }
`)
	p := Compile(mod)
	fc := fnByName(t, p, "pick")
	if countOps(fc, opCmpBrSS) == 0 {
		t.Errorf("pick: bool == bool should fuse to opCmpBrSS:\n%s", dumpOps(fc))
	}
	for i := range fc.code {
		in := &fc.code[i]
		if (in.op == opCmpBrSS || in.op == opCmpBrSI) && in.aux != int32(ir.OpEq) && in.aux != int32(ir.OpNe) {
			if !isRefEnc(in.a) && kindOf(in.a) == kBool {
				t.Errorf("ordering superinstruction on bool operand at pc %d", i)
			}
		}
	}
}

func dumpOps(fc *fnCode) string {
	var b strings.Builder
	for i := range fc.code {
		fmt.Fprintf(&b, "op%d ", fc.code[i].op)
	}
	return b.String()
}

func TestInlineCacheInstallsAndHits(t *testing.T) {
	mod := compileMod(t, `
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def sum(xs: Array<A>) -> int {
	var i = 0;
	var s = 0;
	while (i < xs.length) { s = s + xs[i].m(); i = i + 1; }
	return s;
}
def main() {
	var xs = Array<A>.new(4);
	xs[0] = A.new(); xs[1] = A.new(); xs[2] = A.new(); xs[3] = B.new();
	System.puti(sum(xs));
}
`)
	p := Compile(mod)
	if p.numICs == 0 {
		t.Fatal("no inline-cache sites allocated")
	}
	var out1 strings.Builder
	e := New(p, interp.Options{Out: &out1})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	installed := 0
	for i := range e.ics {
		if e.ics[i].cls != nil || e.ics[i].ifn != nil {
			installed++
		}
	}
	if installed == 0 {
		t.Error("no inline cache installed after virtual calls executed")
	}
	// Rerunning main on the warmed engine exercises the hit path: three
	// A.m hits on the cached class and one B.m miss that repopulates
	// the cache. Output must be identical either way.
	var out2 strings.Builder
	e.out = &out2
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if out1.String() != "5" || out2.String() != "5" {
		t.Errorf("cold=%q warm=%q, want %q", out1.String(), out2.String(), "5")
	}
}

// TestNormalizedModuleNeverAdapts runs the §4.1 ambiguity, an
// indirect call passing two values to a function that takes one tuple,
// first as it is, where the engine adapts by packing the tuple, and
// then marked normalized. There ir.Verify would have rejected the
// module, so the engine must report an internal error, not adapt.
func TestNormalizedModuleNeverAdapts(t *testing.T) {
	mod := compileMod(t, `
def add(p: (int, int)) -> int { return p.0 + p.1; }
def main() {
	var g: (int, int) -> int = add;
	System.puti(g(3, 4));
}
`)
	var out strings.Builder
	e := New(Compile(mod), interp.Options{Out: &out})
	if _, err := e.Run(); err != nil || out.String() != "7" {
		t.Fatalf("unnormalized run: output %q, err %v; want 7", out.String(), err)
	}
	if st := e.Stats(); st.AdaptChecks != 1 || st.AdaptPacks != 1 {
		t.Fatalf("unnormalized run: %d checks, %d packs; want 1 each", st.AdaptChecks, st.AdaptPacks)
	}
	mod.Normalized = true
	e = New(Compile(mod), interp.Options{Out: &out})
	_, err := e.Run()
	if _, trap := err.(*interp.VirgilError); err == nil || trap || !strings.Contains(err.Error(), "normalized call passes 2 values to add, which takes 1") {
		t.Fatalf("normalized run: err %v, want the internal arity error", err)
	}
	if st := e.Stats(); st.AdaptChecks != 0 || st.AdaptPacks != 0 {
		t.Errorf("normalized run: %d checks, %d packs; want none", st.AdaptChecks, st.AdaptPacks)
	}
}

func TestProgramSharedAcrossEngines(t *testing.T) {
	mod := compileMod(t, `
var g = 0;
def main() { g = g + 1; System.puti(g); }
`)
	p := Compile(mod)
	for i := 0; i < 3; i++ {
		var out strings.Builder
		e := New(p, interp.Options{Out: &out})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		// Globals are per-engine: every fresh engine sees g's initial
		// value, not the previous run's mutation.
		if out.String() != "1" {
			t.Fatalf("run %d: got %q, want %q (global state leaked across engines)", i, out.String(), "1")
		}
	}
}
