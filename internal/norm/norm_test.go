package norm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

func compileMono(t *testing.T, source string) *ir.Module {
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
	monoMod, _, err := mono.Monomorphize(context.Background(), mod, mono.Config{})
	if err != nil {
		t.Fatalf("mono error: %v", err)
	}
	return monoMod
}

func run(t *testing.T, mod *ir.Module) (string, interp.Stats) {
	t.Helper()
	var out strings.Builder
	it := interp.New(mod, interp.Options{Out: &out})
	if _, err := it.Run(); err != nil {
		t.Fatalf("run error: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String(), it.Stats()
}

// TestCorpusEquivalence runs the corpus after mono+norm and checks
// output equivalence with the expected results.
func TestCorpusEquivalence(t *testing.T) {
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			monoMod := compileMono(t, p.Source)
			normMod, _, err := Normalize(context.Background(), monoMod, 1)
			if err != nil {
				t.Fatalf("norm error: %v", err)
			}
			got, _ := run(t, normMod)
			if got != p.Want {
				t.Fatalf("normalized: got %q, want %q", got, p.Want)
			}
		})
	}
}

// TestNoTuplesRemain checks the §4.2 guarantee: after normalization no
// tuple instructions and no tuple-typed registers remain.
func TestNoTuplesRemain(t *testing.T) {
	for _, p := range testprogs.All() {
		monoMod := compileMono(t, p.Source)
		normMod, _, err := Normalize(context.Background(), monoMod, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range normMod.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == ir.OpMakeTuple || in.Op == ir.OpTupleGet {
						t.Errorf("%s/%s: %s instruction remains after normalization", p.Name, f.Name, in.Op)
					}
				}
			}
		}
	}
}

// TestNoBoxedTuplesAtRuntime checks the paper's no-implicit-allocation
// claim: normalized execution allocates zero boxed tuples (§4.2), and
// makes no dynamic calling-convention check (§4.1).
func TestNoBoxedTuplesAtRuntime(t *testing.T) {
	for _, p := range testprogs.All() {
		monoMod := compileMono(t, p.Source)
		normMod, _, err := Normalize(context.Background(), monoMod, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		it := interp.New(normMod, interp.Options{Out: &out})
		if _, err := it.Run(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if n := it.Stats().TupleAllocs; n != 0 {
			t.Errorf("%s: %d boxed tuples allocated in normalized code, want 0", p.Name, n)
		}
		if n := it.Stats().AdaptPacks; n != 0 {
			t.Errorf("%s: %d dynamic arity adaptations packed tuples, want 0", p.Name, n)
		}
		if n := it.Stats().AdaptChecks; n != 0 {
			t.Errorf("%s: %d dynamic arity checks in normalized code, want 0", p.Name, n)
		}
	}
}

// TestFieldAndGlobalSplitting checks the structural effects of
// normalization on fields, globals and arrays of tuples.
func TestFieldAndGlobalSplitting(t *testing.T) {
	monoMod := compileMono(t, `
class P {
	var pos: (int, int);
	var tag: byte;
}
var origin: (int, int) = (3, 4);
def main() {
	var p = P.new();
	p.pos = origin;
	System.puti(p.pos.0 + p.pos.1);
}
`)
	normMod, stats, err := Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FieldsSplit == 0 {
		t.Error("expected tuple fields to be split")
	}
	if stats.GlobalsSplit == 0 {
		t.Error("expected tuple globals to be split")
	}
	var cls *ir.Class
	for _, c := range normMod.Classes {
		if strings.HasPrefix(c.Name, "P") {
			cls = c
		}
	}
	if cls == nil {
		t.Fatal("class P not found")
	}
	if len(cls.Fields) != 3 {
		t.Fatalf("P should have 3 flattened fields, got %d", len(cls.Fields))
	}
	got, _ := run(t, normMod)
	if got != "7" {
		t.Fatalf("got %q", got)
	}
}

// TestVoidFieldNullCheck: accessing a void field of null still throws
// (§4.2: "a null dereference always throws an exception, regardless of
// the field's type").
func TestVoidFieldNullCheck(t *testing.T) {
	monoMod := compileMono(t, `
class C { var v: void; }
def main() {
	var c: C;
	var x = c.v;
}
`)
	normMod, _, err := Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(normMod, interp.Options{})
	_, err = it.Run()
	if err == nil || !strings.Contains(err.Error(), "!NullCheckException") {
		t.Fatalf("want !NullCheckException, got %v", err)
	}
}

// TestVoidArrayBoundsCheck: Array<void> accesses are still bounds
// checked (§4.2).
func TestVoidArrayBoundsCheck(t *testing.T) {
	monoMod := compileMono(t, `
def main() {
	var v = Array<void>.new(2);
	v[5];
}
`)
	normMod, _, err := Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(normMod, interp.Options{})
	_, err = it.Run()
	if err == nil || !strings.Contains(err.Error(), "!BoundsCheckException") {
		t.Fatalf("want !BoundsCheckException, got %v", err)
	}
}

// TestRequiresMonomorphic: normalization refuses polymorphic input.
func TestRequiresMonomorphic(t *testing.T) {
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", testprogs.Get("hello").Source, errs)
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		t.Fatal(errs.Error())
	}
	mod, err := lower.Lower(context.Background(), prog, 1)
	if err != nil {
		t.Fatalf("lower error: %v", err)
	}
	if _, _, err := Normalize(context.Background(), mod, 1); err == nil {
		t.Fatal("expected an error normalizing a polymorphic module")
	}
}
