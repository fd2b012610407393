package mono

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
	"repro/internal/types"
)

func compile(t *testing.T, source string) *ir.Module {
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

func run(t *testing.T, mod *ir.Module) string {
	t.Helper()
	var out strings.Builder
	it := interp.New(mod, interp.Options{Out: &out})
	if _, err := it.Run(); err != nil {
		t.Fatalf("run error: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

// TestCorpusEquivalence runs the whole corpus in reference mode and
// after monomorphization, asserting identical observable output.
func TestCorpusEquivalence(t *testing.T) {
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ref := compile(t, p.Source)
			got := run(t, ref)
			if got != p.Want {
				t.Fatalf("reference mode: got %q, want %q", got, p.Want)
			}
			monoMod, stats, err := Monomorphize(context.Background(), ref, Config{})
			if err != nil {
				t.Fatalf("mono error: %v", err)
			}
			got2 := run(t, monoMod)
			if got2 != p.Want {
				t.Fatalf("monomorphized: got %q, want %q", got2, p.Want)
			}
			if stats.FuncsAfter == 0 {
				t.Fatal("no functions after monomorphization")
			}
		})
	}
}

// TestNoTypeParamsRemain checks the §4.3 guarantee: after
// monomorphization, no type parameters appear in the program.
func TestNoTypeParamsRemain(t *testing.T) {
	for _, name := range []string{"generic_list_d", "matcher_km", "hashmap_i", "print1_j"} {
		p := testprogs.Get(name)
		mod := compile(t, p.Source)
		monoMod, _, err := Monomorphize(context.Background(), mod, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range monoMod.Funcs {
			if len(f.TypeParams) != 0 {
				t.Errorf("%s: function %s still has type parameters", name, f.Name)
			}
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if in.Type != nil && types.HasTypeParams(in.Type) {
						t.Errorf("%s: %s: open type %s in %s", name, f.Name, in.Type, in.Op)
					}
					if len(in.TypeArgs) != 0 && in.Op != ir.OpNop {
						for _, a := range in.TypeArgs {
							if types.HasTypeParams(a) {
								t.Errorf("%s: %s: open type arg %s", name, f.Name, a)
							}
						}
					}
					for _, d := range in.Dst {
						if types.HasTypeParams(d.Type) {
							t.Errorf("%s: %s: open register type %s", name, f.Name, d.Type)
						}
					}
				}
			}
		}
		for _, c := range monoMod.Classes {
			for _, fd := range c.Fields {
				if types.HasTypeParams(fd.Type) {
					t.Errorf("%s: class %s field %s has open type %s", name, c.Name, fd.Name, fd.Type)
				}
			}
		}
	}
}

// TestExpansionStats checks that specialization statistics are
// collected and reflect multiple instantiations (E4).
func TestExpansionStats(t *testing.T) {
	p := testprogs.Get("generic_list_d")
	mod := compile(t, p.Source)
	_, stats, err := Monomorphize(context.Background(), mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InstrsBefore == 0 || stats.InstrsAfter == 0 {
		t.Fatal("missing instruction counts")
	}
	var listAlloc *FuncExpansion
	perFunc := stats.PerFunc()
	for i := range perFunc {
		if perFunc[i].Name == "List.$alloc" {
			listAlloc = &perFunc[i]
		}
	}
	if listAlloc == nil {
		t.Fatal("List.$alloc not in per-function stats")
	}
	if listAlloc.Instances < 2 {
		t.Errorf("List.$alloc should have >= 2 instances (int and (int, int)), got %d", listAlloc.Instances)
	}
}

// TestReachabilityPruning: monomorphization only specializes reachable
// code, so an unused generic function produces no instances.
func TestReachabilityPruning(t *testing.T) {
	mod := compile(t, `
def unused<T>(x: T) -> T { return x; }
def main() { System.puti(1); }
`)
	monoMod, _, err := Monomorphize(context.Background(), mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range monoMod.Funcs {
		if strings.HasPrefix(f.Name, "unused") {
			t.Errorf("unreachable generic %s was specialized", f.Name)
		}
	}
}

// TestPolymorphicRecursionDetected: Virgil disallows polymorphic
// recursion (§4.3); our monomorphizer detects and reports it.
func TestPolymorphicRecursionDetected(t *testing.T) {
	mod := compile(t, `
def poly<T>(x: T, n: int) -> int {
	if (n == 0) return 0;
	return poly((x, x), n - 1);
}
def main() { System.puti(poly(1, 100000)); }
`)
	_, _, err := Monomorphize(context.Background(), mod, Config{MaxInstances: 64})
	if err == nil {
		t.Fatal("expected polymorphic recursion error")
	}
	if !strings.Contains(err.Error(), "polymorphic recursion") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRuntimeTypeArgsGone: monomorphized execution performs no runtime
// type-environment bindings (§4.3's implementation claim).
func TestRuntimeTypeArgsGone(t *testing.T) {
	p := testprogs.Get("generic_list_d")
	mod := compile(t, p.Source)

	itRef := interp.New(mod, interp.Options{})
	if _, err := itRef.Run(); err != nil {
		t.Fatal(err)
	}
	if itRef.Stats().TypeEnvBinds == 0 {
		t.Fatal("reference mode should bind runtime type environments")
	}

	monoMod, _, err := Monomorphize(context.Background(), mod, Config{})
	if err != nil {
		t.Fatal(err)
	}
	itMono := interp.New(monoMod, interp.Options{})
	if _, err := itMono.Run(); err != nil {
		t.Fatal(err)
	}
	if got := itMono.Stats().TypeEnvBinds; got != 0 {
		t.Fatalf("monomorphized code performed %d runtime type bindings, want 0", got)
	}
}
