package norm

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

// monoModules returns n independent monomorphized modules of source,
// or ok=false when it does not check or monomorphize.
func monoModules(t testing.TB, source string, n int) (mods []*ir.Module, ok bool) {
	t.Helper()
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", source, errs)
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		return nil, false
	}
	for i := 0; i < n; i++ {
		mod, err := lower.Lower(context.Background(), prog, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mod, _, err = mono.Monomorphize(context.Background(), mod, mono.Config{}); err != nil {
			return nil, false
		}
		mods = append(mods, mod)
	}
	return mods, true
}

// TestInPlaceMatchesCopy holds the in-place normalizer to the copying
// reference, refNormalize: the dumps must be byte-identical, register and block
// numbering included, and the in-place output must verify, operand-list
// ownership included.
func TestInPlaceMatchesCopy(t *testing.T) {
	for name, source := range testprogs.Differential() {
		name, source := name, source
		t.Run(name, func(t *testing.T) {
			mods, ok := monoModules(t, source, 2)
			if !ok {
				t.Skip("does not check or monomorphize")
			}
			want, werr := refNormalize(mods[0])
			got, _, gerr := Normalize(context.Background(), mods[1], 1)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("errors differ: copy %v, in place %v", werr, gerr)
			}
			if werr != nil {
				return
			}
			if w, g := want.String(), got.String(); w != g {
				t.Fatalf("in-place dump differs from copy:\n%s", firstDiff(w, g))
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("in-place output does not verify: %v", err)
			}
		})
	}
}

// firstDiff shows the first differing line of two dumps.
func firstDiff(want, got string) string {
	lw, lg := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(lw) && i < len(lg); i++ {
		if lw[i] != lg[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, lw[i], lg[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(lw), len(lg))
}

// TestMonoNormAllocs pins the allocation rate of mono plus norm on a
// progen Scale 4 module. Both rewrite the bodies they are given: a
// closed function's body moves into its instance and then into its
// normalized function, keeping its instructions and registers, so only
// generic instances and tuple expansions allocate per instruction.
// In place a run measures about 11.0k allocations. With both passes
// copying it measured about 38.3k, with only mono copying 18.9k, and
// with only norm copying 26.7k, so the 15k ceiling fails if either
// copy comes back.
func TestMonoNormAllocs(t *testing.T) {
	const runs = 4
	// AllocsPerRun makes one warm-up call before the measured ones, and
	// both passes consume their input, so every call gets a fresh
	// lowered module.
	source := progen.Generate(progen.Scale(4))
	errs := &src.ErrorList{}
	prog := typecheck.Check([]*ast.File{parser.Parse("gen.v", source, errs)}, errs)
	if !errs.Empty() {
		t.Fatal(errs)
	}
	mods := make([]*ir.Module, runs+1)
	for i := range mods {
		var err error
		if mods[i], err = lower.Lower(context.Background(), prog, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		mod := mods[next]
		next++
		mod, _, err := mono.Monomorphize(context.Background(), mod, mono.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Normalize(context.Background(), mod, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mono+norm on progen Scale 4: %.0f allocs/run", allocs)
	if allocs > 15000 {
		t.Errorf("mono+norm allocs/run = %.0f, want <= 15000: a copying body pass came back", allocs)
	}
}
