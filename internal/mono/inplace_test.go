package mono

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

// lowerTwice returns two independent lowerings of source, or ok=false
// when it does not check.
func lowerTwice(t *testing.T, source string) (a, b *ir.Module, ok bool) {
	t.Helper()
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", source, errs)
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		return nil, nil, false
	}
	var err error
	if a, err = lower.Lower(context.Background(), prog, 1); err != nil {
		t.Fatal(err)
	}
	if b, err = lower.Lower(context.Background(), prog, 1); err != nil {
		t.Fatal(err)
	}
	return a, b, true
}

// TestInPlaceMatchesCopy holds the in-place monomorphizer to the
// copying reference, refMonomorphize: the dumps must be byte-identical, register
// and block numbering included, and the in-place output must verify,
// operand-list ownership included.
func TestInPlaceMatchesCopy(t *testing.T) {
	for name, source := range testprogs.Differential() {
		name, source := name, source
		t.Run(name, func(t *testing.T) {
			a, b, ok := lowerTwice(t, source)
			if !ok {
				t.Skip("does not check")
			}
			want, werr := refMonomorphize(context.Background(), a)
			got, _, gerr := Monomorphize(context.Background(), b, Config{})
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
