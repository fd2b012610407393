package progen

import (
	"testing"

	"repro/internal/core"
)

// TestGeneratedProgramsCompileAndRun: generated programs compile and
// produce identical output in every pipeline configuration.
func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		src := Generate(Scale(k))
		var want string
		for i, cfg := range core.Configs() {
			comp, err := core.Compile("gen.v", src, cfg)
			if err != nil {
				t.Fatalf("scale %d [%s]: %v", k, cfg.Name(), err)
			}
			res := comp.Run()
			if res.Err != nil {
				t.Fatalf("scale %d [%s]: %v", k, cfg.Name(), res.Err)
			}
			if i == 0 {
				want = res.Output
				if want == "" {
					t.Fatalf("scale %d: empty output", k)
				}
			} else if res.Output != want {
				t.Fatalf("scale %d [%s]: output %q differs from reference %q", k, cfg.Name(), res.Output, want)
			}
		}
	}
}

// TestDeterministic: same parameters produce the same source.
func TestDeterministic(t *testing.T) {
	if Generate(Small()) != Generate(Small()) {
		t.Error("generation is not deterministic")
	}
}

// TestScaling: larger parameters produce proportionally more lines.
func TestScaling(t *testing.T) {
	l1 := Lines(Generate(Scale(1)))
	l4 := Lines(Generate(Scale(4)))
	if l4 < 3*l1 {
		t.Errorf("Scale(4) = %d lines, expected at least 3x Scale(1) = %d", l4, l1)
	}
}

// TestExpansionGrows: generic-heavy programs expand under
// monomorphization (E4's precondition).
func TestExpansionGrows(t *testing.T) {
	src := Generate(Scale(2))
	comp, err := core.Compile("gen.v", src, core.Config{Monomorphize: true})
	if err != nil {
		t.Fatal(err)
	}
	if comp.MonoStats.ExpansionFactor() <= 0 {
		t.Error("expansion factor should be positive")
	}
	found := false
	for _, fe := range comp.MonoStats.PerFunc() {
		if fe.Instances >= 3 {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected some function with >= 3 instantiations")
	}
}
