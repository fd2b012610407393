package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/testprogs"
)

// TestCorpusAllConfigs is the central integration test: every corpus
// program produces identical output in all four pipeline
// configurations.
func TestCorpusAllConfigs(t *testing.T) {
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, cfg := range Configs() {
				comp, err := Compile(p.Name+".v", p.Source, cfg)
				if err != nil {
					t.Fatalf("[%s] compile: %v", cfg.Name(), err)
				}
				res := comp.Run()
				if res.Err != nil {
					t.Fatalf("[%s] run: %v", cfg.Name(), res.Err)
				}
				if res.Output != p.Want {
					t.Fatalf("[%s] got %q, want %q", cfg.Name(), res.Output, p.Want)
				}
			}
		})
	}
}

// TestCompiledModeIsClean verifies the paper's compiled-form claims in
// one place: no runtime type bindings (§4.3), no boxed tuples and no
// tuple-packing adaptations (§4.2), and no dynamic calling-convention
// checks (§4.1).
func TestCompiledModeIsClean(t *testing.T) {
	for _, p := range testprogs.All() {
		comp, err := Compile(p.Name+".v", p.Source, Compiled())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res := comp.Run()
		if res.Err != nil {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
		st := res.Stats
		if st.TypeEnvBinds != 0 {
			t.Errorf("%s: %d runtime type bindings in compiled mode", p.Name, st.TypeEnvBinds)
		}
		if st.TupleAllocs != 0 {
			t.Errorf("%s: %d boxed tuple allocations in compiled mode", p.Name, st.TupleAllocs)
		}
		if st.AdaptPacks != 0 {
			t.Errorf("%s: %d tuple-packing adaptations in compiled mode", p.Name, st.AdaptPacks)
		}
		if st.AdaptChecks != 0 {
			t.Errorf("%s: %d dynamic arity checks in compiled mode", p.Name, st.AdaptChecks)
		}
	}
}

// TestCompiledModeFewerSteps: compiled mode should execute fewer
// interpreter steps than reference mode on tuple- and generics-heavy
// programs.
func TestCompiledModeFewerSteps(t *testing.T) {
	for _, name := range []string{"generic_list_d", "tuples_c1_c6", "hashmap_i"} {
		p := testprogs.Get(name)
		ref, err := Compile(p.Name, p.Source, Reference())
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compile(p.Name, p.Source, Compiled())
		if err != nil {
			t.Fatal(err)
		}
		refSteps := ref.Run().Stats.Steps
		cmpSteps := cmp.Run().Stats.Steps
		if cmpSteps > refSteps {
			t.Errorf("%s: compiled executes more steps (%d) than reference (%d)", name, cmpSteps, refSteps)
		}
	}
}

// TestConfigValidation checks stage dependencies.
func TestConfigValidation(t *testing.T) {
	if _, err := Compile("x.v", "def main() { }", Config{Normalize: true}); err == nil {
		t.Error("Normalize without Monomorphize should fail")
	}
	if _, err := Compile("x.v", "def main() { }", Config{Monomorphize: true, Optimize: true}); err == nil {
		t.Error("Optimize without Normalize should fail")
	}
}

// TestCompileErrors: diagnostics are returned as errors with positions.
func TestCompileErrors(t *testing.T) {
	_, err := Compile("bad.v", "def main() { x = 1; }", Reference())
	if err == nil {
		t.Fatal("expected a compile error")
	}
	if !strings.Contains(err.Error(), "bad.v:1:") {
		t.Fatalf("error should carry a position, got %q", err.Error())
	}
}

// TestQueryChainFoldsAway is experiment E5's structural half: after
// full compilation, each print1<T> instance contains no type queries
// and no branches — the §3.3 claim.
func TestQueryChainFoldsAway(t *testing.T) {
	p := testprogs.Get("print1_j")
	comp, err := Compile(p.Name, p.Source, Compiled())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range comp.Module.Funcs {
		if !strings.HasPrefix(f.Name, "print1<") {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpTypeQuery {
					t.Errorf("%s still contains a type query after optimization", f.Name)
				}
				if in.Op == ir.OpBranch {
					t.Errorf("%s still contains a branch after optimization", f.Name)
				}
			}
		}
	}
	if comp.OptStats.QueriesFolded == 0 {
		t.Error("optimizer folded no queries")
	}
}

// TestMultiFileProgram: several files check as one program.
func TestMultiFileProgram(t *testing.T) {
	comp, err := CompileFiles([]File{
		{Name: "lib.v", Source: `def helper(x: int) -> int { return x * 2; }`},
		{Name: "main.v", Source: `def main() { System.puti(helper(21)); }`},
	}, Compiled())
	if err != nil {
		t.Fatal(err)
	}
	res := comp.Run()
	if res.Output != "42" {
		t.Fatalf("got %q", res.Output)
	}
}
