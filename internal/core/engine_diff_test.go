package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/src"
	"repro/internal/testprogs"
)

// This file is the differential proof that the register-bytecode
// engine and the switch interpreter are observably identical: same
// output bytes, same traps with the same messages and stack traces,
// same step accounting, same Stats — over the whole corpus, the
// examples, the crasher corpus, and every ablation configuration.

// diffConfigs is the ablation ladder for the differential suite: the
// four pipeline configurations plus the optimized pipeline with the
// analysis layer switched off, so the analysis-driven rewrites get the
// same engine-vs-engine scrutiny as every other stage.
func diffConfigs() []core.Config {
	noa := core.Compiled()
	noa.Analyze = false
	return append(core.Configs(), noa)
}

// cfgLabel distinguishes the analyze-off ablation from the full
// pipeline (Config.Name reports the stage ladder only).
func cfgLabel(cfg core.Config) string {
	if cfg.Optimize && !cfg.Analyze {
		return cfg.Name() + "-analyze"
	}
	return cfg.Name()
}

// runBothEngines compiles source once per engine under cfg and runs
// it. Compilation is engine-independent, so a compile failure must be
// identical under both; in that case ok is false and the run results
// are zero.
func runBothEngines(t *testing.T, label, name, source string, cfg core.Config) (bc, sw core.RunResult, ok bool) {
	t.Helper()
	bcCfg, swCfg := cfg, cfg
	bcCfg.Engine = core.EngineBytecode
	swCfg.Engine = core.EngineSwitch
	bcComp, bcErr := core.Compile(name, source, bcCfg)
	swComp, swErr := core.Compile(name, source, swCfg)
	if (bcErr == nil) != (swErr == nil) {
		t.Fatalf("%s: compile outcomes differ: bytecode=%v switch=%v", label, bcErr, swErr)
	}
	if bcErr != nil {
		if bcErr.Error() != swErr.Error() {
			t.Fatalf("%s: compile errors differ:\nbytecode: %v\nswitch:   %v", label, bcErr, swErr)
		}
		return bc, sw, false
	}
	return bcComp.Run(), swComp.Run(), true
}

// sameRunError asserts the two engines failed (or succeeded) the same
// way. Virgil traps must match name, message, and rendered stack
// trace; resource stops must match kind and message; internal
// compiler errors are equivalent as a class (both engines must reject
// the same corrupt IR, but their self-diagnostics may differ).
func sameRunError(t *testing.T, label string, bcErr, swErr error) {
	t.Helper()
	if (bcErr == nil) != (swErr == nil) {
		t.Fatalf("%s: run outcomes differ:\nbytecode: %v\nswitch:   %v", label, bcErr, swErr)
	}
	if bcErr == nil {
		return
	}
	if bv, ok := bcErr.(*interp.VirgilError); ok {
		sv, ok := swErr.(*interp.VirgilError)
		if !ok {
			t.Fatalf("%s: bytecode trapped %v, switch got %T: %v", label, bv, swErr, swErr)
		}
		if bv.Name != sv.Name || bv.Msg != sv.Msg {
			t.Fatalf("%s: traps differ: bytecode %q/%q, switch %q/%q", label, bv.Name, bv.Msg, sv.Name, sv.Msg)
		}
		if bt, st := bv.TraceString(), sv.TraceString(); bt != st {
			t.Fatalf("%s: %s traces differ:\nbytecode:\n%s\nswitch:\n%s", label, bv.Name, bt, st)
		}
		return
	}
	if br, ok := bcErr.(*interp.ResourceError); ok {
		sr, ok := swErr.(*interp.ResourceError)
		if !ok {
			t.Fatalf("%s: bytecode stopped with %v, switch got %T: %v", label, br, swErr, swErr)
		}
		if br.Kind != sr.Kind || br.Func != sr.Func || br.Msg != sr.Msg {
			t.Fatalf("%s: resource stops differ: bytecode %+v, switch %+v", label, br, sr)
		}
		return
	}
	if _, ok := bcErr.(*src.ICE); ok {
		if _, ok := swErr.(*src.ICE); !ok {
			t.Fatalf("%s: bytecode ICEd, switch got %T: %v", label, swErr, swErr)
		}
		return
	}
	if _, ok := swErr.(*src.ICE); ok {
		t.Fatalf("%s: switch ICEd, bytecode got %T: %v", label, bcErr, bcErr)
	}
	if bcErr.Error() != swErr.Error() {
		t.Fatalf("%s: errors differ:\nbytecode: %v\nswitch:   %v", label, bcErr, swErr)
	}
}

// sameRun asserts complete observable equality of two run results.
func sameRun(t *testing.T, label string, bc, sw core.RunResult) {
	t.Helper()
	sameRunError(t, label, bc.Err, sw.Err)
	if bc.Output != sw.Output {
		t.Fatalf("%s: outputs differ:\nbytecode: %q\nswitch:   %q", label, bc.Output, sw.Output)
	}
	if bc.Stats != sw.Stats {
		t.Fatalf("%s: stats differ:\nbytecode: %+v\nswitch:   %+v", label, bc.Stats, sw.Stats)
	}
}

// TestEngineDifferentialCorpus runs every corpus program under every
// ablation configuration under both engines.
func TestEngineDifferentialCorpus(t *testing.T) {
	for _, p := range testprogs.All() {
		t.Run(p.Name, func(t *testing.T) {
			for _, cfg := range diffConfigs() {
				label := cfgLabel(cfg)
				bc, sw, ok := runBothEngines(t, label, p.Name+".v", p.Source, cfg)
				if !ok {
					continue
				}
				sameRun(t, label, bc, sw)
				if bc.Err == nil && bc.Output != p.Want {
					t.Errorf("%s: output = %q, want %q", label, bc.Output, p.Want)
				}
			}
		})
	}
}

// TestEngineDifferentialTraps runs the trap corpus (every Virgil-level
// exception) under both canonical configurations and both engines,
// asserting identical trap identity and stack traces.
func TestEngineDifferentialTraps(t *testing.T) {
	for _, tp := range trapProgs {
		t.Run(tp.name, func(t *testing.T) {
			for _, base := range trapConfigs() {
				bc, sw, ok := runBothEngines(t, base.Name(), "trap.v", tp.src, base)
				if !ok {
					t.Fatalf("[%s] trap program failed to compile", base.Name())
				}
				sameRun(t, base.Name(), bc, sw)
				if ve, ok := bc.Err.(*interp.VirgilError); !ok || ve.Name != tp.name {
					t.Errorf("[%s] want %s under both engines, got %v", base.Name(), tp.name, bc.Err)
				}
			}
		})
	}
}

// TestEngineDifferentialExamples covers the end-to-end example
// programs shipped in examples/virgil.
func TestEngineDifferentialExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "virgil")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples dir: %v", err)
	}
	ran := 0
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".v" {
			continue
		}
		ran++
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(ent.Name(), func(t *testing.T) {
			for _, cfg := range diffConfigs() {
				bc, sw, ok := runBothEngines(t, cfgLabel(cfg), ent.Name(), string(data), cfg)
				if !ok {
					continue
				}
				sameRun(t, cfgLabel(cfg), bc, sw)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no example programs found")
	}
}

// TestEngineDifferentialCrashers feeds the crasher corpus — inputs
// that historically broke the pipeline — through both engines. Most
// fail to compile (identically); any that compile must run
// identically.
func TestEngineDifferentialCrashers(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "crashers")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("crashers dir: %v", err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(ent.Name(), func(t *testing.T) {
			for _, base := range diffConfigs() {
				cfg := base
				cfg.MaxSteps = 200_000
				cfg.MaxDepth = 256
				cfg.MaxHeap = 4 << 20
				bc, sw, ok := runBothEngines(t, cfgLabel(cfg), ent.Name(), string(data), cfg)
				if !ok {
					continue
				}
				sameRun(t, cfgLabel(cfg), bc, sw)
			}
		})
	}
}

// TestEngineStepBudgetEquivalence sweeps tight step budgets across a
// recursive and an allocating program, asserting the two engines trap
// at exactly the same step — the superinstruction fusion must not
// change where the budget guard fires or the final step count.
func TestEngineStepBudgetEquivalence(t *testing.T) {
	for _, name := range []string{"fib", "hello", "classes_b1_b7"} {
		p := testprogs.Get(name)
		t.Run(name, func(t *testing.T) {
			for _, base := range []core.Config{core.Reference(), core.Compiled()} {
				for budget := int64(1); budget <= 60; budget++ {
					cfg := base
					cfg.MaxSteps = budget
					label := fmt.Sprintf("%s/steps=%d", cfg.Name(), budget)
					bc, sw, ok := runBothEngines(t, label, name+".v", p.Source, cfg)
					if !ok {
						t.Fatalf("%s: failed to compile", label)
					}
					sameRun(t, label, bc, sw)
				}
			}
		})
	}
}
