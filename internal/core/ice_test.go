package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/src"
	"repro/internal/types"
)

// TestGuardConvertsPanic: the stage boundary converts an arbitrary
// panic into a structured ICE naming the stage, and passes ordinary
// errors and clean returns through untouched.
func TestGuardConvertsPanic(t *testing.T) {
	err := guard("teststage", func() error { panic("boom: unhandled node") })
	ice, ok := err.(*src.ICE)
	if !ok {
		t.Fatalf("want *src.ICE, got %T: %v", err, err)
	}
	if ice.Stage != "teststage" || !strings.Contains(ice.Msg, "boom") {
		t.Errorf("ICE = %+v, want stage and recovered message", ice)
	}
	if ice.Stack == "" {
		t.Error("ICE should carry a trimmed Go stack for bug reports")
	}

	if err := guard("ok", func() error { return nil }); err != nil {
		t.Errorf("clean stage returned %v", err)
	}
	sentinel := &src.ErrorList{}
	sentinel.Add(src.NoPos, "plain diagnostic")
	if err := guard("diag", func() error { return sentinel }); err != error(sentinel) {
		t.Errorf("ordinary error not passed through: %v", err)
	}
}

// TestGuardRecoversRuntimePanics: realistic stage failures — nil map
// writes, out-of-range indexing — are contained, not just string
// panics.
func TestGuardRecoversRuntimePanics(t *testing.T) {
	err := guard("index", func() error {
		var s []int
		_ = s[3]
		return nil
	})
	ice, ok := err.(*src.ICE)
	if !ok || !strings.Contains(ice.Msg, "index out of range") {
		t.Fatalf("want index ICE, got %T: %v", err, err)
	}
}

// foreignRegModule builds a one-function module whose only register was
// made by hand with an ID past the function's NumRegs, the shape a pass
// that forgot NewReg would leave behind.
func foreignRegModule() *ir.Module {
	tc := types.NewCache()
	f := &ir.Func{Name: "f", Results: []types.Type{tc.Int()}, VtSlot: -1}
	b := f.NewBlock()
	stray := &ir.Reg{ID: f.NumRegs() + 3, Type: tc.Int()}
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConstInt, Dst: []*ir.Reg{stray}, IVal: 7},
		{Op: ir.OpRet, Args: []*ir.Reg{stray}},
	}
	return &ir.Module{Types: tc, Funcs: []*ir.Func{f}, Monomorphic: true, Normalized: true}
}

// outOfRangeBlockModule builds a one-function module whose only block
// carries an ID past the function's NumBlocks, the shape a pass that
// made a block by hand instead of with NewBlock would leave behind.
func outOfRangeBlockModule() *ir.Module {
	tc := types.NewCache()
	f := &ir.Func{Name: "f", Results: []types.Type{tc.Int()}, VtSlot: -1}
	b := f.NewBlock()
	b.ID = f.NumBlocks() + 3
	v := f.NewReg(tc.Int(), "")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConstInt, Dst: []*ir.Reg{v}, IVal: 7},
		{Op: ir.OpRet, Args: []*ir.Reg{v}},
	}
	return &ir.Module{Types: tc, Funcs: []*ir.Func{f}, Monomorphic: true, Normalized: true}
}

// TestForeignRegisterIsStageICE: the optimizer and the analyses index
// per-function tables by Reg.ID, so a register outside [0, NumRegs())
// panics on the index. The stage guard must turn that panic into an
// ICE tagged with the stage, never let it escape the process.
func TestForeignRegisterIsStageICE(t *testing.T) {
	testStageICE(t, foreignRegModule)
}

// TestOutOfRangeBlockIsStageICE: the same holds for blocks, whose
// tables (the optimizer's reachability marks and predecessor counts,
// the analyses' loop search) are indexed by Block.ID.
func TestOutOfRangeBlockIsStageICE(t *testing.T) {
	testStageICE(t, outOfRangeBlockModule)
}

// testStageICE runs a module built by mk through the optimizer with and
// without analysis, and through the final analysis, and wants each to
// fail with an index-panic ICE tagged with its stage.
func testStageICE(t *testing.T, mk func() *ir.Module) {
	backend := func(p *pipeline, mod *ir.Module) error {
		_, err := p.backend(mod, backendOpts{})
		return err
	}
	finish := func(p *pipeline, mod *ir.Module) error {
		_, err := p.finish(mod)
		return err
	}
	for _, tc := range []struct {
		name, stage string
		analyze     bool
		run         func(p *pipeline, mod *ir.Module) error
	}{
		{"fold", "opt", false, backend},
		{"opt-analysis", "opt", true, backend},
		{"final-analysis", "analysis", true, finish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Optimize: true, Analyze: tc.analyze}
			p := &pipeline{ctx: context.Background(), cfg: cfg, comp: &Compilation{Config: cfg},
				errs: &src.ErrorList{}, start: time.Now()}
			err := tc.run(p, mk())
			ice, ok := err.(*src.ICE)
			if !ok {
				t.Fatalf("want *src.ICE, got %T: %v", err, err)
			}
			if ice.Stage != tc.stage || !strings.Contains(ice.Msg, "index out of range") {
				t.Errorf("ICE = stage %q msg %q, want stage %q and an index panic", ice.Stage, ice.Msg, tc.stage)
			}
		})
	}
}
