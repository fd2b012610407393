package core_test

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/testprogs"
)

// This file is the differential proof for the tier axis: a
// profile-guided recompile (the tier-2 artifact the serve layer swaps
// in) is observably identical to the plain optimized build, and never
// slower in steps. It runs under both configs serve tiers up: "full"
// (core.Compiled) and "opt" (the same pipeline without the analysis
// layer). Three comparisons:
//
//   - tiered bytecode vs tiered switch, same module: exact equality —
//     output, traps, traces, and step-for-step Stats — via sameRun.
//   - tiered vs untiered: output and trap identity. Hot inlining
//     legitimately changes frame counts, so traces and budget
//     boundaries may move; what the program *does* may not.
//   - tiered vs untiered steps: where no budget fired, tier 2 runs at
//     most as many steps as tier 1. Hot inlining and run fusion only
//     remove work; a tier-up that adds steps is a pessimization.

// tierConfigs are the optimizing configs serve tiers up, by serve name.
var tierConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"full", core.Compiled()},
	{"opt", core.Config{Monomorphize: true, Normalize: true, Optimize: true}},
}

// recordTierProfile compiles source on the bytecode engine under cfg
// and executes it once with profiling on — the same harvest a serve
// tier-1 run performs. The run's own outcome is irrelevant: a trapped
// or budget-stopped run still yields a true (partial) profile.
func recordTierProfile(name, source string, cfg core.Config) (*profile.Profile, error) {
	bcCfg := cfg
	bcCfg.Engine = core.EngineBytecode
	comp, err := core.Compile(name, source, bcCfg)
	if err != nil {
		return nil, err
	}
	if comp.Module.Main == nil {
		return nil, nil
	}
	_, prof, _ := comp.RunProfiled(context.Background(), io.Discard, core.RunOpts{})
	return prof, nil
}

func TestTieredDifferentialCorpus(t *testing.T) {
	for _, p := range testprogs.All() {
		t.Run(p.Name, func(t *testing.T) {
			for _, tc := range tierConfigs {
				t.Run(tc.name, func(t *testing.T) { tierDiff(t, p.Name+".v", p.Source, p.Want, tc.cfg) })
			}
		})
	}
}

// tierDiff records a tier-1 profile of source under cfg, recompiles
// with it, and checks the tier-2 build against the untiered one.
func tierDiff(t *testing.T, name, source, want string, cfg core.Config) {
	prof, err := recordTierProfile(name, source, cfg)
	if err != nil {
		t.Fatalf("tier-1 compile: %v", err)
	}
	if prof == nil {
		t.Skip("no main; nothing to profile")
	}
	tierCfg := cfg
	tierCfg.PGO = prof

	// Exact axis: both engines on the tiered compilation.
	bc, sw, ok := runBothEngines(t, "tiered", name, source, tierCfg)
	if !ok {
		t.Fatal("tier-up recompile failed after the plain compile succeeded")
	}
	sameRun(t, "tiered", bc, sw)

	// Identity axis: tiered vs untiered bytecode.
	baseCfg := cfg
	baseCfg.Engine = core.EngineBytecode
	baseComp, err := core.Compile(name, source, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	base := baseComp.Run()
	bcTrap, bcRes := analysisTrap(bc.Err)
	baseTrap, baseRes := analysisTrap(base.Err)
	if bcRes || baseRes {
		// A budget fired on one side; accounting moved, not
		// comparable observably.
		return
	}
	if bcTrap != baseTrap {
		t.Fatalf("traps differ: tiered %q, untiered %q", bcTrap, baseTrap)
	}
	if bc.Output != base.Output {
		t.Fatalf("outputs differ:\ntiered:   %q\nuntiered: %q", bc.Output, base.Output)
	}
	if bc.Err == nil && bc.Output != want {
		t.Errorf("tiered output = %q, want %q", bc.Output, want)
	}
	if bc.Stats.Steps > base.Stats.Steps {
		t.Errorf("tier 2 ran %d steps, more than untiered %d", bc.Stats.Steps, base.Stats.Steps)
	}
}
