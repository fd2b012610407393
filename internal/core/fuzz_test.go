package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
)

// fuzzGuards bounds fuzz executions with deterministic limits only (a
// wall-clock timeout would make the two configs diverge spuriously).
// The typed IR verifier runs after every stage so fuzzing catches
// stage-local IR corruption, not just end-to-end divergence.
func fuzzGuards(cfg core.Config) core.Config {
	cfg.MaxSteps = 300_000
	cfg.MaxDepth = 256
	cfg.MaxHeap = 8 << 20
	cfg.VerifyIR = true
	return cfg
}

// FuzzPipeline is the property the whole paper rests on: for any input
// that compiles, the reference interpreter (polymorphic IR, runtime
// type environments) and the full static pipeline (monomorphized,
// normalized, optimized) must agree — same output and same result, or
// the same language-level trap. On inputs that do not compile, both
// configs must fail with ordinary diagnostics, never a panic or an
// internal compiler error.
func FuzzPipeline(f *testing.F) {
	for _, p := range testprogs.All() {
		f.Add(p.Source)
	}
	for _, src := range progen.Hungry() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, source string) {
		noaCfg := fuzzGuards(core.Compiled())
		noaCfg.Analyze = false
		refComp, refErr := core.Compile("fuzz.v", source, fuzzGuards(core.Reference()))
		fullComp, fullErr := core.Compile("fuzz.v", source, fuzzGuards(core.Compiled()))
		noaComp, noaErr := core.Compile("fuzz.v", source, noaCfg)
		checkNoICE(t, "ref compile", refErr)
		checkNoICE(t, "full compile", fullErr)
		checkNoICE(t, "noanalyze compile", noaErr)
		// The analysis layer must never change whether a program
		// compiles — it only adds facts and fact-driven rewrites.
		if (fullErr == nil) != (noaErr == nil) {
			t.Fatalf("analyze ablation changed compile outcome: with=%v without=%v\nsource:\n%s",
				fullErr, noaErr, source)
		}
		if refErr != nil || fullErr != nil {
			// Legitimate rejections (diagnostics, or mono refusing
			// unbounded specialization) end the property here.
			return
		}
		if refComp.Module.Main == nil {
			return
		}
		refRes := refComp.Run()
		fullRes := fullComp.Run()
		noaRes := noaComp.Run()
		checkNoICE(t, "ref run", refRes.Err)
		checkNoICE(t, "full run", fullRes.Err)
		checkNoICE(t, "noanalyze run", noaRes.Err)
		// Third axis: the analysis-driven rewrites (devirtualization,
		// pure-call elimination, stack promotion) must be
		// semantics-preserving against the same pipeline without them.
		// Resource and heap stops are excluded: promotion legitimately
		// removes heap charges, which moves budget boundaries.
		fuzzDiffAnalyze(t, source, fullRes, noaRes)
		// Second axis: the register-bytecode engine (the default above)
		// versus the switch interpreter must agree exactly — output,
		// trap identity, stack trace, and step-for-step stats. Resource
		// stops here are deterministic (no wall-clock guard), so even
		// those must match, unlike the cross-config comparison below.
		fuzzDiffEngines(t, "ref", source, fuzzGuards(core.Reference()), refRes)
		fuzzDiffEngines(t, "full", source, fuzzGuards(core.Compiled()), fullRes)
		// Fourth axis: the tier-up recompile. Harvest a profile from one
		// run and feed it back; the profile-guided build must match the
		// plain build observably and its two engines must match exactly.
		fuzzDiffTiered(t, source, fullRes)
		// Fifth axis: incremental recompilation. Warm the artifact
		// store with this input, apply a synthetic edit, and require
		// the incremental compile to be byte-identical to a
		// from-scratch compile of the edited source.
		fuzzDiffIncremental(t, source)
		// Step budgets fire at different instruction counts across
		// configs, so a resource stop on either side voids comparison.
		var re *interp.ResourceError
		if errors.As(refRes.Err, &re) || errors.As(fullRes.Err, &re) {
			return
		}
		refName, fullName := trapName(refRes.Err), trapName(fullRes.Err)
		// The heap meter charges the IR each config actually executes —
		// normalization changes tuple and closure allocation shapes — so
		// the budget can fire in one config and not the other. The trap
		// itself is still diffed exactly engine-vs-engine above.
		if refName == interp.HeapExhausted || fullName == interp.HeapExhausted {
			return
		}
		if refName != fullName {
			t.Fatalf("trap divergence: ref=%q full=%q\nsource:\n%s", refName, fullName, source)
		}
		if refRes.Output != fullRes.Output {
			t.Fatalf("output divergence:\nref:  %q\nfull: %q\nsource:\n%s", refRes.Output, fullRes.Output, source)
		}
	})
}

// fuzzDiffAnalyze compares the optimized pipeline with and without the
// analysis layer: identical output and trap identity, and analysis may
// only lower the modeled heap charge, never raise it.
func fuzzDiffAnalyze(t *testing.T, source string, on, off core.RunResult) {
	t.Helper()
	var re *interp.ResourceError
	if errors.As(on.Err, &re) || errors.As(off.Err, &re) {
		return
	}
	onName, offName := trapName(on.Err), trapName(off.Err)
	if onName == interp.HeapExhausted || offName == interp.HeapExhausted {
		return
	}
	if onName != offName {
		t.Fatalf("analyze ablation trap divergence: with=%q without=%q\nsource:\n%s",
			onName, offName, source)
	}
	if on.Output != off.Output {
		t.Fatalf("analyze ablation output divergence:\nwith:    %q\nwithout: %q\nsource:\n%s",
			on.Output, off.Output, source)
	}
	if on.Stats.HeapBytes > off.Stats.HeapBytes {
		t.Fatalf("analysis increased heap charge: with=%d without=%d\nsource:\n%s",
			on.Stats.HeapBytes, off.Stats.HeapBytes, source)
	}
}

// fuzzDiffTiered performs the serve layer's tier-up in miniature —
// profile one run, recompile with the profile — and holds the result
// to the same bar as the analyze ablation: identical output and trap
// identity versus the untiered build (hot inlining legitimately moves
// step counts and budget boundaries, so resource and heap stops void
// the comparison), plus exact engine-vs-engine equality on the tiered
// module itself. A garbage profile is covered elsewhere (internal/opt);
// here the profile is real but possibly partial, since the harvesting
// run may have trapped or hit a budget.
// fuzzDiffIncremental warms an artifact store with source, applies a
// synthetic edit (an appended function), and diffs the incremental
// compile of the edited program against a from-scratch compile. The
// incremental path must produce a byte-identical module dump through
// every reuse mode it picks — incremental, fallback, or hit — and a
// repeat compile of the same edited source must be a whole-module hit
// with the same dump.
func fuzzDiffIncremental(t *testing.T, source string) {
	t.Helper()
	cfg := fuzzGuards(core.Compiled())
	cfg.Analyze = false
	store := core.NewStore(2)
	files := []core.File{{Name: "fuzz.v", Source: source}}
	if _, _, err := core.CompileFilesIncremental(t.Context(), files, cfg, store); err != nil {
		checkNoICE(t, "incremental warm compile", err)
		return
	}
	edited := source + "\ndef __incr_fuzz_probe(q: int) -> int { return q * 3 + 1; }\n"
	efiles := []core.File{{Name: "fuzz.v", Source: edited}}
	incComp, _, incErr := core.CompileFilesIncremental(t.Context(), efiles, cfg, store)
	scratch, scratchErr := core.Compile("fuzz.v", edited, cfg)
	checkNoICE(t, "incremental compile", incErr)
	checkNoICE(t, "incremental scratch compile", scratchErr)
	if (incErr == nil) != (scratchErr == nil) {
		t.Fatalf("incremental changed compile outcome: incr=%v scratch=%v\nsource:\n%s",
			incErr, scratchErr, source)
	}
	if incErr != nil {
		return
	}
	if incComp.Module.String() != scratch.Module.String() {
		t.Fatalf("incremental module differs from scratch\nsource:\n%s", source)
	}
	hitComp, _, hitErr := core.CompileFilesIncremental(t.Context(), efiles, cfg, store)
	checkNoICE(t, "incremental rehit", hitErr)
	if hitErr == nil && hitComp.Module.String() != scratch.Module.String() {
		t.Fatalf("module-hit dump differs from scratch\nsource:\n%s", source)
	}
}

func fuzzDiffTiered(t *testing.T, source string, full core.RunResult) {
	t.Helper()
	cfg := fuzzGuards(core.Compiled())
	prof, err := recordTierProfile("fuzz.v", source, cfg)
	if err != nil || prof == nil {
		// The plain compile succeeded upstream, so err here means the
		// bytecode-engine config was rejected or main is absent; either
		// way there is no tier to compare.
		return
	}
	tierCfg := cfg
	tierCfg.PGO = prof
	tierCfg.Engine = core.EngineBytecode
	tiered, err := core.Compile("fuzz.v", source, tierCfg)
	checkNoICE(t, "tiered compile", err)
	if err != nil {
		t.Fatalf("tier-up recompile failed after the plain compile succeeded: %v\nsource:\n%s", err, source)
	}
	tRes := tiered.Run()
	checkNoICE(t, "tiered run", tRes.Err)
	fuzzDiffEngines(t, "tiered", source, tierCfg, tRes)
	var re *interp.ResourceError
	if errors.As(tRes.Err, &re) || errors.As(full.Err, &re) {
		return
	}
	tName, fName := trapName(tRes.Err), trapName(full.Err)
	if tName == interp.HeapExhausted || fName == interp.HeapExhausted {
		return
	}
	if tName != fName {
		t.Fatalf("tier-up trap divergence: tiered=%q untiered=%q\nsource:\n%s", tName, fName, source)
	}
	if tRes.Output != full.Output {
		t.Fatalf("tier-up output divergence:\ntiered:   %q\nuntiered: %q\nsource:\n%s", tRes.Output, full.Output, source)
	}
}

// fuzzDiffEngines reruns source under cfg with the switch interpreter
// and asserts full observable equality with the bytecode result. An
// ICE on both sides (corrupt IR rejected by both engines) is the only
// tolerated asymmetry in message text.
func fuzzDiffEngines(t *testing.T, label, source string, cfg core.Config, bc core.RunResult) {
	t.Helper()
	cfg.Engine = core.EngineSwitch
	swComp, err := core.Compile("fuzz.v", source, cfg)
	if err != nil {
		t.Fatalf("%s: switch-engine compile failed after bytecode compile succeeded: %v", label, err)
	}
	sameRun(t, label+" engines", bc, swComp.Run())
}

// trapName maps an execution result to a comparable label: "" for
// clean termination, the trap name for Virgil exceptions.
func trapName(err error) string {
	if err == nil {
		return ""
	}
	var ve *interp.VirgilError
	if errors.As(err, &ve) {
		return ve.Name
	}
	return err.Error()
}

func checkNoICE(t *testing.T, phase string, err error) {
	t.Helper()
	var ice *src.ICE
	if errors.As(err, &ice) {
		t.Fatalf("%s: internal compiler error (contained panic): %v\n%s", phase, ice, ice.Stack)
	}
	if err != nil && strings.Contains(err.Error(), "internal") && !errors.As(err, &ice) {
		// Non-ICE "internal" errors indicate a containment gap.
		t.Fatalf("%s: unstructured internal error: %v", phase, err)
	}
}
