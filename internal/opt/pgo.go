package opt

import (
	"repro/internal/ir"
	"repro/internal/profile"
)

// The profile-guided pass. A runtime profile (package profile) names
// functions deterministically, so a profile recorded by one process can
// steer a fresh compilation of the same source in another. Profiles are
// advisory by construction: they only pick which functions get a larger
// inlining budget, so a stale or adversarially wrong profile can cost
// speed, never correctness.
//
// When Config.Profile is set, functions the profile marks hot get a
// second inlining round with a raised size budget, so calls the
// conservative first rounds declined can splice in where the time is
// actually spent. Dispatch is not speculated on: under Config.Analyze
// the call graph's unique-target devirtualization (devirtualizeCG)
// binds every provable site, and the engine's monomorphic inline caches
// handle the rest.

// hotInlineLimit is the raised callee-size budget for functions the
// profile marks hot: four times the default conservative limit.
const hotInlineLimit = 64

// inlineHot spends a raised inlining budget on the functions the
// profile marks hot, then folds them to clean up the splices. Called
// after the fold/inline rounds so the function names walked here match
// the names the engine assigned when it profiled the same
// deterministically-optimized IR, and before the final
// pure-call/promotion phase. The fold statistics merge into the main
// Stats; the extra inlines are counted separately as HotInlined.
func (o *optimizer) inlineHot() {
	prof := o.cfg.Profile
	if prof == nil || prof.Empty() || !o.mod.Monomorphic || !o.mod.Normalized {
		return
	}
	hotNames := map[string]bool{}
	for _, name := range prof.HotFuncs() {
		hotNames[name] = true
	}
	fns, names := profile.Walk(o.mod)
	isHot := make(map[*ir.Func]bool, len(fns))
	for i, f := range fns {
		isHot[f] = hotNames[names[i]]
	}
	var hot []*ir.Func
	for _, f := range o.mod.Funcs {
		if isHot[f] {
			hot = append(hot, f)
		}
	}
	if len(hot) == 0 {
		return
	}
	hs := &Stats{}
	ho := &optimizer{mod: o.mod, tc: o.tc, cfg: o.cfg, st: hs}
	ho.cfg.InlineLimit = hotInlineLimit
	for round := 0; round < 2; round++ {
		// Hot inlining reads round-frozen snapshots like the main
		// rounds, built here over the whole module since hot callers
		// may inline any callee.
		snaps := map[string]*Snapshot{}
		for _, f := range o.mod.Funcs {
			if s := snapshotOf(f, hotInlineLimit); s != nil {
				snaps[f.Name] = s
			}
		}
		lookup := func(name string) *Snapshot { return snaps[name] }
		changed := false
		for _, f := range hot {
			if ho.inlineCalls(f, lookup) {
				changed = true
			}
		}
		for _, f := range hot {
			ho.foldFunc(f)
		}
		if !changed {
			break
		}
	}
	o.st.HotInlined += hs.Inlined
	o.st.QueriesFolded += hs.QueriesFolded
	o.st.CastsElided += hs.CastsElided
	o.st.BranchesFolded += hs.BranchesFolded
	o.st.InstrsRemoved += hs.InstrsRemoved
}
