package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// VerifyPromotions is the analysis verifier: every allocation the
// optimizer marked StackAlloc must (a) be an op that is legal to
// promote and (b) be proven non-escaping by a fresh analysis of the
// final IR in res. The check is independent of the optimizer's own
// bookkeeping — res must come from re-running Analyze after all
// transformation — so a pass that promotes on stale or wrong facts is
// caught here and reported as an ICE by the driver, never silently
// shipped as an unsound program.
func VerifyPromotions(mod *ir.Module, res *Result) error {
	for _, f := range mod.Funcs {
		facts := res.FactsFor(f)
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if !in.StackAlloc {
					continue
				}
				if !Promotable(in) {
					return fmt.Errorf("func %s: %s at %s marked stack-alloc but op is not promotable",
						f.Name, in.Op, in.Pos)
				}
				if facts == nil {
					return fmt.Errorf("func %s: stack-alloc %s at %s but function was not analyzed",
						f.Name, in.Op, in.Pos)
				}
				for _, d := range in.Dst {
					if facts.EscapingRegs[d.ID] {
						return fmt.Errorf("func %s: %s at %s marked stack-alloc but result %s escapes",
							f.Name, in.Op, in.Pos, d)
					}
				}
			}
		}
	}
	return nil
}
