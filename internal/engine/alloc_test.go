package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/progen"
)

// TestTranslateAllocs pins bytecode translation's allocation rate on a
// compiled progen Scale 4 module, the module edit-loop re-translates
// after every edit. Translation allocates the function records and
// register tables once per module; each function's code and position
// arrays once at their final size; call operands from one arena per
// function; and cold payloads in one exact-size table per function,
// only for the instructions that need one. Its ID-indexed tables are
// reused across functions. A run measures about 1,360 allocations,
// against 4,102 when code arrays grew by append and the tables were
// maps. The 1,690 ceiling (1.25x) fails if per-instruction or
// per-function allocation comes back.
func TestTranslateAllocs(t *testing.T) {
	comp, err := core.Compile("gen.v", progen.Generate(progen.Scale(4)), core.Compiled())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { engine.Compile(comp.Module) })
	t.Logf("engine.Compile on progen Scale 4: %.0f allocs/run", allocs)
	if allocs > 1690 {
		t.Errorf("engine.Compile allocs/run = %.0f, want <= 1690: translation's allocation diet regressed", allocs)
	}
}
