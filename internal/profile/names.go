package profile

import (
	"fmt"

	"repro/internal/ir"
)

// Walk returns every executable function of mod in the deterministic
// discovery order the bytecode engine translates in — module-listed
// functions, init, main, vtable entries, then anything referenced from
// an instruction — and, index-aligned with it, each function's unique
// profile name. Duplicate names are told apart in the order of this
// walk, so every consumer of a profile (the engine that records it,
// the optimizer that applies it) must enumerate and name functions the
// same way; keeping the walk here keeps them from drifting apart.
//
// A profile name is the function's IR name, with a "#k" suffix
// disambiguating the k-th duplicate in walk order. IR names are almost
// always unique already; the suffix only exists so a profile never
// aliases two functions.
func Walk(mod *ir.Module) (fns []*ir.Func, names []string) {
	fns = make([]*ir.Func, 0, len(mod.Funcs)+2)
	seen := make(map[*ir.Func]bool, len(mod.Funcs)+2)
	add := func(f *ir.Func) {
		if f == nil || seen[f] {
			return
		}
		seen[f] = true
		fns = append(fns, f)
	}
	for _, f := range mod.Funcs {
		add(f)
	}
	add(mod.Init)
	add(mod.Main)
	for _, c := range mod.Classes {
		for _, vf := range c.Vtable {
			add(vf)
		}
	}
	for wi := 0; wi < len(fns); wi++ {
		for _, b := range fns[wi].Blocks {
			for _, in := range b.Instrs {
				add(in.Fn)
			}
		}
	}
	names = make([]string, len(fns))
	used := make(map[string]int, len(fns))
	for i, f := range fns {
		name := f.Name
		if n := used[f.Name]; n > 0 {
			name = fmt.Sprintf("%s#%d", f.Name, n)
		}
		used[f.Name]++
		names[i] = name
	}
	return fns, names
}
