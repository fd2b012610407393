// Typemetrics compiles workloads under every pipeline configuration and
// reports the implementation metrics the paper's §4 discusses:
// monomorphization code expansion, normalization's structural effect,
// and the runtime costs each stage removes. Monomorphization removes
// the runtime type bindings; normalization removes the boxed tuples and
// every dynamic arity check, so the checks column of the mono+norm and
// mono+norm+opt rows reads 0 (CI fails otherwise).
//
//	go run ./examples/typemetrics
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/testprogs"
)

func main() {
	workloads := []testprogs.Prog{
		testprogs.Get("generic_list_d"),
		testprogs.Get("hashmap_i"),
		testprogs.Get("matcher_km"),
		testprogs.BenchTupleSmall(2000),
		{Name: "progen-scale2", Source: progen.Generate(progen.Scale(2))},
	}
	for _, p := range workloads {
		fmt.Printf("=== %s ===\n", p.Name)
		fmt.Printf("%-16s %9s %9s %9s %9s %9s\n",
			"config", "instrs", "steps", "boxes", "binds", "checks")
		for _, cfg := range core.Configs() {
			comp, err := core.Compile(p.Name+".v", p.Source, cfg)
			if err != nil {
				log.Fatalf("%s [%s]: %v", p.Name, cfg.Name(), err)
			}
			st, err := comp.RunTo(io.Discard, 0)
			if err != nil {
				log.Fatalf("%s [%s]: %v", p.Name, cfg.Name(), err)
			}
			fmt.Printf("%-16s %9d %9d %9d %9d %9d\n",
				cfg.Name(), comp.Module.NumInstrs(), st.Steps,
				st.TupleAllocs, st.TypeEnvBinds, st.AdaptChecks)
		}
		comp, err := core.Compile(p.Name+".v", p.Source, core.Compiled())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mono: %d -> %d funcs (%.2fx instrs); norm: %d tuples eliminated, %d fields split; opt: %d queries folded, %d inlined\n\n",
			comp.MonoStats.FuncsBefore, comp.MonoStats.FuncsAfter,
			comp.MonoStats.ExpansionFactor(),
			comp.NormStats.TuplesEliminated, comp.NormStats.FieldsSplit,
			comp.OptStats.QueriesFolded, comp.OptStats.Inlined)
	}
}
