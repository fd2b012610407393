package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/testprogs"
)

// newRand returns the generator of one input stream of a seed. Streams
// keep the parts of a workload independent: changing how many values
// one part draws does not shift another.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// program is one input of a closed-loop workload.
type program struct {
	name  string
	files []core.File
	// want is the paper corpus's expected output ("" for generated
	// programs, which are checked against the reference run only).
	want    string
	hasWant bool
}

// roundOrder returns the seeded order in which round r visits n
// programs. Every round visits each program once, so each run sees the
// same mix however long it lasts.
func roundOrder(seed int64, r, n int) []int {
	return newRand(seed, 1000+int64(r)).Perm(n)
}

// Generated-program classes of compile-cold: (scale, distinct
// programs). A round compiles every corpus program once and every
// generated program twice: 28 corpus, 24 Scale(2), 8 Scale(4) and 4
// Scale(8) compiles. Sorted by latency, the median then falls among
// the Scale(2) compiles, the 90th percentile among the Scale(4) ones
// and the 99th among the Scale(8) ones, each well inside its class, so
// no percentile sits on the edge between two classes. Counts are even:
// programs are perturbed in pairs.
var coldClasses = [][2]int{{2, 12}, {4, 4}, {8, 2}}

// coldRepeats is how many times a round compiles a generated program.
const coldRepeats = 2

// compileColdSet is compile-cold's distinct programs: the whole paper
// corpus plus seeded progen programs at Scale 2, 4 and 8 with perturbed
// parameters. The two programs of a pair get opposite perturbations, so
// a class's total size, and with it the run's cost, hardly depends on
// the seed.
func compileColdSet(seed int64) []program {
	var set []program
	for _, p := range testprogs.All() {
		set = append(set, program{name: p.Name, files: oneFile(p.Name+".v", p.Source), want: p.Want, hasWant: true})
	}
	r := newRand(seed, 1)
	for _, c := range coldClasses {
		k := c[0]
		for i := 0; i < c[1]; i += 2 {
			dc, df, dg, dt := 1+r.Intn(k), 1+r.Intn(2*k), 1+r.Intn(k), r.Intn(2)
			for j, sign := range []int{1, -1} {
				p := progen.Scale(k)
				p.Classes += sign * dc / 2
				p.Funcs += sign * df / 2
				p.GenericFuncs += sign * dg / 2
				p.TupleDepth += (dt + j) % 2
				name := fmt.Sprintf("gen_s%d_%d", k, i+j)
				set = append(set, program{name: name, files: oneFile(name+".v", progen.Generate(p))})
			}
		}
	}
	return set
}

// runHotSet lists run-hot's E-series programs, each sized so one run
// takes about 2.5 ms on the bytecode engine and no program dominates.
var runHotSet = []struct {
	name string
	prog func(n int) testprogs.Prog
	n    int
}{
	{"tuple_small", testprogs.BenchTupleSmall, 30000},
	{"generic_list", testprogs.BenchGenericList, 3000},
	{"hashmap", testprogs.BenchHashMap, 3000},
	{"print1", testprogs.BenchPrint1, 10000},
	{"matcher", testprogs.BenchMatcher, 300},
	{"object_churn", testprogs.BenchObjectChurn, 6000},
	{"closure_churn", testprogs.BenchClosureChurn, 5000},
}
