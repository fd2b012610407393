// Package experiments is the one table of the paper's measurable
// claims (T1, E1-E8) and of the engine, tiering, analysis and stage
// ablation series that run on the same workloads. Each Row is a pair
// of Sides that differ in exactly one variable, one core.Config field
// or the program under one config, so a ratio between the two sides
// isolates one stage. The benchmarks in bench_test.go, cmd/bench's
// timing rows and its -report mode (which writes EXPERIMENTS.md) all
// read this table.
package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/testprogs"
	"repro/internal/types"
)

// Size scales every workload of the table.
type Size struct {
	N     int // hot-loop iterations of the testprogs.Bench* workloads
	Scale int // progen scale of the largest compile workload
}

var (
	// Full is the size of recorded benchmarks, EXPERIMENTS.md and every
	// Row.Want.
	Full = Size{N: 10000, Scale: 16}
	// Short is the CI-sized run.
	Short = Size{N: 1000, Scale: 4}
)

// Op is what one measured operation of a row does.
type Op int

const (
	Run     Op = iota // execute the program, compiled beforehand
	Compile           // compile the program from source; nothing runs
)

// Tier2 is a Config.PGO marker: Build replaces it with the profile of
// one training run on the bytecode engine, so a side with it is the
// tier-2 artifact of the same program.
var Tier2 = profile.New()

// Side is one half of a row: a program under a configuration.
type Side struct {
	Label  string
	Prog   testprogs.Prog
	Config core.Config
}

// Counts are a side's deterministic counters: the instructions in its
// compiled module and, for a Run row, what one run executed.
type Counts struct {
	Instrs int
	Steps  int64
	Checks int64 // dynamic arity-adaptation checks (§4.1)
	Boxes  int64 // boxed tuples allocated (§4.2)
	Binds  int64 // runtime type-argument bindings (§4.3)
	Heap   int64 // modeled heap bytes charged
}

// Row is one measured pair. The benchmark rows are Name+"/"+Label of
// each side.
type Row struct {
	Name       string
	Op         Op
	Base, Test Side
	// Want holds the counters of Base and Test at Full size, identical
	// on both engines.
	Want [2]Counts
}

// Entry is one claim and the rows that measure it.
type Entry struct {
	ID      string
	Title   string
	Section string // of the paper; empty for this system's own claims
	Claim   string
	Note    string // what the counters mean for the claim, if not plain
	Rows    []Row
	// Text renders what the entry shows that is not a pair.
	Text func() string
}

// Table is the experiment table at one size.
type Table []Entry

// Rows returns the rows of the entries with the given IDs, or of every
// entry when none is given, in table order.
func (t Table) Rows(ids ...string) []Row {
	var rows []Row
	for _, e := range t {
		if len(ids) == 0 || slices.Contains(ids, e.ID) {
			rows = append(rows, e.Rows...)
		}
	}
	return rows
}

// Diff names the variables in which a and b differ: "program" when the
// sources differ, and each core.Config field whose values differ.
func Diff(a, b Side) []string {
	var d []string
	if a.Prog.Source != b.Prog.Source {
		d = append(d, "program")
	}
	ca, cb := reflect.ValueOf(a.Config), reflect.ValueOf(b.Config)
	for i := 0; i < ca.NumField(); i++ {
		if !reflect.DeepEqual(ca.Field(i).Interface(), cb.Field(i).Interface()) {
			d = append(d, ca.Type().Field(i).Name)
		}
	}
	return d
}

// Build compiles the side's program, training a profile first when
// its PGO is Tier2.
func (s Side) Build() (*core.Compilation, error) {
	cfg := s.Config
	if cfg.PGO == Tier2 {
		train := cfg
		train.PGO, train.Engine = nil, core.EngineBytecode
		base, err := core.Compile(s.Prog.Name+".v", s.Prog.Source, train)
		if err != nil {
			return nil, err
		}
		if _, cfg.PGO, err = base.RunProfiled(context.Background(), io.Discard, core.RunOpts{}); err != nil {
			return nil, err
		}
	}
	return core.Compile(s.Prog.Name+".v", s.Prog.Source, cfg)
}

// Count builds the side and, for a Run row, runs it once.
func (s Side) Count(op Op) (Counts, error) {
	comp, err := s.Build()
	if err != nil {
		return Counts{}, fmt.Errorf("%s: %w", s.Prog.Name, err)
	}
	c := Counts{Instrs: comp.Module.NumInstrs()}
	if op == Run {
		st, err := comp.RunTo(io.Discard, 0)
		if err != nil {
			return Counts{}, fmt.Errorf("%s: %w", s.Prog.Name, err)
		}
		c.Steps, c.Checks, c.Boxes, c.Binds, c.Heap = st.Steps, st.AdaptChecks, st.TupleAllocs, st.TypeEnvBinds, st.HeapBytes
	}
	return c, nil
}

// pair builds a row of one program under two configs.
func pair(name string, op Op, p testprogs.Prog, base, test string, bc, tc core.Config, want [2]Counts) Row {
	return Row{Name: name, Op: op, Base: Side{base, p, bc}, Test: Side{test, p, tc}, Want: want}
}

// versus builds a row of two programs under one config.
func versus(name string, op Op, cfg core.Config, base, test string, bp, tp testprogs.Prog, want [2]Counts) Row {
	return Row{Name: name, Op: op, Base: Side{base, bp, cfg}, Test: Side{test, tp, cfg}, Want: want}
}

// instrs is the want of a Compile row: the module sizes of its sides.
func instrs(base, test int) [2]Counts { return [2]Counts{{Instrs: base}, {Instrs: test}} }

// New builds the table at size s.
func New(s Size) Table {
	n := s.N
	ref, mono := core.Reference(), core.Config{Monomorphize: true}
	norm := core.Config{Monomorphize: true, Normalize: true}
	opt := core.Config{Monomorphize: true, Normalize: true, Optimize: true}
	comp := core.Compiled()
	sw, bc, noa := comp, comp, comp
	sw.Engine, bc.Engine, noa.Analyze = core.EngineSwitch, core.EngineBytecode, false
	tier2 := bc
	tier2.PGO = Tier2

	small, large := testprogs.BenchTupleSmall(n), testprogs.BenchTupleLarge(n/4)
	list, hashmap := testprogs.BenchGenericList(n/4), testprogs.BenchHashMap(n/2)
	print1, matcher := testprogs.BenchPrint1(n), testprogs.BenchMatcher(n/2)
	gen := func(scale int) testprogs.Prog {
		return testprogs.Prog{Name: "gen", Source: progen.Generate(progen.Scale(scale))}
	}
	corpus := func(name string, before, after int) Row {
		return pair("E4_"+name, Compile, testprogs.Get(name), "reference", "mono", ref, mono, instrs(before, after))
	}

	return Table{
		{ID: "T1", Title: "Type constructor summary", Section: "§2.5",
			Claim: "five type constructors: primitives; Array<T> (invariant); tuples (covariant elementwise); functions (contravariant parameter, covariant return); classes (invariant parameters)",
			Text:  typeConstructors},
		{ID: "E1", Title: "Dynamic calling-convention checks", Section: "§4.1",
			Claim: "the checks are expensive ... our compiler normalizes the program, rewriting all uses of tuples to eliminate such overhead",
			Note:  "Checks counts entries into the adaptation routine at indirect and virtual call sites. Normalization leaves them in place and removes the boxed tuples they carry; the checks go only when the analysis layer makes the calls direct (Ablation_Analyze).",
			Rows: []Row{
				pair("E1_DynamicChecks", Run, small, "mono", "mono+norm", mono, norm, [2]Counts{{37, 260014, 10000, 20000, 0, 640032}, {37, 270013, 10000, 0, 0, 32}}),
				pair("E1_OverrideAmbiguity", Run, testprogs.BenchVariants(n), "mono", "mono+norm", mono, norm, [2]Counts{{116, 406741, 43334, 2, 0, 320}, {107, 336740, 43334, 0, 0, 272}}),
			}},
		{ID: "E2", Title: "Tuple flattening vs boxing", Section: "§4.2",
			Claim: "For small tuples, normalization has much better performance than boxing, but large tuples might actually perform better if allocated on the heap.",
			Note:  "Whether boxing ever wins depends on the substrate: compare the large-tuple ratio on the switch interpreter with the one on the bytecode engine, whose unboxed registers make flattened scalars cheap.",
			Rows: []Row{
				pair("E2_TupleSmall", Run, small, "boxed", "flattened", mono, norm, [2]Counts{{37, 260014, 10000, 20000, 0, 640032}, {37, 270013, 10000, 0, 0, 32}}),
				pair("E2_TupleLarge", Run, large, "boxed", "flattened", mono, norm, [2]Counts{{91, 200014, 2500, 2500, 0, 360032}, {103, 232513, 2500, 0, 0, 32}}),
			}},
		{ID: "E3", Title: "Monomorphization vs runtime type arguments", Section: "§4.3",
			Claim: "Even with lazy evaluation ... this exacts a considerable runtime cost",
			Note:  "Both sides execute the same steps; monomorphization removes only the runtime type-argument bindings, so the time between them is what those bindings cost.",
			Rows: []Row{
				pair("E3_GenericList", Run, list, "reference", "mono", ref, mono, [2]Counts{{63, 150034, 5000, 2500, 10002, 240064}, {85, 150034, 5000, 2500, 0, 240064}}),
				pair("E3_HashMap", Run, hashmap, "reference", "mono", ref, mono, [2]Counts{{108, 410706, 37952, 0, 27954, 98480}, {108, 410706, 37952, 0, 0, 98480}}),
			}},
		{ID: "E4", Title: "Code expansion from specialization", Section: "§4.3, §6.1",
			Claim: "in our experience, this has not been an issue in real programs",
			Rows: []Row{
				corpus("generic_list_d", 54, 60),
				corpus("hashmap_i", 122, 193),
				corpus("print1_j", 39, 77),
				corpus("matcher_km", 89, 156),
				corpus("variants_n", 88, 109),
				pair("E4_progen_scale4", Compile, gen(4), "reference", "mono", ref, mono, instrs(2431, 2700)),
			}},
		{ID: "E5", Title: "print1's query chain folds away", Section: "§3.3",
			Claim: "resulting in code just as efficient as if the caller had called the appropriate print* method directly",
			Note:  "After specialization the type-query chain folds away: the generic program executes exactly the steps of the hand-written direct calls.",
			Rows: []Row{
				versus("E5_Print1", Run, comp, "print1", "direct", print1, testprogs.BenchDirect(n), [2]Counts{{57, 265011, 0, 0, 0, 0}, {46, 265011, 0, 0, 0, 0}}),
			}},
		{ID: "E6", Title: "Polymorphic matcher dispatch", Section: "§3.4",
			Claim: "may fail at runtime if an appropriate method is not found",
			Note:  "The matcher works because instantiations are reified, and it pays for that with a search of its handler list and a type query per dispatch; the direct program calls each handler.",
			Rows: []Row{
				versus("E6_Matcher", Run, comp, "matcher", "direct", matcher, testprogs.BenchDirect(n/2), [2]Counts{{180, 492536, 10000, 0, 0, 264}, {46, 132511, 0, 0, 0, 0}}),
			}},
		{ID: "E7", Title: "Compile speed", Section: "§5",
			Claim: "the Virgil compiler generates decent quality machine code and compiles very fast",
			Rows: []Row{
				versus("E7_CompileSpeed", Compile, comp, "smallest", "largest", gen(1), gen(s.Scale), instrs(698, 10718)),
			}},
		{ID: "E8", Title: "Function and tuple variance replace class variance", Section: "§2.2, §3.6",
			Claim: "f(b) with f: List<Animal> -> void and b: List<Bat> is an ERROR (o6); apply(b, g) with g: Animal -> void is OK (o7)",
			Text:  variance},
		{ID: "Engine", Title: "Switch interpreter vs register bytecode",
			Claim: "the bytecode engine is observably identical to the switch interpreter, differing only in speed",
			Rows: []Row{
				pair("Engine_E1_TupleSmall", Run, small, "switch", "bytecode", sw, bc, [2]Counts{{24, 130011, 0, 0, 0, 0}, {24, 130011, 0, 0, 0, 0}}),
				pair("Engine_E3_HashMap", Run, hashmap, "switch", "bytecode", sw, bc, [2]Counts{{125, 322743, 0, 0, 0, 98416}, {125, 322743, 0, 0, 0, 98416}}),
				pair("Engine_E5_Print1", Run, print1, "switch", "bytecode", sw, bc, [2]Counts{{57, 265011, 0, 0, 0, 0}, {57, 265011, 0, 0, 0, 0}}),
				pair("Engine_E6_Matcher", Run, matcher, "switch", "bytecode", sw, bc, [2]Counts{{180, 492536, 10000, 0, 0, 264}, {180, 492536, 10000, 0, 0, 264}}),
			}},
		{ID: "Tiered", Title: "Feedback-directed tier 2",
			Claim: "a profile recorded by one run feeds speculative devirtualization, hot inlining and run fusion; it can cost speed, never correctness",
			Rows: []Row{
				pair("Tiered_E1_TupleSmall", Run, small, "untiered", "tiered", bc, tier2, [2]Counts{{24, 130011, 0, 0, 0, 0}, {24, 130011, 0, 0, 0, 0}}),
				pair("Tiered_E3_HashMap", Run, hashmap, "untiered", "tiered", bc, tier2, [2]Counts{{125, 322743, 0, 0, 0, 98416}, {125, 322743, 0, 0, 0, 98416}}),
				pair("Tiered_E5_Print1", Run, print1, "untiered", "tiered", bc, tier2, [2]Counts{{57, 265011, 0, 0, 0, 0}, {57, 265011, 0, 0, 0, 0}}),
			}},
		{ID: "Analysis", Title: "Interprocedural analysis: payoff and cost",
			Claim: "escape analysis promotes non-escaping allocations off the modeled heap at a bounded compile-time cost",
			Rows: []Row{
				pair("Analysis_ClosureChurn", Run, testprogs.BenchClosureChurn(n), "without", "with", noa, comp, [2]Counts{{38, 200014, 20000, 0, 0, 640024}, {38, 200014, 20000, 0, 0, 24}}),
				pair("Analysis_ObjectChurn", Run, testprogs.BenchObjectChurn(n), "without", "with", noa, comp, [2]Counts{{42, 270011, 10000, 0, 0, 320000}, {48, 250011, 0, 0, 0, 0}}),
				pair("Analysis_Compile", Compile, gen(s.Scale), "without", "with", noa, comp, instrs(10782, 10718)),
			}},
		{ID: "Ablation", Title: "Pipeline stages one at a time", Section: "§4",
			Claim: "each stage of the pipeline, added alone to the one before it, on the generic-list workload",
			Rows: []Row{
				pair("Ablation_Mono", Run, list, "reference", "mono", ref, mono, [2]Counts{{63, 150034, 5000, 2500, 10002, 240064}, {85, 150034, 5000, 2500, 0, 240064}}),
				pair("Ablation_Norm", Run, list, "mono", "mono+norm", mono, norm, [2]Counts{{85, 150034, 5000, 2500, 0, 240064}, {80, 140033, 5000, 0, 0, 180064}}),
				pair("Ablation_Opt", Run, list, "mono+norm", "mono+norm+opt", norm, opt, [2]Counts{{80, 140033, 5000, 0, 0, 180064}, {81, 105032, 5000, 0, 0, 180064}}),
				pair("Ablation_Analyze", Run, list, "mono+norm+opt", "compiled", opt, comp, [2]Counts{{81, 105032, 5000, 0, 0, 180064}, {84, 100032, 0, 0, 0, 180000}}),
			}},
	}
}

// typeConstructors prints T1 from the implemented type system.
func typeConstructors() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %-14s | %s\n", "Typecon", "Type Params", "Syntax")
	for _, row := range types.TypeConstructorTable() {
		fmt.Fprintf(&b, "%-10s | %-14s | %s\n", row.Typecon, row.TypeParams, row.Syntax)
	}
	return b.String()
}

// varianceBase is the paper's §3.6 example, the o6 and o7 programs
// without their main.
const varianceBase = `
class Animal { }
class Bat extends Animal { }
class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }
def apply<A>(list: List<A>, f: A -> void) {
	for (l = list; l != null; l = l.tail) f(l.head);
}
def g(a: Animal) { }
def f(list: List<Animal>) { }
var b: List<Bat>;
`

// variance prints the checker's decision on o6 and o7.
func variance() string {
	var b strings.Builder
	for _, c := range []struct{ label, main string }{
		{"(o6) f(b):       ", "def main() { f(b); }"},
		{"(o7) apply(b, g):", "def main() { apply(b, g); }"},
	} {
		_, err := core.Compile("variance.v", varianceBase+c.main, core.Reference())
		if err != nil {
			fmt.Fprintf(&b, "%s REJECTED: %s\n", c.label, strings.SplitN(err.Error(), "\n", 2)[0])
		} else {
			fmt.Fprintf(&b, "%s ACCEPTED\n", c.label)
		}
	}
	return b.String()
}
