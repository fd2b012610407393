package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
)

// compileCold compiles programs from scratch under core.Compiled() with
// the CLI default Jobs (0 = GOMAXPROCS): every compiler pass, including
// the parallel fan-out, does all the work, and no cache, store or
// engine is involved.
type compileCold struct {
	seed int64
	cfg  core.Config
	set  []program
	// round lists the set indices one round compiles (see coldClasses).
	round []int
	// instrs is each program's set-up module size, which every later
	// compile must repeat exactly. The compilations themselves are not
	// kept: a large live heap would slow the measured compiles' GC.
	instrs []int
	// tracedFirst records the first traced op's counts per program, for
	// the exact-repeat check of the pass counters.
	tracedFirst map[int]passCounts
	traced      []tracedCompile
}

// tracedCompile is what the per-layer metrics keep of a traced op.
type tracedCompile struct {
	counts passCounts
	lines  int
	stats  interp.Stats
}

// passCounts are the deterministic counters a traced compile yields.
type passCounts struct {
	instrs, lowered, monoAfter, inlined, devirt, promoted, tuples int
	expansion                                                     float64
}

func countsOf(c *composed) passCounts {
	return passCounts{
		instrs:    c.mod.NumInstrs(),
		lowered:   c.mono.InstrsBefore,
		monoAfter: c.mono.InstrsAfter,
		expansion: c.mono.ExpansionFactor(),
		inlined:   c.opt.Inlined,
		devirt:    c.opt.Devirtualized + c.opt.DevirtIndirect,
		promoted:  c.opt.StackPromoted,
		tuples:    c.norm.TuplesEliminated,
	}
}

func setupCompileCold(seed int64) (state, error) {
	s := &compileCold{seed: seed, cfg: core.Compiled(), set: compileColdSet(seed), tracedFirst: map[int]passCounts{}}
	for _, p := range s.set {
		comp, err := core.CompileFiles(p.files, s.cfg)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		s.instrs = append(s.instrs, comp.Module.NumInstrs())
		s.round = append(s.round, len(s.instrs)-1)
		if !p.hasWant {
			for r := 1; r < coldRepeats; r++ {
				s.round = append(s.round, len(s.instrs)-1)
			}
		}
	}
	return s, nil
}

// input maps op i to a program: seeded rounds, one after the other. A
// traced run gives each input to an untraced and a traced op.
func (s *compileCold) input(i int, traced bool) int {
	if traced {
		i /= 2
	}
	n := len(s.round)
	return s.round[roundOrder(s.seed, i/n, n)[i%n]]
}

func (s *compileCold) measure(deadline time.Time, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := closedLoop(deadline, tr, func(i int, t *tracer, w *window) float64 {
		k := s.input(i, tr != nil)
		p := s.set[k]
		if t != nil {
			c, err := composeCompile(ctx, p.files, t, i)
			if err != nil {
				w.fail("%s: %v", p.name, err)
				return 0
			}
			s.checkTraced(k, c, w)
			return ms(c.compile)
		}
		t0 := time.Now()
		comp, err := core.CompileFiles(p.files, s.cfg)
		lat := ms(time.Since(t0))
		if err != nil {
			w.fail("%s: %v", p.name, err)
		} else if n := comp.Module.NumInstrs(); n != s.instrs[k] {
			w.fail("%s: %d instrs, set-up compile had %d", p.name, n, s.instrs[k])
		}
		return lat
	})
	for _, n := range s.instrs {
		w.codeSize += n
	}
	return w, nil
}

// checkTraced holds a traced compile to the counts of the program's
// first traced compile and to the set-up module size.
func (s *compileCold) checkTraced(k int, c *composed, w *window) {
	got := countsOf(c)
	if got.instrs != s.instrs[k] {
		w.fail("%s: composed pipeline gave %d instrs, core.CompileFiles %d", s.set[k].name, got.instrs, s.instrs[k])
	}
	if first, ok := s.tracedFirst[k]; !ok {
		s.tracedFirst[k] = got
	} else if first != got {
		w.fail("%s: pass counts did not repeat: %+v then %+v", s.set[k].name, first, got)
	}
	s.traced = append(s.traced, tracedCompile{got, c.lines, c.stats})
}

// verify compiles every program once more, runs it on the bytecode
// engine and compares it with the paper corpus's Want string and with
// the reference run. A traced run also proves the composed pipeline
// byte-identical to core.CompileFiles on every input.
func (s *compileCold) verify(w *window) error {
	for k, p := range s.set {
		ref := referenceOutcome(p.files, 0, 0)
		if p.hasWant && ref.output != p.want {
			w.fail("%s: reference printed %q, corpus wants %q", p.name, ref.output, p.want)
		}
		comp, err := core.CompileFiles(p.files, s.cfg)
		if err != nil {
			w.fail("%s: %v", p.name, err)
			continue
		}
		if n := comp.Module.NumInstrs(); n != s.instrs[k] {
			w.fail("%s: %d instrs, set-up compile had %d", p.name, n, s.instrs[k])
		}
		if got := runOutcome(comp); got != ref {
			w.fail("%s: compiled run %+v, reference %+v", p.name, got, ref)
		}
		if len(s.traced) > 0 {
			c, err := composeCompile(context.Background(), p.files, nil, 0)
			if err != nil {
				w.fail("%s: %v", p.name, err)
				continue
			}
			if c.mod.String() != comp.Module.String() {
				w.fail("%s: composed pipeline module differs from core.CompileFiles", p.name)
			}
			if c.out != ref {
				w.fail("%s: composed run %+v, reference %+v", p.name, c.out, ref)
			}
		}
	}
	return nil
}

func (s *compileCold) layers(w *window, tr *tracer, m metrics) {
	n := len(s.traced)
	if n == 0 {
		return
	}
	times := layerTimes(tr.spans)
	for _, st := range [][2]string{
		{"parse", "parser"}, {"check", "typecheck"}, {"lower", "lower"}, {"mono", "mono"},
		{"norm", "norm"}, {"opt", "opt"}, {"analysis", "analysis"},
	} {
		m.set(st[1]+".ms_per_op", msPer(times, st[0], n), "ms")
	}
	m.set("ir.validate_ms_per_op", msPer(times, "validate", n), "ms")
	lines := 0
	var sum passCounts
	var steps, calls, heap int64
	for _, c := range s.traced {
		lines += c.lines
		k := c.counts
		sum.lowered += k.lowered
		sum.monoAfter += k.monoAfter
		sum.instrs += k.instrs
		sum.inlined += k.inlined
		sum.devirt += k.devirt
		sum.promoted += k.promoted
		sum.tuples += k.tuples
		steps += c.stats.Steps
		calls += c.stats.Calls
		heap += c.stats.HeapBytes
	}
	per := func(x int) float64 { return float64(x) / float64(n) }
	if t := times["parse"]; t > 0 {
		m.set("parser.klines_per_s", float64(lines)/t.Seconds()/1000, "klines/s")
	}
	m.set("lower.instrs", per(sum.lowered), "count")
	m.set("mono.instrs", per(sum.monoAfter), "count")
	if sum.lowered > 0 {
		m.set("mono.expansion", float64(sum.monoAfter)/float64(sum.lowered), "ratio")
	}
	m.set("norm.tuples_eliminated", per(sum.tuples), "count")
	m.set("opt.instrs", per(sum.instrs), "count")
	m.set("opt.inlined", per(sum.inlined), "count")
	m.set("opt.devirtualized", per(sum.devirt), "count")
	m.set("opt.stack_promoted", per(sum.promoted), "count")
	m.set("engine.translate_ms", msPer(times, "translate", n), "ms")
	m.set("engine.run_ms_per_op", msPer(times, "run", n), "ms")
	if t := times["run"]; t > 0 {
		m.set("engine.msteps_per_s", float64(steps)/t.Seconds()/1e6, "Msteps/s")
	}
	m.set("interp.steps_per_op", float64(steps)/float64(n), "count")
	m.set("interp.calls_per_op", float64(calls)/float64(n), "count")
	m.set("interp.heap_kb_per_op", float64(heap)/float64(n)/1024, "KiB")
	m.set("trace.coverage_pct", coverage(tr.spans, "compile"), "%")
}

func (s *compileCold) close() {}
