package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interp"
)

// runHot runs bytecode artifacts compiled during set-up: the engine and
// interp layers (dispatch, inline caches, the modeled heap) do all the
// work, and no compiler pass runs in the window.
type runHot struct {
	seed  int64
	progs []program
	comps []*core.Compilation
	// first is each program's set-up run, which every op must repeat
	// exactly: output, trap and step count.
	first []hotRun
	// runs records every op's program and stats, traced per program.
	runs []hotRun
}

type hotRun struct {
	prog   int
	out    outcome
	stats  interp.Stats
	dur    time.Duration
	traced bool
}

func setupRunHot(seed int64) (state, error) {
	s := &runHot{seed: seed}
	for _, h := range runHotSet {
		p := h.prog(h.n)
		files := oneFile(p.Name+".v", p.Source)
		comp, err := core.CompileFiles(files, core.Compiled())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", h.name, err)
		}
		s.progs = append(s.progs, program{name: h.name, files: files})
		s.comps = append(s.comps, comp)
		// The warm-up run translates the module to bytecode once.
		s.first = append(s.first, s.run(len(s.comps)-1, nil, 0))
	}
	return s, nil
}

// run runs program k once. Its latency includes the tracing calls, so
// traced and untraced ops compare to give the tracing overhead.
func (s *runHot) run(k int, tr *tracer, op int) hotRun {
	var b strings.Builder
	t0 := time.Now()
	root := tr.begin(op, -1, "op")
	id := tr.begin(op, root, "run")
	stats, err := s.comps[k].RunWith(context.Background(), &b, core.RunOpts{})
	tr.end(id)
	tr.end(root)
	d := time.Since(t0)
	return hotRun{prog: k, out: outcome{kind: runKind(err), output: b.String()}, stats: stats, dur: d, traced: tr != nil}
}

func (s *runHot) measure(deadline time.Time, tr *tracer) (*window, error) {
	n := len(s.progs)
	w := closedLoop(deadline, tr, func(i int, t *tracer, w *window) float64 {
		j := i
		if tr != nil {
			j /= 2
		}
		k := roundOrder(s.seed, j/n, n)[j%n]
		r := s.run(k, t, i)
		if r.out != s.first[k].out || r.stats != s.first[k].stats {
			w.fail("%s: run did not repeat the set-up run: %+v %+v, want %+v %+v", s.progs[k].name, r.out, r.stats, s.first[k].out, s.first[k].stats)
		}
		s.runs = append(s.runs, r)
		return ms(r.dur)
	})
	for _, c := range s.comps {
		w.codeSize += c.Module.NumInstrs()
	}
	return w, nil
}

// verify compares each program's set-up run, which every op repeated,
// with the reference run.
func (s *runHot) verify(w *window) error {
	for k, p := range s.progs {
		if ref := referenceOutcome(p.files, 0, 0); ref != s.first[k].out {
			w.fail("%s: compiled run %+v, reference %+v", p.name, s.first[k].out, ref)
		}
	}
	return nil
}

func (s *runHot) layers(w *window, tr *tracer, m metrics) {
	// Translation happens once in set-up; time it here per program.
	var translate time.Duration
	for _, c := range s.comps {
		id := tr.begin(-1, -1, "translate")
		engine.CompileProfiled(c.Module, nil)
		translate += tr.end(id)
	}
	m.set("engine.translate_ms", ms(translate)/float64(len(s.comps)), "ms")

	runs := layerTimes(tr.spans)["run"]
	var steps, calls, heap int64
	perProg := make([]time.Duration, len(s.progs))
	perCount := make([]int, len(s.progs))
	n := 0
	for _, r := range s.runs {
		if !r.traced {
			continue
		}
		n++
		perProg[r.prog] += r.dur
		perCount[r.prog]++
		steps += r.stats.Steps
		calls += r.stats.Calls
		heap += r.stats.HeapBytes
	}
	if n == 0 {
		return
	}
	m.set("engine.run_ms_per_op", ms(runs)/float64(n), "ms")
	m.set("engine.msteps_per_s", float64(steps)/runs.Seconds()/1e6, "Msteps/s")
	for k, p := range s.progs {
		if perCount[k] > 0 {
			m.set("engine.run_ms."+p.name, ms(perProg[k])/float64(perCount[k]), "ms")
		}
	}
	m.set("interp.steps_per_op", float64(steps)/float64(n), "count")
	m.set("interp.calls_per_op", float64(calls)/float64(n), "count")
	m.set("interp.heap_kb_per_op", float64(heap)/float64(n)/1024, "KiB")
	m.set("trace.coverage_pct", coverage(tr.spans, "op"), "%")
}

func (s *runHot) close() {}
