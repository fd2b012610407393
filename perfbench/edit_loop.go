package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/progen"
)

// The edit-loop project: a Scale(2) program with call chains, split
// into projectFiles files. Sized so a one-function edit recompiles in
// tens of ms and the cold compile stays a fraction of a second.
var projectParams = func() progen.Params {
	p := progen.Scale(1)
	p.Chains, p.ChainDepth = 16, 8
	return p
}()

const (
	projectFiles = 4
	// linkEditsPerDepth is how many call-chain links of each depth a
	// cycle edits; every worker function is edited once as well.
	linkEditsPerDepth = 3
	// bodyEdits is the number of one-function body edits in one cycle
	// of the edit script. A cycle applies them one by one, adds a field
	// to a class (a type-level edit the store must fall back on),
	// reverts the body edits one by one, and removes the field, after
	// which the project is back at its set-up state.
	bodyEdits = linkEditsPerDepth*8 + 8
	cycleLen  = 2*bodyEdits + 2
)

// project is the edit-loop source as top-level declaration blocks.
type project struct {
	blocks []string
	// fileOf maps a block to the file it lives in.
	fileOf []int
}

// splitProject cuts a generated program into declaration blocks (a
// block starts at a line beginning in column 0) and spreads them over
// projectFiles files in source order.
func splitProject(source string) *project {
	var blocks []string
	for _, line := range strings.SplitAfter(source, "\n") {
		if line == "" {
			continue
		}
		if len(blocks) == 0 || (line[0] != '\t' && line[0] != '}') {
			blocks = append(blocks, line)
		} else {
			blocks[len(blocks)-1] += line
		}
	}
	p := &project{blocks: blocks}
	for i := range blocks {
		p.fileOf = append(p.fileOf, i*projectFiles/len(blocks))
	}
	return p
}

func (p *project) files(blocks []string) []core.File {
	var b [projectFiles]strings.Builder
	for i, text := range blocks {
		b[p.fileOf[i]].WriteString(text)
	}
	files := make([]core.File, projectFiles)
	for f := range files {
		files[f] = core.File{Name: fmt.Sprintf("proj%d.v", f), Source: b[f].String()}
	}
	return files
}

// edit replaces old with new inside one block.
type edit struct {
	block    int
	old, new string
}

// editScript draws the seeded cycle's body edits: linkEditsPerDepth
// links at every depth of the call chains (so the dirty caller closure
// varies, with the same depth mix on every seed) and every worker
// function called from main, in seeded order. typeEdit adds a field to
// a class.
func editScript(p *project, seed int64) (body []edit, typeEdit edit, err error) {
	index := map[string]int{}
	for i, b := range p.blocks {
		first := strings.SplitN(b, "\n", 2)[0]
		index[strings.SplitN(first, "(", 2)[0]] = i
	}
	r := newRand(seed, 2)
	add := func(name, old, repl string) error {
		i, ok := index[name]
		if !ok || !strings.Contains(p.blocks[i], old) {
			return fmt.Errorf("edit script: no %q in %q", old, name)
		}
		body = append(body, edit{i, old, repl})
		return nil
	}
	for d := 0; d < projectParams.ChainDepth; d++ {
		for _, c := range r.Perm(projectParams.Chains)[:linkEditsPerDepth] {
			if err := add(fmt.Sprintf("def link%d_%d", c, d), fmt.Sprintf(" + %d; }", c&7), fmt.Sprintf(" + %d; }", 8+r.Intn(50))); err != nil {
				return nil, edit{}, err
			}
		}
	}
	for f := 0; f < projectParams.Funcs; f++ {
		if err := add(fmt.Sprintf("def work%d", f), fmt.Sprintf("var acc = %d;", f+1), fmt.Sprintf("var acc = %d;", f+2+r.Intn(50))); err != nil {
			return nil, edit{}, err
		}
	}
	if len(body) != bodyEdits {
		return nil, edit{}, fmt.Errorf("edit script: %d body edits, want %d", len(body), bodyEdits)
	}
	r.Shuffle(len(body), func(a, b int) { body[a], body[b] = body[b], body[a] })
	i, ok := index["class Base0 {"]
	if !ok {
		return nil, edit{}, fmt.Errorf("edit script: no class Base0")
	}
	return body, edit{i, "\tvar f: int;\n", "\tvar f: int;\n\tvar pad: int;\n"}, nil
}

// cycleStates returns the cycleLen project states in op order: state t
// is the source after op t of a cycle; the last one is the set-up state.
func cycleStates(p *project, body []edit, typeEdit edit) [][]core.File {
	cur := append([]string(nil), p.blocks...)
	apply := func(e edit, forward bool) {
		if forward {
			cur[e.block] = strings.Replace(cur[e.block], e.old, e.new, 1)
		} else {
			cur[e.block] = strings.Replace(cur[e.block], e.new, e.old, 1)
		}
	}
	var states [][]core.File
	for _, e := range body {
		apply(e, true)
		states = append(states, p.files(cur))
	}
	apply(typeEdit, true)
	states = append(states, p.files(cur))
	for _, e := range body {
		apply(e, false)
		states = append(states, p.files(cur))
	}
	apply(typeEdit, false)
	return append(states, p.files(cur))
}

// editLoop models a developer's edit→compile→run cycle against a
// core.Store: the store's hashing, diffing, transfer and optimizer
// replay, plus the full frontend, run on every op.
type editLoop struct {
	cfg    core.Config
	store  *core.Store
	states [][]core.File
	ops    []editOp
}

type editOp struct {
	out    outcome
	incr   core.IncrStats
	instrs int
	timing core.Timings
	traced bool
}

func setupEditLoop(seed int64) (state, error) {
	p := splitProject(progen.Generate(projectParams))
	body, typeEdit, err := editScript(p, seed)
	if err != nil {
		return nil, err
	}
	s := &editLoop{
		cfg:    core.Config{Monomorphize: true, Normalize: true, Optimize: true},
		store:  core.NewStore(1),
		states: cycleStates(p, body, typeEdit),
	}
	comp, _, err := core.CompileFilesIncremental(context.Background(), s.states[cycleLen-1], s.cfg, s.store)
	if err != nil {
		return nil, fmt.Errorf("cold compile: %w", err)
	}
	if o := runOutcome(comp); o.kind != "ok" {
		return nil, fmt.Errorf("set-up run: %+v", o)
	}
	return s, nil
}

// op applies edit i of the script: one incremental compile, then a run.
func (s *editLoop) op(i int, tr *tracer) (editOp, error) {
	ctx := context.Background()
	files := s.states[i%cycleLen]
	var r editOp
	root := tr.begin(i, -1, "op")
	id := tr.begin(i, root, "incr")
	comp, st, err := core.CompileFilesIncremental(ctx, files, s.cfg, s.store)
	tr.end(id)
	if err != nil {
		tr.end(root)
		return r, err
	}
	if tr != nil {
		// Translate explicitly so the run span holds execution alone.
		id = tr.begin(i, root, "translate")
		_, err = comp.Engine(io.Discard)
		tr.end(id)
		if err != nil {
			tr.end(root)
			return r, err
		}
	}
	var b strings.Builder
	id = tr.begin(i, root, "run")
	_, err = comp.RunWith(ctx, &b, core.RunOpts{})
	tr.end(id)
	tr.end(root)
	r.out = outcome{kind: runKind(err), output: b.String()}
	r.incr = *st
	r.instrs = comp.Module.NumInstrs()
	r.timing = comp.Timings
	r.traced = tr != nil
	return r, nil
}

func (s *editLoop) measure(deadline time.Time, tr *tracer) (*window, error) {
	w := closedLoop(deadline, tr, func(i int, t *tracer, w *window) float64 {
		t0 := time.Now()
		r, err := s.op(i, t)
		lat := ms(time.Since(t0))
		if err != nil {
			w.fail("edit %d: %v", i, err)
		}
		s.ops = append(s.ops, r)
		return lat
	})
	if len(s.ops) < 2*cycleLen {
		return nil, fmt.Errorf("window held %d ops; the exact-repeat check needs two %d-op cycles", len(s.ops), cycleLen)
	}
	for _, r := range s.ops[:cycleLen] {
		w.codeSize += r.instrs
	}
	return w, nil
}

// verify compares every op's run with the reference run of its source
// state, and checks that every cycle repeats the first cycle's store
// decisions and module sizes exactly.
func (s *editLoop) verify(w *window) error {
	refs := make([]outcome, cycleLen)
	for t, files := range s.states {
		refs[t] = referenceOutcome(files, 0, 0)
	}
	for i, r := range s.ops {
		t := i % cycleLen
		if r.out != refs[t] {
			w.fail("edit %d: run %+v, reference %+v", i, r.out, refs[t])
		}
		if f := s.ops[t]; i >= cycleLen && (r.incr != f.incr || r.instrs != f.instrs) {
			w.fail("edit %d: store stats %+v (%d instrs) did not repeat %+v (%d instrs)", i, r.incr, r.instrs, f.incr, f.instrs)
		}
	}
	return nil
}

func (s *editLoop) layers(w *window, tr *tracer, m metrics) {
	var n, reused, recompiled, fallbacks int
	var parse, check, lower time.Duration
	for _, r := range s.ops {
		if !r.traced {
			continue
		}
		n++
		reused += r.incr.FuncsReused
		recompiled += r.incr.FuncsRecompiled
		if r.incr.Mode == core.ModeFallback {
			fallbacks++
		}
		parse += r.timing.Parse
		check += r.timing.Check
		lower += r.timing.Lower
	}
	if n == 0 {
		return
	}
	times := layerTimes(tr.spans)
	m.set("core.incr_ms_per_op", msPer(times, "incr", n), "ms")
	if reused+recompiled > 0 {
		m.set("core.incr_reuse_pct", 100*float64(reused)/float64(reused+recompiled), "%")
	}
	m.set("core.incr_recompiled_per_op", float64(recompiled)/float64(n), "count")
	m.set("core.incr_fallback_pct", 100*float64(fallbacks)/float64(n), "%")
	// The frontend stages run inside CompileFilesIncremental; their
	// times come from the compiler's own core.Timings.
	m.set("parser.ms_per_op", ms(parse)/float64(n), "ms")
	m.set("typecheck.ms_per_op", ms(check)/float64(n), "ms")
	m.set("lower.ms_per_op", ms(lower)/float64(n), "ms")
	m.set("engine.translate_ms", msPer(times, "translate", n), "ms")
	m.set("engine.run_ms_per_op", msPer(times, "run", n), "ms")
	m.set("trace.coverage_pct", coverage(tr.spans, "op"), "%")
}

func (s *editLoop) close() {}
