package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/src"
	"repro/internal/types"
)

// Incremental compilation over a content-addressed artifact store.
//
// The store keeps, per config fingerprint, the most recent successful
// compilation together with everything needed to reuse its artifacts
// piecemeal: per-function content hashes of the lowered (post-check)
// IR, an environment hash over the type-level world, the optimizer's
// per-round replay recording, and name-keyed tables of the final
// functions, globals, and nominal type defs.
//
// A request compiles in one of three ways:
//
//   - whole-module hit: the source set hashes equal to the base's. The
//     base Compilation is returned, cloned under the request's runtime
//     config. Valid for every config the fingerprint covers, including
//     analysis and PGO builds.
//
//   - function-granular incremental: parse/check/lower run fresh (the
//     checker is whole-program), then the per-function hashes are
//     diffed against the base. Functions whose own hash and whose
//     transitive callees' hashes are unchanged — and whose type-level
//     environment is unchanged — skip body specialization,
//     normalization, and optimization entirely: their compiled bodies
//     are reused by reference from the base module. Only the dirty
//     remainder recompiles, with the optimizer replaying the base
//     recording so the result is byte-identical to a from-scratch
//     compile (enforced by the edit-script differential suite and the
//     VIRGIL_INCR_VERIFY double-compile mode).
//
//   - from-scratch fallback: anything the incremental path cannot
//     prove safe (environment changed, vtable layouts moved, transfer
//     met an unknown def, duplicate names, ineligible config) falls
//     back to a full compile, which then becomes the new base. The
//     fallback reason is reported in IncrStats, never an error.
//
// The incremental path is restricted to full pipelines without
// whole-program optimization passes (Monomorphize && Normalize &&
// Optimize && !Analyze && PGO == nil): analysis- and profile-driven
// passes read cross-function state that per-function replay cannot
// reproduce. Other configs still get whole-module hits.

// Compile modes reported in IncrStats.Mode.
const (
	// ModeCold: no store, or no base for this config fingerprint.
	ModeCold = "cold"
	// ModeModuleHit: source set unchanged; base compilation returned.
	ModeModuleHit = "module-hit"
	// ModeIncremental: only dirty functions recompiled.
	ModeIncremental = "incremental"
	// ModeFallback: base existed but couldn't be reused; full compile.
	ModeFallback = "fallback"
	// ModeDegraded: the store was poisoned (fault injection point
	// "artifact-store"); compiled from scratch, bypassing the store.
	ModeDegraded = "degraded"
)

// IncrStats describes how one CompileFilesIncremental call used the
// artifact store.
type IncrStats struct {
	Mode string
	// Reason explains a fallback or degraded compile.
	Reason string
	// FuncsReused counts compiled function bodies taken from the base
	// (for module hits, the whole module's functions).
	FuncsReused int
	// FuncsRecompiled counts functions recompiled this call.
	FuncsRecompiled int
}

// incrBase is one store entry: a finished compilation plus the tables
// that make its artifacts reusable. All fields are immutable after
// insertion; reused functions are shared by reference across the
// compilations assembled from them.
type incrBase struct {
	comp    *Compilation
	srcHash [32]byte
	// envHash and selfHash are nil/zero for entries that only support
	// whole-module hits (ineligible configs, or defs too ambiguous to
	// table).
	envHash   [32]byte
	selfHash  map[string][32]byte // lowered func name → content hash
	vtables   map[string][]string // class name → vtable entry func names
	funcs   map[string]*ir.Func // final (post-opt) funcs by name
	globals map[string]*ir.Global
	rec     *opt.Recording
	module  *ir.Module
	// xferDefs carries the nominal def tables for type transfer.
	xferDefs xferDefs
	// astc is the parse cache shared (by pointer, with its mutex)
	// across every generation of base for this fingerprint.
	astc *astCache
}

type xferDefs struct {
	classDefs map[string]*types.ClassDef
	enumDefs  map[string]*types.EnumDef
}

// astCache carries parsed files across the compiles of one store
// fingerprint: a file whose content hash is unchanged skips parsing
// and hands its previous AST to the checker again. The checker
// annotates AST nodes in place, so reuse must be serialized — mu is
// held from parse through lower, and the cache object (with its
// mutex) is inherited by every later base of the same fingerprint,
// keeping exactly one lock per set of compiles that can share nodes.
// Distinct fingerprints never share ASTs.
type astCache struct {
	mu sync.Mutex
	m  map[string]astEntry // file name → last successful parse
}

// astEntry pins a cached AST to the exact source bytes it parsed from.
type astEntry struct {
	hash [32]byte
	file *ast.File
}

func newASTCache() *astCache { return &astCache{m: map[string]astEntry{}} }

// match returns the cached ASTs valid for files, keyed by name. Caller
// holds mu. Duplicate file names make name-keyed reuse ambiguous:
// match returns nil and update refuses to cache them.
func (c *astCache) match(files []File, hashes [][32]byte) map[string]*ast.File {
	if len(c.m) == 0 || dupNames(files) {
		return nil
	}
	out := make(map[string]*ast.File, len(files))
	for i, f := range files {
		if e, ok := c.m[f.Name]; ok && e.hash == hashes[i] {
			out[f.Name] = e.file
		}
	}
	return out
}

// update absorbs a successful frontend's ASTs. Caller holds mu.
func (c *astCache) update(files []File, hashes [][32]byte, parsed []*ast.File) {
	if dupNames(files) {
		return
	}
	for i, f := range files {
		if i < len(parsed) && parsed[i] != nil {
			c.m[f.Name] = astEntry{hash: hashes[i], file: parsed[i]}
		}
	}
}

func dupNames(files []File) bool {
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		if seen[f.Name] {
			return true
		}
		seen[f.Name] = true
	}
	return false
}

func fileHashes(files []File) [][32]byte {
	hs := make([][32]byte, len(files))
	for i, f := range files {
		hs[i] = sha256.Sum256([]byte(f.Source))
	}
	return hs
}

// Store is a bounded LRU of incremental bases, one per config
// fingerprint. Safe for concurrent use; typical owners are one Store
// per serve process shared across requests, or one per test.
type Store struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	m   map[[32]byte]*list.Element
}

type storeSlot struct {
	fp   [32]byte
	base *incrBase
}

// NewStore returns a store holding at most capacity fingerprints
// (minimum 1).
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{cap: capacity, ll: list.New(), m: map[[32]byte]*list.Element{}}
}

// Len reports the number of cached fingerprints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

func (s *Store) lookup(fp [32]byte) *incrBase {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.m[fp]
	if el == nil {
		return nil
	}
	s.ll.MoveToFront(el)
	return el.Value.(*storeSlot).base
}

func (s *Store) insert(fp [32]byte, base *incrBase) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el := s.m[fp]; el != nil {
		el.Value.(*storeSlot).base = base
		s.ll.MoveToFront(el)
		return
	}
	s.m[fp] = s.ll.PushFront(&storeSlot{fp: fp, base: base})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*storeSlot).fp)
	}
}

// cloneFor returns a Compilation sharing this one's immutable compile
// artifacts under a different runtime configuration. The engine-program
// once-cell is fresh: engine choice and runtime knobs live in the
// config, so a clone translates on first use under its own settings.
func (c *Compilation) cloneFor(cfg Config) *Compilation {
	return &Compilation{
		Config:    cfg,
		Program:   c.Program,
		Module:    c.Module,
		MonoStats: c.MonoStats,
		NormStats: c.NormStats,
		OptStats:  c.OptStats,
		Analysis:  c.Analysis,
		Timings:   c.Timings,
	}
}

// incrEligible reports whether cfg can take the function-granular
// path. Analysis- and profile-driven optimizer passes read
// whole-program state that per-function replay cannot reproduce, so
// those configs only get whole-module hits.
func incrEligible(cfg Config) bool {
	return cfg.Monomorphize && cfg.Normalize && cfg.Optimize && !cfg.Analyze && cfg.PGO == nil
}

// CompileFilesIncremental compiles files like CompileFilesContext but
// consults (and refreshes) the artifact store. A nil store degrades to
// a plain compile. The returned IncrStats is never nil and reports
// which reuse path ran; compile errors are exactly those a plain
// compile would return.
func CompileFilesIncremental(ctx context.Context, files []File, cfg Config, store *Store) (*Compilation, *IncrStats, error) {
	st := &IncrStats{Mode: ModeCold}
	if store == nil {
		comp, err := CompileFilesContext(ctx, files, cfg)
		if comp != nil {
			st.FuncsRecompiled = len(comp.Module.Funcs)
		}
		return comp, st, err
	}
	if err := faultinject.Point(ctx, "artifact-store"); err != nil {
		// Poisoned store: record a structured reason and compile from
		// scratch without reading or writing the store. Degraded output
		// is always correct output.
		st.Mode = ModeDegraded
		st.Reason = err.Error()
		comp, cerr := CompileFilesContext(ctx, files, cfg)
		if comp != nil {
			st.FuncsRecompiled = len(comp.Module.Funcs)
		}
		return comp, st, cerr
	}

	fp := cfg.storeFingerprint()
	srcH := hashFiles(files)
	base := store.lookup(fp)
	if base != nil && base.srcHash == srcH {
		st.Mode = ModeModuleHit
		st.FuncsReused = len(base.comp.Module.Funcs)
		return base.comp.cloneFor(cfg), st, nil
	}

	p, err := newPipeline(ctx, files, cfg)
	if err != nil {
		return nil, st, err
	}
	// Reuse unchanged files' ASTs from the base's parse cache. The
	// checker re-annotates nodes in place, so the cache mutex is held
	// across the whole frontend (parse→check→lower); after lowering,
	// nothing downstream reads the AST. The cache survives frontend
	// failure untouched — entries are only added on success, and a
	// failed re-check simply re-annotates on the next use.
	astc := newASTCache()
	if base != nil && base.astc != nil {
		astc = base.astc
	}
	fileH := fileHashes(files)
	astc.mu.Lock()
	p.preParsed = astc.match(files, fileH)
	lowered, err := p.frontend()
	if err == nil {
		astc.update(files, fileH, p.parsed)
	}
	astc.mu.Unlock()
	if err != nil {
		return nil, st, err
	}

	eligible := incrEligible(cfg)
	var selfNew map[string][32]byte
	var envH [32]byte
	if eligible {
		var uniq bool
		selfNew, uniq = hashLoweredFuncs(lowered)
		if !uniq {
			eligible = false
			st.Reason = "duplicate lowered function names"
		} else {
			envH = hashEnv(lowered, p.comp.Program)
		}
	}

	if eligible && base != nil && base.selfHash != nil {
		comp, ok, ierr := incrTry(p, lowered, base, selfNew, envH, st)
		if ierr != nil {
			return nil, st, ierr
		}
		if ok {
			newBase := baseFromIncremental(comp, srcH, envH, selfNew, base)
			newBase.astc = astc
			store.insert(fp, newBase)
			if verr := incrVerify(ctx, files, cfg, comp); verr != nil {
				return nil, st, verr
			}
			return comp, st, nil
		}
		st.Mode = ModeFallback
	} else if base != nil {
		st.Mode = ModeFallback
		if st.Reason == "" {
			st.Reason = "config not eligible for function-granular reuse"
		}
	}

	var rec *opt.Recording
	if eligible {
		rec = &opt.Recording{}
	}
	comp, err := p.backend(lowered, backendOpts{record: rec})
	if err != nil {
		return nil, st, err
	}
	st.FuncsRecompiled = len(comp.Module.Funcs)
	newBase := baseFromScratch(comp, srcH, envH, selfNew, rec, eligible)
	newBase.astc = astc
	store.insert(fp, newBase)
	return comp, st, nil
}

// pruneForStore shallow-copies a compilation for store retention,
// dropping the checked AST: no consumer reads it off a module hit, and
// store entries outlive their compile by the life of the process, so
// retaining the largest pointer-rich structure of the frontend would
// tax every GC cycle of every later compile against this store.
func pruneForStore(comp *Compilation) *Compilation {
	c := comp.cloneFor(comp.Config)
	c.Program = nil
	return c
}

// baseFromScratch builds a store entry from a full compile. When the
// def tables can't be built unambiguously the entry still serves
// whole-module hits (selfHash nil disables the function-granular path).
func baseFromScratch(comp *Compilation, srcH, envH [32]byte, selfH map[string][32]byte, rec *opt.Recording, eligible bool) *incrBase {
	b := &incrBase{comp: pruneForStore(comp), srcHash: srcH, module: comp.Module}
	if !eligible || selfH == nil {
		return b
	}
	classDefs, enumDefs, ok := collectDefs(comp.Module)
	if !ok {
		return b
	}
	b.envHash = envH
	b.selfHash = selfH
	b.rec = rec
	b.xferDefs = xferDefs{classDefs: classDefs, enumDefs: enumDefs}
	b.fillTables()
	return b
}

// baseFromIncremental builds the next store entry from an
// incrementally assembled compilation, inheriting the previous base's
// def tables (the environment hash matched, so the def world is the
// same).
func baseFromIncremental(comp *Compilation, srcH, envH [32]byte, selfH map[string][32]byte, prev *incrBase) *incrBase {
	b := &incrBase{
		comp:     pruneForStore(comp),
		srcHash:  srcH,
		envHash:  envH,
		selfHash: selfH,
		rec:      comp.incrRec,
		module:   comp.Module,
		xferDefs: prev.xferDefs,
	}
	b.fillTables()
	return b
}

// fillTables derives the name-keyed reuse tables from the final module.
func (b *incrBase) fillTables() {
	b.funcs = make(map[string]*ir.Func, len(b.module.Funcs))
	for _, f := range b.module.Funcs {
		if _, dup := b.funcs[f.Name]; dup {
			// Ambiguous names: disable function-granular reuse.
			b.selfHash = nil
			return
		}
		b.funcs[f.Name] = f
	}
	b.globals = make(map[string]*ir.Global, len(b.module.Globals))
	for _, g := range b.module.Globals {
		b.globals[g.Name] = g
	}
	b.vtables = make(map[string][]string, len(b.module.Classes))
	for _, c := range b.module.Classes {
		b.vtables[c.Name] = vtableLayout(c)
	}
	if b.rec != nil {
		b.rec.Filter(func(name string) bool { _, ok := b.funcs[name]; return ok })
	}
}

func vtableLayout(c *ir.Class) []string {
	names := make([]string, len(c.Vtable))
	for i, f := range c.Vtable {
		if f != nil {
			names[i] = f.Name
		} else {
			names[i] = "∅"
		}
	}
	return names
}

// incrVerify, under VIRGIL_INCR_VERIFY, recompiles from scratch and
// diffs module dumps against the incremental result. A mismatch is an
// ICE: the incremental path produced output a cold compile would not.
func incrVerify(ctx context.Context, files []File, cfg Config, comp *Compilation) error {
	if os.Getenv("VIRGIL_INCR_VERIFY") == "" {
		return nil
	}
	scratch, err := CompileFilesContext(ctx, files, cfg)
	if err != nil {
		return &src.ICE{Stage: "incremental", Msg: fmt.Sprintf("double-compile failed: %v", err)}
	}
	if scratch.Module.String() != comp.Module.String() {
		return &src.ICE{Stage: "incremental", Msg: "incremental module differs from from-scratch compile"}
	}
	return nil
}

// dirtyClosure computes the set of lowered functions that must
// recompile: those whose content hash changed (or are new), plus
// everything that transitively references them. Clean functions by
// construction reference no dirty function, which is what makes their
// recorded optimizer trajectories replayable.
func dirtyClosure(lowered *ir.Module, selfNew map[string][32]byte, base map[string][32]byte) map[string]bool {
	dirty := map[string]bool{}
	var queue []string
	for name, h := range selfNew {
		if bh, ok := base[name]; !ok || bh != h {
			dirty[name] = true
			queue = append(queue, name)
		}
	}
	callers := map[string][]string{}
	for _, f := range lowered.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Fn != nil && in.Fn.Name != f.Name {
					callers[in.Fn.Name] = append(callers[in.Fn.Name], f.Name)
				}
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range callers[n] {
			if !dirty[c] {
				dirty[c] = true
				queue = append(queue, c)
			}
		}
	}
	return dirty
}

// incrTry attempts the function-granular path. ok=false means "fall
// back to a full compile" with the reason in st; a non-nil error is a
// real compile error (cancellation, ICE) that must propagate.
func incrTry(p *pipeline, lowered *ir.Module, base *incrBase, selfNew map[string][32]byte, envH [32]byte, st *IncrStats) (*Compilation, bool, error) {
	if envH != base.envHash {
		st.Reason = "type environment changed"
		return nil, false, nil
	}
	dirty := dirtyClosure(lowered, selfNew, base.selfHash)
	if len(dirty) >= len(lowered.Funcs) {
		st.Reason = "all functions dirty"
		return nil, false, nil
	}

	// decided records, per monomorphized instance name, whether the
	// base's compiled body stands in. The decision is made in the mono
	// body-copy phase — which alone knows the instance→source mapping
	// (instance names are not mechanically parseable; source names may
	// contain '<') — and read back by normalization and assembly.
	decided := map[string]bool{}
	monoSkip := func(dstName, srcName string) bool {
		d := base.funcs[dstName] != nil && !dirty[srcName]
		if d {
			if _, known := selfNew[srcName]; !known {
				d = false
			}
		}
		decided[dstName] = d
		return d
	}
	reuse := func(name string) bool { return decided[name] }

	// Specialize and normalize, copying bodies only for non-reused
	// instances. The monomorphization plan itself always runs in full —
	// it is the source of instance discovery and vtable layout, which
	// the checks below compare against the base.
	partial, err := p.backend(lowered, backendOpts{monoSkip: monoSkip, normSkip: reuse, stopAfterNorm: true})
	if err != nil {
		return nil, false, err
	}
	normMod := partial.Module

	// Vtable layouts must match for every class both worlds share: a
	// moved slot would invalidate dispatch offsets baked into reused
	// bodies. Classes only the new world has are referenced only by
	// dirty functions (a clean function's instance plan is identical to
	// the base's) and carry no constraint.
	for _, c := range normMod.Classes {
		if bl, ok := base.vtables[c.Name]; ok && !equalStrings(vtableLayout(c), bl) {
			st.Reason = "vtable layout changed: " + c.Name
			return nil, false, nil
		}
	}
	// Split-global layout must match: reused bodies point at the base's
	// global objects by identity.
	if !globalsMatch(normMod, base) {
		st.Reason = "global layout changed"
		return nil, false, nil
	}

	comp, ok, reason, err := assemble(p, normMod, base, reuse, st)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		st.Reason = reason
		return nil, false, nil
	}
	st.Mode = ModeIncremental
	return comp, true, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func globalsMatch(normMod *ir.Module, base *incrBase) bool {
	if len(normMod.Globals) != len(base.module.Globals) {
		return false
	}
	for i, g := range normMod.Globals {
		bg := base.module.Globals[i]
		if g.Name != bg.Name || g.Index != bg.Index || typeStr(g.Type) != typeStr(bg.Type) {
			return false
		}
	}
	return true
}

// assemble merges the partially compiled new world into the base's
// type world: reused functions come over by reference, dirty functions
// are relinked (types re-interned, call and global references re-bound
// by name, register IDs preserved), the class forest is rebuilt fresh,
// and the optimizer replays the base recording over the dirty subset.
// Returns ok=false with a reason for any structural surprise.
func assemble(p *pipeline, normMod *ir.Module, base *incrBase, reuse func(string) bool, st *IncrStats) (*Compilation, bool, string, error) {
	x := newTypeXfer(base.module.Types, base.xferDefs.classDefs, base.xferDefs.enumDefs)
	r := &relinker{x: x, funcs: map[string]*ir.Func{}, classes: map[string]*ir.Class{}, globals: base.globals}

	// Pass 1: function shells. Reused functions resolve to the base's
	// objects; dirty ones get fresh shells with registers transferred
	// ID-for-ID.
	finalFuncs := make([]*ir.Func, 0, len(normMod.Funcs))
	type dirtyFunc struct {
		nf *ir.Func
		rf *ir.Func
	}
	var dirtyFuncs []dirtyFunc
	for _, nf := range normMod.Funcs {
		if reuse(nf.Name) {
			bf := base.funcs[nf.Name]
			finalFuncs = append(finalFuncs, bf)
			r.funcs[nf.Name] = bf
			continue
		}
		rf, err := r.shell(nf)
		if err != nil {
			return nil, false, "relink: " + err.Error(), nil
		}
		finalFuncs = append(finalFuncs, rf)
		r.funcs[nf.Name] = rf
		dirtyFuncs = append(dirtyFuncs, dirtyFunc{nf: nf, rf: rf})
	}

	// Pass 2: class forest, rebuilt fresh in the base type world.
	// Partial reuse of class metadata would leave sibling Parent
	// pointers crossing worlds; a full rebuild is uniform. Shells
	// first (parents may appear after children in module order), then
	// links.
	finalClasses := make([]*ir.Class, len(normMod.Classes))
	for i, nc := range normMod.Classes {
		t, err := x.xfer(nc.Type)
		if err != nil {
			return nil, false, "relink class: " + err.Error(), nil
		}
		ct, _ := t.(*types.Class)
		args, err := x.xferAll(nc.Args)
		if err != nil {
			return nil, false, "relink class: " + err.Error(), nil
		}
		def := base.xferDefs.classDefs[nc.Def.Name]
		if nc.Def != nil && def == nil {
			return nil, false, "relink class: unknown def " + nc.Def.Name, nil
		}
		fc := &ir.Class{Name: nc.Name, Def: def, Args: args, TypeParams: nc.TypeParams, Depth: nc.Depth, Type: ct}
		finalClasses[i] = fc
		if _, dup := r.classes[nc.Name]; dup {
			return nil, false, "relink class: duplicate " + nc.Name, nil
		}
		r.classes[nc.Name] = fc
	}
	for i, nc := range normMod.Classes {
		fc := finalClasses[i]
		if nc.Parent != nil {
			fc.Parent = r.classes[nc.Parent.Name]
			if fc.Parent == nil {
				return nil, false, "relink class: missing parent " + nc.Parent.Name, nil
			}
		}
		fc.Fields = make([]ir.Field, len(nc.Fields))
		for j, fld := range nc.Fields {
			ft, err := x.xfer(fld.Type)
			if err != nil {
				return nil, false, "relink field: " + err.Error(), nil
			}
			fc.Fields[j] = ir.Field{Name: fld.Name, Type: ft}
		}
		fc.Vtable = make([]*ir.Func, len(nc.Vtable))
		for j, m := range nc.Vtable {
			if m == nil {
				continue
			}
			fm := r.funcs[m.Name]
			if fm == nil {
				return nil, false, "relink vtable: missing " + m.Name, nil
			}
			fc.Vtable[j] = fm
		}
	}

	// Pass 3: dirty function bodies.
	for _, d := range dirtyFuncs {
		if err := r.fill(d.nf, d.rf); err != nil {
			return nil, false, "relink body: " + err.Error(), nil
		}
	}

	finalMod := &ir.Module{
		Types:       base.module.Types,
		Funcs:       finalFuncs,
		Classes:     finalClasses,
		Globals:     base.module.Globals,
		Monomorphic: true,
		Normalized:  true,
	}
	if normMod.Main != nil {
		finalMod.Main = r.funcs[normMod.Main.Name]
	}
	if normMod.Init != nil {
		finalMod.Init = r.funcs[normMod.Init.Name]
	}

	// Replay optimization over the dirty subset against the base
	// recording, recording the merged trajectory for the next base.
	rec := &opt.Recording{}
	dirtyList := make([]*ir.Func, len(dirtyFuncs))
	for i, d := range dirtyFuncs {
		dirtyList[i] = d.rf
	}
	t0 := time.Now()
	if err := guard("opt", func() error {
		if err := stageStart(p.ctx, "opt"); err != nil {
			return err
		}
		stats, err := opt.OptimizeReplay(p.ctx, dirtyList, finalMod.Types, opt.Config{Record: rec}, base.rec)
		if err != nil {
			return err
		}
		p.comp.OptStats = stats
		return nil
	}); err != nil {
		return nil, false, "", err
	}
	p.comp.Timings.Opt = time.Since(t0)
	if err := p.verify("opt", finalMod); err != nil {
		return nil, false, "", err
	}

	comp, err := p.finish(finalMod)
	if err != nil {
		return nil, false, "", err
	}
	comp.incrRec = rec
	st.FuncsReused = len(finalFuncs) - len(dirtyFuncs)
	st.FuncsRecompiled = len(dirtyFuncs)
	return comp, true, "", nil
}

// relinker rebuilds dirty functions inside the base type world.
type relinker struct {
	x       *typeXfer
	funcs   map[string]*ir.Func
	classes map[string]*ir.Class
	globals map[string]*ir.Global
	regMaps map[*ir.Func]map[*ir.Reg]*ir.Reg
}

// shell creates the function header and every register, preserving
// register IDs so dumps (and later replay-allocated IDs) match the
// from-scratch compile exactly.
func (r *relinker) shell(nf *ir.Func) (*ir.Func, error) {
	rf := &ir.Func{
		Name:           nf.Name,
		Kind:           nf.Kind,
		VtSlot:         nf.VtSlot,
		NumClassParams: nf.NumClassParams,
	}
	results, err := r.x.xferAll(nf.Results)
	if err != nil {
		return nil, err
	}
	rf.Results = results
	regMap := map[*ir.Reg]*ir.Reg{}
	maxID := -1
	mk := func(or *ir.Reg) error {
		if or == nil || regMap[or] != nil {
			return nil
		}
		t, err := r.x.xfer(or.Type)
		if err != nil {
			return err
		}
		regMap[or] = &ir.Reg{ID: or.ID, Type: t, Name: or.Name}
		if or.ID > maxID {
			maxID = or.ID
		}
		return nil
	}
	for _, pr := range nf.Params {
		if err := mk(pr); err != nil {
			return nil, err
		}
		rf.Params = append(rf.Params, regMap[pr])
	}
	for bi, b := range nf.Blocks {
		if b.ID != bi {
			return nil, fmt.Errorf("non-sequential block ids in %s", nf.Name)
		}
		rf.NewBlock()
		for _, in := range b.Instrs {
			for _, d := range in.Dst {
				if err := mk(d); err != nil {
					return nil, err
				}
			}
			for _, a := range in.Args {
				if err := mk(a); err != nil {
					return nil, err
				}
			}
		}
	}
	rf.SetRegCount(maxID + 1)
	if r.regMaps == nil {
		r.regMaps = map[*ir.Func]map[*ir.Reg]*ir.Reg{}
	}
	r.regMaps[nf] = regMap
	return rf, nil
}

// fill copies the body, re-binding every reference into the final
// world: registers via the shell's map, call targets and globals by
// name, types through transfer, branch targets by block index.
func (r *relinker) fill(nf, rf *ir.Func) error {
	regMap := r.regMaps[nf]
	regs := func(in []*ir.Reg) []*ir.Reg {
		if in == nil {
			return nil
		}
		out := make([]*ir.Reg, len(in))
		for i, or := range in {
			out[i] = regMap[or]
		}
		return out
	}
	if nf.Class != nil {
		rf.Class = r.classes[nf.Class.Name]
		if rf.Class == nil {
			return fmt.Errorf("missing class %s", nf.Class.Name)
		}
	}
	for bi, b := range nf.Blocks {
		nb := rf.Blocks[bi]
		nb.Instrs = make([]*ir.Instr, len(b.Instrs))
		for ii, in := range b.Instrs {
			t, err := r.x.xfer(in.Type)
			if err != nil {
				return err
			}
			t2, err := r.x.xfer(in.Type2)
			if err != nil {
				return err
			}
			targs, err := r.x.xferAll(in.TypeArgs)
			if err != nil {
				return err
			}
			ni := &ir.Instr{
				Op:         in.Op,
				Dst:        regs(in.Dst),
				Args:       regs(in.Args),
				Type:       t,
				Type2:      t2,
				FieldSlot:  in.FieldSlot,
				IVal:       in.IVal,
				SVal:       in.SVal,
				TypeArgs:   targs,
				Pos:        in.Pos,
				StackAlloc: in.StackAlloc,
			}
			if in.Fn != nil {
				ni.Fn = r.funcs[in.Fn.Name]
				if ni.Fn == nil {
					return fmt.Errorf("missing func %s", in.Fn.Name)
				}
			}
			if in.Global != nil {
				ni.Global = r.globals[in.Global.Name]
				if ni.Global == nil {
					return fmt.Errorf("missing global %s", in.Global.Name)
				}
			}
			if len(in.Blocks) > 0 {
				ni.Blocks = make([]*ir.Block, len(in.Blocks))
				for j, tb := range in.Blocks {
					if tb.ID < 0 || tb.ID >= len(rf.Blocks) {
						return fmt.Errorf("branch target out of range in %s", nf.Name)
					}
					ni.Blocks[j] = rf.Blocks[tb.ID]
				}
			}
			nb.Instrs[ii] = ni
		}
	}
	return nil
}

func typeStr(t interface{ String() string }) string {
	if t == nil {
		return "∅"
	}
	return t.String()
}
