package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/testprogs"
)

// optConfig is the function-granular-eligible config: the full
// pipeline without the analysis layer.
func optConfig() Config {
	return Config{Monomorphize: true, Normalize: true, Optimize: true}
}

// editProg is a program written so each scripted edit touches exactly
// one declaration, with enough cross-function and generic structure
// that stale reuse would be observable: virtual dispatch, generic
// instances shared between functions, globals, and tuples.
const editProgBase = `
class Shape {
	def area() -> int { return 0; }
	def describe() -> int { return area() + 1; }
}
class Square extends Shape {
	var s: int;
	new(s) { }
	def area() -> int { return s * s; }
}
class Circle extends Shape {
	var r: int;
	new(r) { }
	def area() -> int { return 3 * r * r; }
}
class Box<T> {
	var value: T;
	new(value) { }
	def get() -> T { return value; }
}
var counter: int = 7;
def pair(a: int, b: int) -> (int, int) { return (b, a); }
def sum(xs: Array<int>) -> int {
	var t = 0;
	for (i = 0; i < xs.length; i++) { t = t + xs[i]; }
	return t;
}
def helper(x: int) -> int {
	var local = x * 2;
	return local + counter;
}
def compute(n: int) -> int {
	var b = Box<int>.new(n);
	var q = Box<bool>.new(n > 0);
	var lh = pair(n, helper(n));
	if (q.get()) { return b.get() + lh.0 + lh.1; }
	return lh.0 - lh.1;
}
def fill() -> Array<int> {
	var xs = Array<int>.new(3);
	xs[0] = 11; xs[1] = compute(3); xs[2] = counter;
	return xs;
}
def describe(sh: Shape) -> int { return sh.describe(); }
def main() -> int {
	var t = describe(Shape.new()) + describe(Square.new(4)) + describe(Circle.new(2));
	System.puts("total "); System.puti(t + compute(5)); System.ln();
	return sum(fill());
}
`

// editScript is one scripted source edit: a textual substitution plus
// the maximum set of lowered functions allowed to recompile (the edit's
// dirty closure). Empty recompile means a type-level edit, which
// legitimately falls back to a full compile.
type editScript struct {
	name string
	old  string
	new  string
	// maxRecompiled is the ceiling on FuncsRecompiled for the
	// function-granular path; 0 means the edit must fall back
	// (FallbackReason non-empty).
	maxRecompiled int
	wantFallback  bool
}

func editScripts() []editScript {
	return []editScript{
		{
			// Renaming a local changes only that function's body; its
			// callers see the same hash... except hashFunc includes reg
			// names (dumps do too), so helper and its transitive
			// callers (compute, main, plus mono instances) recompile.
			name: "rename-local", old: "var local = x * 2;\n\treturn local + counter;",
			new: "var renamed = x * 2;\n\treturn renamed + counter;", maxRecompiled: 6,
		},
		{
			name: "change-body", old: "var t = 0;\n\tfor (i = 0; i < xs.length; i++) { t = t + xs[i]; }\n\treturn t;",
			new: "var t = 1;\n\tfor (i = 0; i < xs.length; i++) { t = t + xs[i]; }\n\treturn t - 1;", maxRecompiled: 4,
		},
		{
			name: "add-function", old: "def main() -> int {",
			new:  "def fresh(z: int) -> int { return z + 41; }\ndef main() -> int {", maxRecompiled: 3,
		},
		{
			// Deleting a function: replace helper's only use, then drop it.
			name: "delete-function", old: "def helper(x: int) -> int {\n\tvar local = x * 2;\n\treturn local + counter;\n}",
			new: "", wantFallback: false, maxRecompiled: 8,
		},
		{
			// Type-decl edit: a new field changes every layout-derived
			// artifact; the environment hash must force a full rebuild.
			name: "edit-type-decl", old: "class Square extends Shape {\n\tvar s: int;",
			new: "class Square extends Shape {\n\tvar pad: int;\n\tvar s: int;", wantFallback: true,
		},
	}
}

func applyEdit(t *testing.T, base string, e editScript) string {
	t.Helper()
	if e.name == "delete-function" {
		// Also retarget helper's callers so the program still checks.
		s := strings.Replace(base, e.old, e.new, 1)
		s = strings.Replace(s, "pair(n, helper(n))", "pair(n, n * 2 + counter)", 1)
		if s == base {
			t.Fatalf("edit %s: pattern not found", e.name)
		}
		return s
	}
	s := strings.Replace(base, e.old, e.new, 1)
	if s == base {
		t.Fatalf("edit %s: pattern not found", e.name)
	}
	return s
}

func compileIncr(t *testing.T, store *Store, source string, cfg Config) (*Compilation, *IncrStats) {
	t.Helper()
	comp, st, err := CompileFilesIncremental(context.Background(), []File{{Name: "edit.v", Source: source}}, cfg, store)
	if err != nil {
		t.Fatalf("incremental compile: %v", err)
	}
	return comp, st
}

// compileOutcome flattens everything observable about a compilation
// into comparable strings.
type compileOutcome struct {
	dump   string
	runOut string
	runErr string
}

func outcomeOf(t *testing.T, comp *Compilation) compileOutcome {
	t.Helper()
	o := compileOutcome{dump: comp.Module.String()}
	res := comp.Run()
	o.runOut = res.Output
	if res.Err != nil {
		o.runErr = res.Err.Error()
	}
	return o
}

// TestIncrementalEditScripts drives the edit-script differential: for
// every scripted edit, the incremental compile of the edited source
// must be byte-identical (IR dump and run behavior) to a from-scratch
// compile, and must recompile no more than the edit's dirty closure.
func TestIncrementalEditScripts(t *testing.T) {
	for _, e := range editScripts() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			cfg := optConfig()
			store := NewStore(4)
			baseComp, st := compileIncr(t, store, editProgBase, cfg)
			if st.Mode != ModeCold {
				t.Fatalf("first compile mode = %s, want cold", st.Mode)
			}
			if got := outcomeOf(t, baseComp); got.runErr != "" {
				t.Fatalf("base program failed: %s", got.runErr)
			}

			edited := applyEdit(t, editProgBase, e)
			incComp, st := compileIncr(t, store, edited, cfg)
			scratch, err := Compile("edit.v", edited, cfg)
			if err != nil {
				t.Fatalf("scratch compile: %v", err)
			}
			want, got := outcomeOf(t, scratch), outcomeOf(t, incComp)
			if want.dump != got.dump {
				t.Fatalf("mode %s: incremental dump differs from scratch", st.Mode)
			}
			if want.runOut != got.runOut || want.runErr != got.runErr {
				t.Fatalf("run differs: scratch (%q, %q) vs incremental (%q, %q)",
					want.runOut, want.runErr, got.runOut, got.runErr)
			}
			if e.wantFallback {
				if st.Mode != ModeFallback {
					t.Fatalf("mode = %s (reason %q), want fallback", st.Mode, st.Reason)
				}
			} else {
				if st.Mode != ModeIncremental {
					t.Fatalf("mode = %s (reason %q), want incremental", st.Mode, st.Reason)
				}
				if st.FuncsRecompiled > e.maxRecompiled {
					t.Errorf("recompiled %d funcs, want <= %d (reused %d)",
						st.FuncsRecompiled, e.maxRecompiled, st.FuncsReused)
				}
				if st.FuncsReused == 0 {
					t.Errorf("incremental compile reused nothing")
				}
			}

			// Same source again: whole-module hit off the refreshed base.
			hitComp, st := compileIncr(t, store, edited, cfg)
			if st.Mode != ModeModuleHit {
				t.Fatalf("repeat mode = %s, want module-hit", st.Mode)
			}
			if h := outcomeOf(t, hitComp); h.dump != want.dump || h.runOut != want.runOut {
				t.Fatalf("module hit differs from scratch")
			}
		})
	}
}

// TestIncrementalCorpus appends a fresh function to every successful
// corpus program and checks the incremental result is byte-identical
// to scratch. Corpus programs exercise shapes the handwritten edit
// program doesn't (closures, deep generics, enums).
func TestIncrementalCorpus(t *testing.T) {
	cfg := optConfig()
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if _, err := Compile(p.Name+".v", p.Source, cfg); err != nil {
				t.Skipf("program does not compile clean: %v", err)
			}
			store := NewStore(2)
			compileIncr(t, store, p.Source, cfg)
			edited := p.Source + "\ndef __incr_probe(q: int) -> int { return q * 3 + 1; }\n"
			incComp, st := compileIncr(t, store, edited, cfg)
			scratch, err := Compile(p.Name+".v", edited, cfg)
			if err != nil {
				t.Fatalf("scratch: %v", err)
			}
			if st.Mode != ModeIncremental && st.Mode != ModeFallback {
				t.Fatalf("mode = %s", st.Mode)
			}
			want, got := outcomeOf(t, scratch), outcomeOf(t, incComp)
			if want.dump != got.dump {
				t.Fatalf("mode %s (reason %q): dump differs from scratch", st.Mode, st.Reason)
			}
			if want.runOut != got.runOut || want.runErr != got.runErr {
				t.Fatalf("run differs")
			}
		})
	}
}

// TestIncrementalConfigIsolation: artifacts never cross config
// fingerprints — an analyze compile after a plain compile of the same
// source must not see the plain module.
func TestIncrementalConfigIsolation(t *testing.T) {
	store := NewStore(4)
	plain := optConfig()
	full := Compiled()
	cPlain, st := compileIncr(t, store, editProgBase, plain)
	if st.Mode != ModeCold {
		t.Fatalf("plain mode = %s", st.Mode)
	}
	cFull, st := compileIncr(t, store, editProgBase, full)
	if st.Mode != ModeCold {
		t.Fatalf("full compile mode = %s, want cold (separate fingerprint)", st.Mode)
	}
	if cFull.Analysis == nil {
		t.Fatalf("analyze compile lost its analysis")
	}
	// And each config gets its own module hit afterwards.
	c2, st := compileIncr(t, store, editProgBase, plain)
	if st.Mode != ModeModuleHit || c2.Module != cPlain.Module {
		t.Fatalf("plain rehit mode=%s", st.Mode)
	}
	c3, st := compileIncr(t, store, editProgBase, full)
	if st.Mode != ModeModuleHit || c3.Module != cFull.Module {
		t.Fatalf("full rehit mode=%s", st.Mode)
	}
	if c3.Analysis == nil {
		t.Fatalf("module-hit clone dropped analysis")
	}
}

// TestIncrementalCompileErrors: diagnostics pass through unchanged and
// never poison the store.
func TestIncrementalCompileErrors(t *testing.T) {
	store := NewStore(2)
	cfg := optConfig()
	compileIncr(t, store, editProgBase, cfg)
	broken := strings.Replace(editProgBase, "return local + counter;", "return local + nosuch;", 1)
	_, _, err := CompileFilesIncremental(context.Background(), []File{{Name: "edit.v", Source: broken}}, cfg, store)
	if err == nil {
		t.Fatalf("broken program compiled")
	}
	scratchErr := func() string {
		_, serr := Compile("edit.v", broken, cfg)
		if serr == nil {
			t.Fatalf("broken program compiled from scratch")
		}
		return serr.Error()
	}()
	if err.Error() != scratchErr {
		t.Fatalf("diagnostics differ:\nincr: %s\nscratch: %s", err, scratchErr)
	}
	// Store still answers for the good source.
	_, st := compileIncr(t, store, editProgBase, cfg)
	if st.Mode != ModeModuleHit {
		t.Fatalf("store poisoned by failed compile: mode=%s", st.Mode)
	}
}

// TestIncrementalStoreFault proves the artifact-store fault point
// degrades to a correct from-scratch compile with a structured reason.
func TestIncrementalStoreFault(t *testing.T) {
	store := NewStore(2)
	cfg := optConfig()
	compileIncr(t, store, editProgBase, cfg)

	reg, err := faultinject.Parse("artifact-store:err:0+")
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Set(reg)
	defer restore()
	comp, st, err := CompileFilesIncremental(context.Background(), []File{{Name: "edit.v", Source: editProgBase}}, cfg, store)
	restore()
	if err != nil {
		t.Fatalf("degraded compile errored: %v", err)
	}
	if st.Mode != ModeDegraded || st.Reason == "" {
		t.Fatalf("mode=%s reason=%q, want degraded with reason", st.Mode, st.Reason)
	}
	scratch, err := Compile("edit.v", editProgBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Module.String() != comp.Module.String() {
		t.Fatalf("degraded output differs from scratch")
	}
	// Un-armed again: the store still has the original base.
	_, st2 := compileIncr(t, store, editProgBase, cfg)
	if st2.Mode != ModeModuleHit {
		t.Fatalf("store lost its base across degrade: mode=%s", st2.Mode)
	}
}

// TestIncrementalMultiFileASTReuse drives edits through a two-file
// program so the unchanged file's AST comes from the base's parse
// cache (the single-file tests always invalidate their one file and
// never hit it). The checker re-annotates cached nodes in place on
// every compile, so the test loops several edits — each check over the
// reused AST must stay byte-identical to a from-scratch compile — and
// injects a failing edit in the middle, since a failed check leaves
// cached nodes partially re-annotated and the next compile must not
// care.
func TestIncrementalMultiFileASTReuse(t *testing.T) {
	cfg := optConfig()
	store := NewStore(2)
	probe := func(i int) string {
		return fmt.Sprintf("def probe(q: int) -> int { return q * 3 + %d; }\n", i)
	}
	files := func(p string) []File {
		return []File{{Name: "lib.v", Source: editProgBase}, {Name: "probe.v", Source: p}}
	}
	compile := func(p string) (*Compilation, *IncrStats, error) {
		return CompileFilesIncremental(context.Background(), files(p), cfg, store)
	}

	if _, st, err := compile(probe(0)); err != nil || st.Mode != ModeCold {
		t.Fatalf("first compile: mode=%v err=%v", st, err)
	}
	for i := 1; i <= 3; i++ {
		incComp, st, err := compile(probe(i))
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if st.Mode != ModeIncremental {
			t.Fatalf("edit %d: mode=%s (reason %q), want incremental", i, st.Mode, st.Reason)
		}
		scratch, err := CompileFilesContext(context.Background(), files(probe(i)), cfg)
		if err != nil {
			t.Fatalf("edit %d scratch: %v", i, err)
		}
		want, got := outcomeOf(t, scratch), outcomeOf(t, incComp)
		if want.dump != got.dump {
			t.Fatalf("edit %d: incremental dump differs from scratch", i)
		}
		if want.runOut != got.runOut || want.runErr != got.runErr {
			t.Fatalf("edit %d: run differs", i)
		}
		if i == 2 {
			if _, _, err := compile("def probe(q: int) -> int { return nosuch; }\n"); err == nil {
				t.Fatalf("broken probe compiled")
			}
		}
	}
	// Edit the big file instead: its cache entry invalidates, the
	// probe's stays valid, and the result must still match scratch.
	libEdit := strings.Replace(editProgBase, "var local = x * 2;", "var local = x + x;", 1)
	bigFiles := []File{{Name: "lib.v", Source: libEdit}, {Name: "probe.v", Source: probe(3)}}
	incComp, st, err := CompileFilesIncremental(context.Background(), bigFiles, cfg, store)
	if err != nil {
		t.Fatalf("lib edit: %v", err)
	}
	if st.Mode != ModeIncremental {
		t.Fatalf("lib edit: mode=%s (reason %q), want incremental", st.Mode, st.Reason)
	}
	scratch, err := CompileFilesContext(context.Background(), bigFiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := outcomeOf(t, scratch), outcomeOf(t, incComp); want.dump != got.dump || want.runOut != got.runOut {
		t.Fatalf("lib edit: incremental differs from scratch")
	}
}

// TestIncrementalConcurrentSharedStore hammers one store — and thus
// one parse cache — from goroutines compiling different edits of the
// same two-file program. The cache's mutex serializes frontends that
// share AST nodes; running this under -race is the proof that it does.
func TestIncrementalConcurrentSharedStore(t *testing.T) {
	cfg := optConfig()
	store := NewStore(2)
	files := func(i int) []File {
		return []File{
			{Name: "lib.v", Source: editProgBase},
			{Name: "probe.v", Source: fmt.Sprintf("def probe(q: int) -> int { return q * 3 + %d; }\n", i)},
		}
	}
	if _, _, err := CompileFilesIncremental(context.Background(), files(0), cfg, store); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := CompileFilesIncremental(context.Background(), files(1+w*10+i), cfg, store); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The store survived the stampede: its final base answers edits
	// byte-identically to scratch.
	comp, st, err := CompileFilesIncremental(context.Background(), files(999), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeIncremental {
		t.Fatalf("mode=%s (reason %q), want incremental", st.Mode, st.Reason)
	}
	scratch, err := CompileFilesContext(context.Background(), files(999), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Module.String() != comp.Module.String() {
		t.Fatalf("post-stampede incremental differs from scratch")
	}
}

// TestStoreLRU: the store evicts the oldest fingerprint at capacity.
func TestStoreLRU(t *testing.T) {
	store := NewStore(1)
	plain := optConfig()
	full := Compiled()
	compileIncr(t, store, editProgBase, plain)
	compileIncr(t, store, editProgBase, full) // evicts plain
	if store.Len() != 1 {
		t.Fatalf("len=%d, want 1", store.Len())
	}
	_, st := compileIncr(t, store, editProgBase, plain)
	if st.Mode != ModeCold {
		t.Fatalf("evicted fingerprint answered: mode=%s", st.Mode)
	}
}
