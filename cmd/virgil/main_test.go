package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// write saves a temp source file and returns its path.
func write(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// exec invokes the driver in-process, capturing output and exit code.
func exec(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageExitCodes(t *testing.T) {
	if code, _, _ := exec(); code != exitUsage {
		t.Errorf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := exec("frobnicate", "x.v"); code != exitUsage {
		t.Errorf("unknown command: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := exec("run"); code != exitUsage {
		t.Errorf("no files: exit %d, want %d", code, exitUsage)
	}
	p := write(t, "ok.v", "def main() { }\n")
	if code, _, _ := exec("run", "-config", "bogus", p); code != exitUsage {
		t.Errorf("bad config: exit %d, want %d", code, exitUsage)
	}
}

func TestRunHello(t *testing.T) {
	p := write(t, "hello.v", `def main() { System.puts("hi"); System.ln(); }`)
	code, out, stderr := exec("run", p)
	if code != exitOK || out != "hi\n" {
		t.Fatalf("exit %d out %q stderr %q", code, out, stderr)
	}
}

// TestCheckHonorsConfig: check must compile under the *selected*
// pipeline config (it used to silently overwrite -config with the
// reference config). A program that traps at runtime still checks
// cleanly under every config, because check never executes.
func TestCheckHonorsConfig(t *testing.T) {
	p := write(t, "trapsatruntime.v", `
class C { var x: int; }
def main() -> int {
	var c: C;
	return c.x;
}
`)
	for _, cfg := range []string{"ref", "mono", "norm", "full"} {
		code, _, stderr := exec("check", "-config", cfg, p)
		if code != exitOK {
			t.Errorf("check -config %s: exit %d, stderr %q", cfg, code, stderr)
		}
	}
	bad := write(t, "bad.v", "def main() -> int { return true; }\n")
	for _, cfg := range []string{"ref", "full"} {
		code, _, _ := exec("check", "-config", cfg, bad)
		if code != exitDiag {
			t.Errorf("check -config %s on bad program: exit %d, want %d", cfg, code, exitDiag)
		}
	}
}

// TestMultipleDiagnostics: independent errors in one file are all
// reported (parser/checker recovery), not just the first.
func TestMultipleDiagnostics(t *testing.T) {
	p := write(t, "multi.v", `
def f() -> int {
	var x: int = true;
	return x;
}
def g() -> bool {
	var y: bool = 3;
	return y;
}
`)
	code, _, stderr := exec("check", p)
	if code != exitDiag {
		t.Fatalf("exit %d, want %d", code, exitDiag)
	}
	if n := strings.Count(stderr, "multi.v:"); n < 2 {
		t.Errorf("want >=2 positioned diagnostics, got %d:\n%s", n, stderr)
	}
}

func TestTrapPrintsTraceNotGoStack(t *testing.T) {
	p := write(t, "nulltrap.v", `
class C { var x: int; }
def deref(c: C) -> int {
	if (c == null) return c.x;
	return c.x;
}
def main() -> int {
	var c: C;
	return deref(c);
}
`)
	for _, cfg := range []string{"ref", "full"} {
		code, _, stderr := exec("run", "-config", cfg, p)
		if code != exitDiag {
			t.Errorf("[%s] exit %d, want %d", cfg, code, exitDiag)
		}
		if !strings.Contains(stderr, "!NullCheckException") {
			t.Errorf("[%s] missing trap name:\n%s", cfg, stderr)
		}
		if !strings.Contains(stderr, "at deref (") || !strings.Contains(stderr, "nulltrap.v:") {
			t.Errorf("[%s] missing source-level trace frame:\n%s", cfg, stderr)
		}
		assertNoGoStack(t, stderr)
	}
}

func TestResourceGuardFlags(t *testing.T) {
	loop := write(t, "loop.v", `
def main() -> int {
	var n = 0;
	while (true) n = n + 1;
	return n;
}
`)
	code, _, stderr := exec("run", "-max-steps", "10000", loop)
	if code != exitDiag || !strings.Contains(stderr, "step limit") {
		t.Errorf("-max-steps: exit %d stderr %q", code, stderr)
	}
	code, _, stderr = exec("run", "-timeout", "50ms", loop)
	if code != exitDiag || !strings.Contains(stderr, "deadline") {
		t.Errorf("-timeout: exit %d stderr %q", code, stderr)
	}
	rec := write(t, "rec.v", `
def f(n: int) -> int {
	if (n > 0) return f(n + 1);
	return n;
}
def main() -> int { return f(1); }
`)
	code, _, stderr = exec("run", "-max-depth", "100", rec)
	if code != exitDiag || !strings.Contains(stderr, "!StackOverflow") {
		t.Errorf("-max-depth: exit %d stderr %q", code, stderr)
	}
}

// TestCrashersNeverPanic runs every checked-in malformed program
// through the full driver: each must produce a one-line-per-diagnostic
// report and exit 1 (diagnostics or trap) or 3 (contained ICE) — never
// a Go panic or runtime stack dump.
func TestCrashersNeverPanic(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "crashers", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no crasher corpus found: %v", err)
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			for _, cfg := range []string{"ref", "full"} {
				// Guards keep even "valid but divergent" crashers quick.
				code, _, stderr := exec("run", "-config", cfg, "-max-steps", "1000000", "-timeout", "5s", p)
				if code != exitDiag && code != exitICE {
					t.Errorf("[%s] exit %d (stderr %q), want 1 or 3", cfg, code, stderr)
				}
				assertNoGoStack(t, stderr)
			}
		})
	}
}

func assertNoGoStack(t *testing.T, stderr string) {
	t.Helper()
	for _, marker := range []string{"goroutine ", "runtime error", "panic:", ".go:"} {
		if strings.Contains(stderr, marker) {
			t.Errorf("Go runtime detail leaked to user output (%q):\n%s", marker, stderr)
		}
	}
}

// TestLintSubcommand: virgil lint reports advisory findings with
// positions and exits 2 (distinct from diagnostics), exits 1 under
// -lint-strict, stays silent and exits 0 on clean programs, and
// reports ordinary diagnostics for programs that do not check.
func TestLintSubcommand(t *testing.T) {
	dirty := write(t, "dirty.v", `
def main() {
	var unused = 1;
	return;
	System.ln();
}
`)
	code, out, _ := exec("lint", dirty)
	if code != exitLint {
		t.Errorf("dirty program: exit %d, want %d", code, exitLint)
	}
	if !strings.Contains(out, "unused-local: local unused is never read") {
		t.Errorf("missing unused-local finding in output:\n%s", out)
	}
	if !strings.Contains(out, "unreachable: unreachable statement") {
		t.Errorf("missing unreachable finding in output:\n%s", out)
	}
	if !strings.Contains(out, "dirty.v:3:6:") {
		t.Errorf("findings lack file:line:col positions:\n%s", out)
	}

	code, _, _ = exec("lint", "-lint-strict", dirty)
	if code != exitDiag {
		t.Errorf("dirty program with -lint-strict: exit %d, want %d", code, exitDiag)
	}

	clean := write(t, "clean.v", `def main() { System.puts("ok"); System.ln(); }`)
	code, out, stderr := exec("lint", clean)
	if code != exitOK || out != "" {
		t.Errorf("clean program: exit %d out %q stderr %q", code, out, stderr)
	}

	broken := write(t, "broken.v", `def main() { undefined; }`)
	code, _, stderr = exec("lint", broken)
	if code != exitDiag || stderr == "" {
		t.Errorf("broken program: exit %d stderr %q, want diagnostics on stderr", code, stderr)
	}
}

// TestVerifyIRFlag: -verify-ir must be accepted by the compiling
// subcommands and leave correct programs untouched.
func TestVerifyIRFlag(t *testing.T) {
	p := write(t, "gen.v", `
class Box<T> {
	var x: T;
	new(x) { }
}
def main() {
	var b = Box<int>.new(41);
	System.puti(b.x + 1);
	System.ln();
}
`)
	for _, cfgName := range []string{"ref", "mono", "norm", "full"} {
		if code, _, stderr := exec("check", "-config", cfgName, "-verify-ir", p); code != exitOK {
			t.Errorf("check -config %s -verify-ir: exit %d stderr %q", cfgName, code, stderr)
		}
	}
	code, out, stderr := exec("run", "-verify-ir", p)
	if code != exitOK || out != "42\n" {
		t.Errorf("run -verify-ir: exit %d out %q stderr %q", code, out, stderr)
	}
}

// TestMaxErrorsFlag: -max-errors caps reported diagnostics and appends
// the sentinel line carrying the true total; -max-errors 0 keeps the
// default cap; negative values are a usage error.
func TestMaxErrorsFlag(t *testing.T) {
	var b strings.Builder
	b.WriteString("def main() {\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "\tbogus%d();\n", i)
	}
	b.WriteString("}\n")
	p := write(t, "many.v", b.String())

	code, _, stderr := exec("check", "-max-errors", "3", p)
	if code != exitDiag {
		t.Fatalf("exit %d, want %d", code, exitDiag)
	}
	// The sentinel line is positioned too: 3 diagnostics + sentinel.
	if n := strings.Count(stderr, "many.v:"); n != 4 {
		t.Errorf("-max-errors 3: %d positioned lines, want 4 (3 + sentinel):\n%s", n, stderr)
	}
	if !strings.Contains(stderr, "too many errors (60 total)") {
		t.Errorf("missing truncation sentinel:\n%s", stderr)
	}

	code, _, stderr = exec("check", p)
	if code != exitDiag {
		t.Fatalf("default cap: exit %d, want %d", code, exitDiag)
	}
	if n := strings.Count(stderr, "many.v:"); n != 21 {
		t.Errorf("default cap: %d positioned lines, want 21 (20 + sentinel):\n%s", n, stderr)
	}

	if code, _, _ = exec("check", "-max-errors", "-1", p); code != exitDiag {
		t.Errorf("-max-errors -1: exit %d, want %d (config validation)", code, exitDiag)
	}
}

// TestProfileSubcommandAndDeterminism: virgil profile emits stable
// JSON; run -profile-out records the byte-identical profile while
// keeping program output; -profile-in
// feeds it back through profile-guided optimization with identical
// observable behavior; and profiling under the switch engine is
// rejected up front.
func TestProfileSubcommandAndDeterminism(t *testing.T) {
	p := write(t, "spec.v", `
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def poll(x: A) -> int { return x.m(); }
def main() {
	var i = 0;
	var s = 0;
	var a = A.new();
	var b: A = B.new();
	s = s + poll(a);
	while (i < 100) { s = s + poll(b); i = i + 1; }
	System.puti(s);
}
`)
	code, prof1, stderr := exec("profile", p)
	if code != exitOK {
		t.Fatalf("profile: exit %d stderr %q", code, stderr)
	}
	if !strings.Contains(prof1, `"version": 1`) || !strings.Contains(prof1, `"calls": 100`) {
		t.Fatalf("profile JSON missing expected fields:\n%s", prof1)
	}
	if strings.Contains(prof1, `"branches"`) {
		t.Fatalf("profile JSON carries branch counters:\n%s", prof1)
	}
	dir := t.TempDir()
	pf := filepath.Join(dir, "p.json")
	if err := os.WriteFile(pf, []byte(prof1), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := exec("run", "-profile-in", pf, p)
	if code != exitOK || out != "201" {
		t.Fatalf("run -profile-in: exit %d out %q stderr %q", code, out, stderr)
	}

	pf2 := filepath.Join(dir, "p2.json")
	code, out, stderr = exec("run", "-profile-out", pf2, p)
	if code != exitOK || out != "201" {
		t.Fatalf("run -profile-out: exit %d out %q stderr %q", code, out, stderr)
	}
	rec, err := os.ReadFile(pf2)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec) != prof1 {
		t.Error("run -profile-out recorded a different profile than virgil profile")
	}

	if code, _, stderr := exec("profile", "-engine", "switch", p); code != exitDiag || !strings.Contains(stderr, "bytecode") {
		t.Errorf("profile -engine switch: exit %d stderr %q, want rejection naming the bytecode engine", code, stderr)
	}
	pf3 := filepath.Join(dir, "p3.json")
	code, out, stderr = exec("run", "-profile-out", pf3, "-engine", "switch", p)
	if code != exitDiag || out != "" || !strings.Contains(stderr, "bytecode") {
		t.Errorf("run -profile-out -engine switch: exit %d out %q stderr %q, want exit 1, no output and a rejection naming the bytecode engine", code, out, stderr)
	}
	if _, err := os.Stat(pf3); !os.IsNotExist(err) {
		t.Errorf("run -profile-out -engine switch created %s (stat err %v)", pf3, err)
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := exec("run", "-profile-in", garbage, p); code != exitDiag || !strings.Contains(stderr, "version") {
		t.Errorf("run -profile-in with unknown version: exit %d stderr %q", code, stderr)
	}
}

// syncBuffer is a goroutine-safe writer: the drain test reads the
// daemon's output while the daemon goroutine is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeSubcommandUsage: serve rejects stray arguments and bad
// listen addresses without starting a server.
func TestServeSubcommandUsage(t *testing.T) {
	if code, _, _ := exec("serve", "extra.v"); code != exitUsage {
		t.Errorf("stray args: exit %d, want %d", code, exitUsage)
	}
	if code, _, stderr := exec("serve", "-addr", "256.0.0.1:bogus"); code != exitUsage || stderr == "" {
		t.Errorf("bad addr: exit %d stderr %q, want usage error", code, stderr)
	}
}

// TestServeSubcommandDrains starts the real daemon on an ephemeral
// port, issues a request, sends it SIGTERM, and asserts a clean drain
// and exit 0 — the in-process version of the CI smoke job.
func TestServeSubcommandDrains(t *testing.T) {
	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"serve", "-addr", "127.0.0.1:0"}, &out, &errb) }()

	// The daemon prints its resolved address once listening.
	var url string
	deadline := time.Now().Add(5 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; out=%q err=%q", out.String(), errb.String())
		}
		if _, rest, ok := strings.Cut(out.String(), "listening on "); ok {
			url = strings.TrimSpace(strings.Split(rest, "\n")[0])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Post(url+"/compile", "application/json",
		strings.NewReader(`{"files":[{"name":"ok.v","source":"def main() { }"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("/compile: status=%d body=%s", resp.StatusCode, body)
	}
	hz, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status=%d", hz.StatusCode)
	}

	// SIGTERM must drain and exit 0.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != exitOK {
			t.Fatalf("exit %d after SIGTERM; out=%q err=%q", code, out.String(), errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("missing drain confirmation:\n%s", out.String())
	}
}
