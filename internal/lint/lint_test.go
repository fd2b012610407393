package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/testprogs"
)

// lintSource checks one source string and returns the rendered
// findings, one per line.
func lintSource(t *testing.T, name, source string) []string {
	t.Helper()
	prog, err := core.CheckFiles([]core.File{{Name: name, Source: source}})
	if err != nil {
		t.Fatalf("%s does not typecheck: %v", name, err)
	}
	var lines []string
	for _, f := range lint.Run(prog) {
		lines = append(lines, f.String())
	}
	return lines
}

// TestGoldenCorpus compares lint output for every testdata/lint/*.v
// program against its .golden file. Run with UPDATE_LINT_GOLDEN=1 to
// regenerate the goldens.
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "lint", "*.v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("golden corpus has %d programs, want at least 10", len(files))
	}
	for _, file := range files {
		name := filepath.Base(file)
		t.Run(strings.TrimSuffix(name, ".v"), func(t *testing.T) {
			source, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(lintSource(t, name, string(source)), "\n")
			if got != "" {
				got += "\n"
			}
			goldenPath := strings.TrimSuffix(file, ".v") + ".golden"
			if os.Getenv("UPDATE_LINT_GOLDEN") != "" {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_LINT_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("lint output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCorpusFindingsPinned runs the linter over the semantic test
// corpus and pins the exact findings. The corpus deliberately
// exercises statically-decidable casts, default-initialized reads and
// dead fields (they test interpreter semantics, not style), so the
// linter must keep reporting exactly these and nothing new.
func TestCorpusFindingsPinned(t *testing.T) {
	want := map[string]bool{
		"operators_b8_b15.v:9:17: static-cast: cast from B to A always succeeds":                                              true,
		"tuples_c1_c6.v:11:6: unused-local: local v is never read":                                                            true,
		"generic_list_d.v:15:24: static-cast: type query from List<int> to List<int> is always true":                          true,
		"generic_list_d.v:16:25: static-cast: type query from List<int> to List<bool> is always false":                        true,
		"generic_list_d.v:17:31: static-cast: type query from List<(int, int)> to List<(int, int)> is always true":            true,
		"normalization_q.v:12:4: use-before-init: local t is read before initialization (declared at normalization_q.v:11:6)": true,
		"void_fields.v:4:6: unused-field: field C.w is never read":                                                            true,
		"void_fields.v:10:6: unused-local: local x is never read":                                                             true,
		"query_generic_parent.v:3:11: unused-type-param: type parameter T of Box is never used":                               true,
		"query_generic_parent.v:5:15: unused-type-param: type parameter B of Pair is never used":                              true,
		"query_generic_parent.v:20:11: static-cast: type query from Any to Any is always true":                                true,
	}
	got := map[string]bool{}
	for _, p := range testprogs.All() {
		for _, line := range lintSource(t, p.Name+".v", p.Source) {
			got[line] = true
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("new finding in corpus: %s", line)
		}
	}
	for line := range want {
		if !got[line] {
			t.Errorf("pinned finding disappeared: %s", line)
		}
	}
}

// TestExamplesLintClean asserts the shipped example programs have no
// findings at all — they are the code style the linter endorses.
func TestExamplesLintClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "virgil", "*.v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found under examples/virgil")
	}
	for _, file := range files {
		source, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lintSource(t, filepath.Base(file), string(source)) {
			t.Errorf("%s: %s", file, line)
		}
	}
}

// TestFindingsSorted checks findings come out ordered by position even
// when produced by different passes.
func TestFindingsSorted(t *testing.T) {
	source := `
def main() {
	var unused = 1;
	var x: int;
	System.puti(x);
	return;
	System.ln();
}
private def dead() { }
`
	lines := lintSource(t, "sorted.v", source)
	if len(lines) < 4 {
		t.Fatalf("expected at least 4 findings, got %d: %v", len(lines), lines)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("findings out of order:\n%s\n%s", lines[i-1], lines[i])
		}
	}
}
