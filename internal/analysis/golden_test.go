package analysis_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// TestGoldenReports compiles each testdata program through the full
// pipeline (mono+norm+opt+analysis) and compares the JSON analysis
// report against its .golden.json file. The goldens pin down the
// observable analysis surface: call-graph resolution, escape verdicts,
// stack promotions, effect summaries, and interval counts. Run with
// UPDATE_ANALYSIS_GOLDEN=1 to regenerate after an intentional change.
//
// This test lives in an external package because core imports analysis:
// the in-package tests can exercise the analyses directly, but only the
// driver can show what the analyze subcommand actually emits.
func TestGoldenReports(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.v"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) < 3 {
		t.Fatalf("golden corpus has %d programs, want at least 3", len(files))
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".v")
		t.Run(name, func(t *testing.T) {
			source, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := core.Compile(filepath.Base(file), string(source), core.Compiled())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if comp.Analysis == nil {
				t.Fatal("compiled config should carry analysis facts")
			}
			got, err := analysis.ReportJSON(comp.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := strings.TrimSuffix(file, ".v") + ".golden.json"
			if os.Getenv("UPDATE_ANALYSIS_GOLDEN") != "" {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_ANALYSIS_GOLDEN=1): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report differs from golden %s\n--- got ---\n%s", goldenPath, got)
			}
		})
	}
}
