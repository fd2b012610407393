package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestOneVariablePerRow holds every row of the table, at both sizes,
// to sides that differ in exactly one variable, with distinct names.
func TestOneVariablePerRow(t *testing.T) {
	for _, size := range []Size{Short, Full} {
		names := map[string]bool{}
		for _, r := range New(size).Rows() {
			if d := Diff(r.Base, r.Test); len(d) != 1 {
				t.Errorf("%v %s: sides differ in %v, want exactly one variable", size, r.Name, d)
			}
			for _, s := range []Side{r.Base, r.Test} {
				if name := r.Name + "/" + s.Label; names[name] {
					t.Errorf("%v: row %s listed twice", size, name)
				} else {
					names[name] = true
				}
			}
		}
	}
	ref, comp := Side{Config: core.Reference()}, Side{Config: core.Compiled()}
	if d := Diff(ref, comp); !slices.Equal(d, []string{"Monomorphize", "Normalize", "Optimize", "Analyze"}) {
		t.Errorf("reference vs compiled differ in %v", d)
	}
	if d := Diff(ref, Side{Prog: ref.Prog, Config: ref.Config}); len(d) != 0 {
		t.Errorf("a side differs from itself in %v", d)
	}
}

// TestCounters runs both sides of every row on both engines and holds
// each to the counters its row predicts.
func TestCounters(t *testing.T) {
	for _, r := range New(Full).Rows() {
		for _, eng := range []string{core.EngineSwitch, core.EngineBytecode} {
			for i, s := range []Side{r.Base, r.Test} {
				s.Config.Engine = eng
				got, err := s.Count(r.Op)
				if err != nil {
					t.Fatalf("%s/%s on %s: %v", r.Name, s.Label, eng, err)
				}
				if got != r.Want[i] {
					t.Errorf("%s/%s on %s: counters %+v, want %+v", r.Name, s.Label, eng, got, r.Want[i])
				}
			}
		}
	}
}

func TestVarianceDecisions(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(variance()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "(o6)") || !strings.Contains(lines[0], "REJECTED") ||
		!strings.Contains(lines[1], "(o7)") || !strings.HasSuffix(lines[1], "ACCEPTED") {
		t.Errorf("o6 must be rejected and o7 accepted:\n%s", strings.Join(lines, "\n"))
	}
}

// TestDocMatchesTable checks that every line of a fresh deterministic
// report (the counters, T1 and E8) appears in EXPERIMENTS.md, in order.
func TestDocMatchesTable(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var fresh strings.Builder
	if err := New(Full).Report(&fresh, "", nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	at := 0
	for _, want := range strings.Split(fresh.String(), "\n") {
		for at < len(lines) && lines[at] != want {
			at++
		}
		if at == len(lines) {
			t.Fatalf("EXPERIMENTS.md lacks, in order, this line of a fresh run (regenerate it with make experiments):\n%s", want)
		}
		at++
	}
}
