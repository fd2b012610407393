package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Timer measures one operation of a side, in ns.
type Timer func(s Side, op Op) (float64, error)

const intro = `# EXPERIMENTS — paper vs. measured

Generated by make experiments (go run ./cmd/bench -report) from the
table in internal/experiments; change the table, not this file. Each
row is a pair of sides that differ in exactly one variable, so its
ratio isolates one stage. The substrate is this repository's two
execution engines, not the paper's native backends: a ratio holds for
the engine it was measured on. The counters are deterministic and the
same on both engines; TestCounters and TestDocMatchesTable hold them.
`

// Report writes the table as the markdown of EXPERIMENTS.md: for each
// entry its claim, its Text and the counters of its rows. With a timer
// it also writes head (the machine context) and the time of both sides
// of every row, per engine where the engine is in play and not the
// variable itself. Without one the output is deterministic.
func (t Table) Report(w io.Writer, head string, timer Timer) error {
	fmt.Fprint(w, intro)
	if timer != nil {
		fmt.Fprintf(w, "\n%s\n", head)
	}
	for _, e := range t {
		fmt.Fprintf(w, "\n## %s — %s", e.ID, e.Title)
		if e.Section != "" {
			fmt.Fprintf(w, " (%s)", e.Section)
		}
		fmt.Fprintf(w, "\n\n> %s\n", e.Claim)
		if e.Note != "" {
			fmt.Fprintf(w, "\n%s\n", e.Note)
		}
		if e.Text != nil {
			fmt.Fprintf(w, "\n```\n%s```\n", e.Text())
		}
		if err := writeCounts(w, e.Rows); err != nil {
			return err
		}
		if timer != nil && len(e.Rows) > 0 {
			if err := writeTimes(w, e.Rows, timer); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCounts writes the counters of each side and the variable its
// row varies; a Compile row has only its module size.
func writeCounts(w io.Writer, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\n| row | varies | side | instrs | steps | arity checks | tuple boxes | type binds | heap bytes |\n|---|---|---|--:|--:|--:|--:|--:|--:|\n")
	for _, r := range rows {
		varies := strings.Join(Diff(r.Base, r.Test), ", ")
		for _, s := range []Side{r.Base, r.Test} {
			c, err := s.Count(r.Op)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", r.Name, s.Label, err)
			}
			if r.Op == Compile { // nothing ran
				fmt.Fprintf(w, "| %s | %s | %s | %d | | | | | |\n", r.Name, varies, s.Label, c.Instrs)
			} else {
				fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %d | %d | %d | %d |\n", r.Name, varies, s.Label, c.Instrs, c.Steps, c.Checks, c.Boxes, c.Binds, c.Heap)
			}
		}
	}
	return nil
}

// writeTimes writes the time of both sides of each row and the base
// over test ratio. A Compile row's cells also give source lines per
// second.
func writeTimes(w io.Writer, rows []Row, timer Timer) error {
	fmt.Fprintf(w, "\n| row | engine | base | test | base/test |\n|---|---|---|---|--:|\n")
	for _, r := range rows {
		engines := []string{core.EngineSwitch, core.EngineBytecode}
		if r.Op == Compile || r.Base.Config.Engine != r.Test.Config.Engine {
			engines = []string{""} // the engine is not in play, or it is the variable
		}
		for _, eng := range engines {
			var ns [2]float64
			var cell [2]string
			for i, s := range []Side{r.Base, r.Test} {
				if eng != "" {
					s.Config.Engine = eng
				}
				var err error
				if ns[i], err = timer(s, r.Op); err != nil {
					return fmt.Errorf("%s/%s: %w", r.Name, s.Label, err)
				}
				cell[i] = fmt.Sprintf("%s %.3f ms", s.Label, ns[i]/1e6)
				if r.Op == Compile {
					cell[i] += fmt.Sprintf(" (%.0f lines/s)", float64(strings.Count(s.Prog.Source, "\n"))*1e9/ns[i])
				}
			}
			if eng == "" {
				eng = "-"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.2fx |\n", r.Name, eng, cell[0], cell[1], ns[0]/ns[1])
		}
	}
	return nil
}
