package profile

import (
	"bytes"
	"strings"
	"testing"
)

func TestEncodeStable(t *testing.T) {
	build := func(order []int) *Profile {
		p := New()
		for _, i := range order {
			name := []string{"alpha", "beta", "gamma"}[i]
			f := p.FuncFor(name)
			f.Calls = int64(10 * (i + 1))
			f.Steps = int64(i + 1)
		}
		return p
	}
	var b1, b2 bytes.Buffer
	if err := build([]int{0, 1, 2}).Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{2, 0, 1}).Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("insertion order leaked into encoding:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	p := New()
	f := p.FuncFor("main")
	f.Calls = 3
	f.Steps = 99

	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gf := got.Funcs["main"]
	if gf == nil || gf.Calls != 3 || gf.Steps != 99 {
		t.Fatalf("func counters lost: %+v", gf)
	}
}

// TestDecodeIgnoresSitesAndBranches: version-1 profiles written before
// the call-site receiver histograms and the branch counters were
// dropped carry "sites" and "branches" blocks per function; they still
// decode, with the call and step counters intact.
func TestDecodeIgnoresSitesAndBranches(t *testing.T) {
	old := `{
  "version": 1,
  "funcs": {
    "poll": {
      "calls": 101,
      "steps": 404,
      "sites": {
        "0": {"kind": "virtual", "hits": 99, "misses": 2, "installs": 2, "class": "B", "callee": "B.m"}
      },
      "branches": {"1": {"taken": 100, "back": true}}
    }
  }
}`
	p, err := Decode(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	f := p.Funcs["poll"]
	if f == nil || f.Calls != 101 || f.Steps != 404 {
		t.Fatalf("func counters lost: %+v", f)
	}
	if got := p.HotFuncs(); len(got) != 1 || got[0] != "poll" {
		t.Fatalf("HotFuncs = %v, want [poll]", got)
	}
}

func TestDecodeRejectsVersion(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"version": 99, "funcs": {}}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	af := a.FuncFor("f")
	af.Calls = 1
	af.Steps = 5

	bf := b.FuncFor("f")
	bf.Calls = 2
	bf.Steps = 3
	b.FuncFor("g").Calls = 7

	a.Merge(b)
	f := a.Funcs["f"]
	if f.Calls != 3 || f.Steps != 8 {
		t.Fatalf("calls = %d, steps = %d", f.Calls, f.Steps)
	}
	if a.Funcs["g"] == nil || a.Funcs["g"].Calls != 7 {
		t.Fatal("new func not merged")
	}
}

// TestHotFuncs: a function is hot when it is called at least
// DefaultHotCalls times or burns at least DefaultHotSteps steps; one
// below both thresholds is cold.
func TestHotFuncs(t *testing.T) {
	p := New()
	cold := p.FuncFor("cold")
	cold.Calls, cold.Steps = DefaultHotCalls-1, DefaultHotSteps-1
	p.FuncFor("hotcalls").Calls = DefaultHotCalls
	loop := p.FuncFor("hotsteps")
	loop.Calls, loop.Steps = 1, DefaultHotSteps
	got := p.HotFuncs()
	want := []string{"hotcalls", "hotsteps"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("HotFuncs = %v, want %v", got, want)
	}
}
