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
			b := f.Branch(i)
			b.Taken = int64(i + 2)
			b.Back = i == 1
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
	b := f.Branch(2)
	b.Taken, b.Not, b.Back = 41, 3, true

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
	if gb := gf.BranchAt(2); gb == nil || gb.Taken != 41 || gb.Not != 3 || !gb.Back {
		t.Fatalf("branch lost: %+v", gf.BranchAt(2))
	}
}

// TestDecodeIgnoresSites: version-1 profiles written before call-site
// receiver histograms were dropped carry a "sites" block per function;
// they still decode, with every remaining counter intact.
func TestDecodeIgnoresSites(t *testing.T) {
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
	if b := f.BranchAt(1); b == nil || b.Taken != 100 || !b.Back {
		t.Fatalf("branch lost: %+v", f.BranchAt(1))
	}
	if got := p.HotFuncs(DefaultHotCalls, DefaultHotSteps); len(got) != 1 || got[0] != "poll" {
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
	af.Branch(0).Taken = 2

	bf := b.FuncFor("f")
	bf.Calls = 2
	bf.Steps = 3
	bb := bf.Branch(0)
	bb.Taken, bb.Back = 4, true
	b.FuncFor("g").Calls = 7

	a.Merge(b)
	f := a.Funcs["f"]
	if f.Calls != 3 || f.Steps != 8 {
		t.Fatalf("calls = %d, steps = %d", f.Calls, f.Steps)
	}
	if br := f.BranchAt(0); br.Taken != 6 || !br.Back {
		t.Fatalf("branch merge: %+v", br)
	}
	if a.Funcs["g"] == nil || a.Funcs["g"].Calls != 7 {
		t.Fatal("new func not merged")
	}

}

func TestHotFuncs(t *testing.T) {
	p := New()
	p.FuncFor("cold").Calls = 1
	p.FuncFor("hotcalls").Calls = 500
	lf := p.FuncFor("hotloop")
	lf.Calls = 1
	br := lf.Branch(0)
	br.Taken, br.Back = 10000, true
	got := p.HotFuncs(100, 1000)
	want := []string{"hotcalls", "hotloop"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("HotFuncs = %v, want %v", got, want)
	}
}
