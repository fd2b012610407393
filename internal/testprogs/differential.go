package testprogs

import (
	"fmt"

	"repro/internal/progen"
)

// Differential returns the sources the in-place passes are held to
// their copying references on, by name: the corpus, progen at Scale
// 1–8 with and without call chains, progen.Random programs, and
// "void-parts", whose tuples with void elements each flatten to one
// scalar of a different type.
func Differential() map[string]string {
	srcs := map[string]string{"void-parts": voidParts}
	for _, p := range All() {
		srcs[p.Name] = p.Source
	}
	for k := 1; k <= 8; k++ {
		p := progen.Scale(k)
		srcs[fmt.Sprintf("scale%d", k)] = progen.Generate(p)
		p.Chains, p.ChainDepth = k, 5
		srcs[fmt.Sprintf("scale%d-chains", k)] = progen.Generate(p)
	}
	for seed := int64(1); seed <= 20; seed++ {
		srcs[fmt.Sprintf("random%d", seed)] = progen.Random(seed)
	}
	return srcs
}

const voidParts = `
class Cell {
	var v: (int, void);
	new(v) { }
}
def pick(p: (int, void), q: (void, bool)) -> (int, void) {
	if (q.1) return p;
	return (p.0 + 1, ());
}
def main() -> int {
	var a = Array<(int, void)>.new(2);
	a[0] = pick((3, ()), ((), true));
	a[1] = pick((4, ()), ((), false));
	var c = Cell.new(a[1]);
	var u: (int, void);
	var eq = a[0] == u;
	System.puti(a[0].0 + a[1].0 + c.v.0);
	if (eq) System.puti(1);
	return a.length;
}
`
