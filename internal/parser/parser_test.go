package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
)

func parse(t *testing.T, source string) *ast.File {
	t.Helper()
	errs := &src.ErrorList{}
	f := Parse("test.v", source, errs)
	if !errs.Empty() {
		t.Fatalf("parse errors:\n%s", errs.Error())
	}
	return f
}

func parseErr(t *testing.T, source, want string) {
	t.Helper()
	errs := &src.ErrorList{}
	Parse("test.v", source, errs)
	if errs.Empty() {
		t.Fatalf("expected parse error containing %q", want)
	}
	if !strings.Contains(errs.Error(), want) {
		t.Fatalf("want error containing %q, got:\n%s", want, errs.Error())
	}
}

func TestClassDecl(t *testing.T) {
	f := parse(t, `
class A {
	var f: int;
	def g: int;
	new(f, g) { }
	def m(a: byte) -> int { return 0; }
	private def p() { }
}
class B extends A {
	def m(a: byte) -> int { return 1; }
}
`)
	if len(f.Decls) != 2 {
		t.Fatalf("got %d decls", len(f.Decls))
	}
	a := f.Decls[0].(*ast.ClassDecl)
	if a.Name.Name != "A" || len(a.Members) != 5 {
		t.Fatalf("class A: %q with %d members", a.Name.Name, len(a.Members))
	}
	if _, ok := a.Members[2].(*ast.CtorDecl); !ok {
		t.Error("member 2 should be a constructor")
	}
	m := a.Members[3].(*ast.MethodDecl)
	if m.Name.Name != "m" || len(m.Params) != 1 || m.RetType == nil {
		t.Error("method m malformed")
	}
	p := a.Members[4].(*ast.MethodDecl)
	if !p.Private {
		t.Error("p should be private")
	}
	b := f.Decls[1].(*ast.ClassDecl)
	if b.Extends == nil {
		t.Error("B should extend A")
	}
}

func TestCompactClassParams(t *testing.T) {
	f := parse(t, `
class DatastoreInterface(
	create: () -> int,
	load: int -> int,
	store: int -> ()) {
}
`)
	d := f.Decls[0].(*ast.ClassDecl)
	if len(d.CtorParams) != 3 {
		t.Fatalf("got %d compact params", len(d.CtorParams))
	}
	if _, ok := d.CtorParams[0].Type.(*ast.FuncTypeRef); !ok {
		t.Error("create should have a function type")
	}
}

func TestGenericDecls(t *testing.T) {
	f := parse(t, `
class List<T> {
	var head: T;
	var tail: List<T>;
	new(head, tail) { }
}
def apply<A>(list: List<A>, f: A -> void) { }
def nested(x: List<List<int>>) { }
`)
	cls := f.Decls[0].(*ast.ClassDecl)
	if len(cls.TypeParams) != 1 || cls.TypeParams[0].Name.Name != "T" {
		t.Error("List<T> type params")
	}
	fn := f.Decls[1].(*ast.MethodDecl)
	if len(fn.TypeParams) != 1 {
		t.Error("apply<A> type params")
	}
	// List<List<int>> exercises the '>>' split.
	nested := f.Decls[2].(*ast.MethodDecl)
	outer := nested.Params[0].Type.(*ast.NamedTypeRef)
	inner := outer.Args[0].(*ast.NamedTypeRef)
	if outer.Name.Name != "List" || inner.Name.Name != "List" {
		t.Error("nested generics misparsed")
	}
}

func TestTupleAndFunctionTypes(t *testing.T) {
	f := parse(t, `
def f(a: (int, int), b: (int, int) -> int, c: int -> (int, int), d: A -> (B -> C), e: (A -> B) -> C) { }
`)
	fn := f.Decls[0].(*ast.MethodDecl)
	if _, ok := fn.Params[0].Type.(*ast.TupleTypeRef); !ok {
		t.Error("a: tuple type")
	}
	b := fn.Params[1].Type.(*ast.FuncTypeRef)
	if _, ok := b.Param.(*ast.TupleTypeRef); !ok {
		t.Error("b: tuple parameter in function type")
	}
	// -> is right-associative: A -> (B -> C) == A -> B -> C.
	d := fn.Params[3].Type.(*ast.FuncTypeRef)
	if _, ok := d.Ret.(*ast.FuncTypeRef); !ok {
		t.Error("d: right-associative ->")
	}
	e := fn.Params[4].Type.(*ast.FuncTypeRef)
	if _, ok := e.Param.(*ast.FuncTypeRef); !ok {
		t.Error("e: parenthesized function parameter")
	}
}

func TestLessThanVsTypeArgs(t *testing.T) {
	// `a < b` must parse as comparison, `f<int>(x)` as instantiation.
	f := parse(t, `
def main() {
	var x = a < b;
	var y = f<int>(3);
	var z = a < b > (c);
	var w = m.dispatch<bool>(true);
	var q = List<(int, int)>.new((3, 4), null);
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	x := body.Stmts[0].(*ast.LocalDecl)
	if _, ok := x.Init.(*ast.BinaryExpr); !ok {
		t.Errorf("a < b should be a comparison, got %T", x.Init)
	}
	y := body.Stmts[1].(*ast.LocalDecl)
	call := y.Init.(*ast.CallExpr)
	vr := call.Fn.(*ast.VarRef)
	if len(vr.TypeArgs) != 1 {
		t.Error("f<int> should carry type args")
	}
	// `a < b > (c)` commits to the instantiation reading a<b>(c), the
	// same disambiguation C# uses: a '<'...'>' followed by '(' is type
	// arguments.
	z := body.Stmts[2].(*ast.LocalDecl)
	if call, ok := z.Init.(*ast.CallExpr); !ok {
		t.Errorf("a < b > (c) should be a generic call, got %T", z.Init)
	} else if len(call.Fn.(*ast.VarRef).TypeArgs) != 1 {
		t.Error("a<b>(c) should carry one type argument")
	}
	w := body.Stmts[3].(*ast.LocalDecl)
	mc := w.Init.(*ast.CallExpr).Fn.(*ast.MemberExpr)
	if len(mc.TypeArgs) != 1 {
		t.Error("dispatch<bool> should carry type args")
	}
}

func TestOperatorMembers(t *testing.T) {
	f := parse(t, `
def main() {
	var a = byte.==;
	var b = int.+;
	var c = A.!<B>;
	var d = A.?<B>;
	var e = int.!(x);
	var g = List<void>.?(a);
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	a := body.Stmts[0].(*ast.LocalDecl).Init.(*ast.MemberExpr)
	if a.Name.Name != "==" {
		t.Errorf("member name %q", a.Name.Name)
	}
	c := body.Stmts[2].(*ast.LocalDecl).Init.(*ast.MemberExpr)
	if c.Name.Name != "!" || len(c.TypeArgs) != 1 {
		t.Error("A.!<B> malformed")
	}
	e := body.Stmts[4].(*ast.LocalDecl).Init.(*ast.CallExpr)
	if e.Fn.(*ast.MemberExpr).Name.Name != "!" {
		t.Error("int.!(x) malformed")
	}
}

func TestTupleExprsAndIndices(t *testing.T) {
	f := parse(t, `
def main() {
	var x = (0, 1);
	var y = x.0;
	var z = t.1.0;
	var v = ();
	var w = (5);
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	if te, ok := body.Stmts[0].(*ast.LocalDecl).Init.(*ast.TupleExpr); !ok || len(te.Elems) != 2 {
		t.Error("(0, 1) tuple")
	}
	y := body.Stmts[1].(*ast.LocalDecl).Init.(*ast.MemberExpr)
	if y.Name.Name != "0" {
		t.Error("x.0 index")
	}
	z := body.Stmts[2].(*ast.LocalDecl).Init.(*ast.MemberExpr)
	if z.Name.Name != "0" {
		t.Error("t.1.0 outer index")
	}
	if inner, ok := z.Recv.(*ast.MemberExpr); !ok || inner.Name.Name != "1" {
		t.Error("t.1.0 inner index")
	}
	if te, ok := body.Stmts[3].(*ast.LocalDecl).Init.(*ast.TupleExpr); !ok || len(te.Elems) != 0 {
		t.Error("() void literal")
	}
	if _, ok := body.Stmts[4].(*ast.LocalDecl).Init.(*ast.IntLit); !ok {
		t.Error("(5) == 5")
	}
}

func TestStatements(t *testing.T) {
	f := parse(t, `
def main() {
	if (a) b(); else c();
	while (x) { y(); }
	for (l = list; l != null; l = l.tail) f(l.head);
	for (i = 0; i < n; i++) { }
	break;
	continue;
	return x;
	return;
	var a = 1, b = 2;
	x += 1;
	x--;
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	if _, ok := body.Stmts[0].(*ast.IfStmt); !ok {
		t.Error("if")
	}
	if _, ok := body.Stmts[1].(*ast.WhileStmt); !ok {
		t.Error("while")
	}
	fs, ok := body.Stmts[2].(*ast.ForStmt)
	if !ok || fs.Var.Name != "l" {
		t.Error("for with binding")
	}
	multi, ok := body.Stmts[8].(*ast.Block)
	if !ok || len(multi.Stmts) != 2 {
		t.Error("multi-declarator var")
	}
}

func TestTernaryAndPrecedence(t *testing.T) {
	f := parse(t, `
def main() {
	var x = z ? f : g;
	var y = 1 + 2 * 3;
	var w = a || b && c;
	var s = 1 << 2 + 3;
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	if _, ok := body.Stmts[0].(*ast.LocalDecl).Init.(*ast.TernaryExpr); !ok {
		t.Error("ternary")
	}
	y := body.Stmts[1].(*ast.LocalDecl).Init.(*ast.BinaryExpr)
	if y.Op.String() != "+" {
		t.Errorf("1+2*3 top op %s", y.Op)
	}
	w := body.Stmts[2].(*ast.LocalDecl).Init.(*ast.BinaryExpr)
	if w.Op.String() != "||" {
		t.Errorf("|| binds loosest, got %s", w.Op)
	}
	s := body.Stmts[3].(*ast.LocalDecl).Init.(*ast.BinaryExpr)
	if s.Op.String() != "<<" {
		t.Errorf("shift binds looser than +, got %s", s.Op)
	}
}

func TestAbstractMethodAndSuper(t *testing.T) {
	f := parse(t, `
class Instr {
	def emit(buf: Buffer);
}
class Sub extends Instr {
	new(x: int) super(x) { }
	def emit(buf: Buffer) { }
}
`)
	instr := f.Decls[0].(*ast.ClassDecl)
	if instr.Members[0].(*ast.MethodDecl).Body != nil {
		t.Error("abstract method should have nil body")
	}
	sub := f.Decls[1].(*ast.ClassDecl)
	ct := sub.Members[0].(*ast.CtorDecl)
	if !ct.HasSuper || len(ct.SuperArgs) != 1 {
		t.Error("super(x) malformed")
	}
}

func TestParseErrors(t *testing.T) {
	parseErr(t, `def f( { }`, "expected")
	parseErr(t, `class { }`, "identifier")
	parseErr(t, `def main() { var x = ; }`, "expected expression")
	parseErr(t, `def main() { if a) b(); }`, "expected (")
	parseErr(t, `def f(x) { }`, "requires a type")
}

func TestErrorPositions(t *testing.T) {
	errs := &src.ErrorList{}
	Parse("test.v", "def main() {\n  var x = ;\n}", errs)
	if errs.Empty() {
		t.Fatal("expected error")
	}
	if !strings.Contains(errs.Error(), "test.v:2:") {
		t.Errorf("error should point to line 2: %s", errs.Error())
	}
}

func TestParserRecovers(t *testing.T) {
	// Multiple errors are reported; parsing always terminates.
	errs := &src.ErrorList{}
	Parse("test.v", "class A { var } def main( { xx yy", errs)
	if errs.Len() < 2 {
		t.Errorf("expected multiple errors, got %d", errs.Len())
	}
}

func TestComponentAndEnumDecls(t *testing.T) {
	f := parse(t, `
component Counter {
	var count: int;
	def bump() -> int { return 0; }
	private def internal() { }
}
enum Color { RED, GREEN, BLUE }
enum One { ONLY }
`)
	comp := f.Decls[0].(*ast.ComponentDecl)
	if comp.Name.Name != "Counter" || len(comp.Members) != 3 {
		t.Fatalf("component: %q with %d members", comp.Name.Name, len(comp.Members))
	}
	en := f.Decls[1].(*ast.EnumDecl)
	if en.Name.Name != "Color" || len(en.Cases) != 3 || en.Cases[1].Name != "GREEN" {
		t.Fatalf("enum Color malformed: %+v", en)
	}
	one := f.Decls[2].(*ast.EnumDecl)
	if len(one.Cases) != 1 {
		t.Fatal("single-case enum")
	}
}

func TestComponentRejectsCtor(t *testing.T) {
	parseErr(t, `component C { new() { } }`, "cannot declare constructors")
}

func TestFunctionTypeReceiver(t *testing.T) {
	f := parse(t, `
def main() {
	var q = (StringBuffer -> void).?(a);
	var c = (int -> int).!(f);
	var grouped = (1 + 2) * 3;
	var call = (g)(1);
}
`)
	body := f.Decls[0].(*ast.MethodDecl).Body
	q := body.Stmts[0].(*ast.LocalDecl).Init.(*ast.CallExpr).Fn.(*ast.MemberExpr)
	if _, ok := q.Recv.(*ast.TypeExpr); !ok {
		t.Errorf("(T -> U).? receiver should be a TypeExpr, got %T", q.Recv)
	}
	// Parenthesized value expressions are untouched.
	g := body.Stmts[2].(*ast.LocalDecl).Init.(*ast.BinaryExpr)
	if g.Op.String() != "*" {
		t.Error("(1 + 2) * 3 grouping broken")
	}
	if _, ok := body.Stmts[3].(*ast.LocalDecl).Init.(*ast.CallExpr); !ok {
		t.Error("(g)(1) should stay a call")
	}
}

// TestSyncPointRecovery: the parser resynchronizes after a syntax error
// and reports later, independent errors from the same file instead of
// stopping at the first.
func TestSyncPointRecovery(t *testing.T) {
	source := `
def f() -> int {
	return 1 +;
}
def g() -> int {
	var x int = 2;
	return @;
}
`
	errs := &src.ErrorList{}
	Parse("sync.v", source, errs)
	if errs.Len() < 2 {
		t.Fatalf("want >=2 independent diagnostics, got %d:\n%v", errs.Len(), errs)
	}
	lines := map[int]bool{}
	for _, e := range errs.Errors {
		lines[e.Pos.Line()] = true
	}
	if len(lines) < 2 {
		t.Errorf("diagnostics should span >=2 distinct lines, got %v", lines)
	}
}

// TestNestingDepthGuard: adversarially deep nesting yields a single
// diagnostic, not Go stack exhaustion or a superlinear reparse.
func TestNestingDepthGuard(t *testing.T) {
	deep := "def main() -> int { return " + strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000) + "; }"
	errs := &src.ErrorList{}
	Parse("deep.v", deep, errs)
	if errs.Empty() {
		t.Fatal("deep nesting accepted silently")
	}
	found := false
	for _, e := range errs.Errors {
		if strings.Contains(e.Msg, "nesting too deep") {
			found = true
		}
	}
	if !found {
		t.Errorf("want 'nesting too deep' diagnostic, got:\n%v", errs)
	}
}

// TestTokenCapacityCoversSources checks that New's token reservation
// holds every token of the paper corpus, the example programs and
// generated programs of several sizes, so lexing never regrows it.
func TestTokenCapacityCoversSources(t *testing.T) {
	type source struct{ name, text string }
	var srcs []source
	for _, p := range testprogs.All() {
		srcs = append(srcs, source{p.Name, p.Source})
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "virgil", "*.v"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{filepath.Base(path), string(data)})
	}
	for _, k := range []int{1, 2, 4, 8} {
		srcs = append(srcs, source{fmt.Sprintf("progen-scale-%d", k), progen.Generate(progen.Scale(k))})
	}
	for _, s := range srcs {
		errs := &src.ErrorList{}
		p := New(src.NewFile(s.name, s.text), errs)
		if !errs.Empty() {
			t.Fatalf("%s: lex errors:\n%s", s.name, errs.Error())
		}
		if reserved := tokenCapacity(len(s.text)); len(p.toks) > reserved {
			t.Errorf("%s: %d tokens from %d bytes (%.2f bytes/token) exceed the %d reserved",
				s.name, len(p.toks), len(s.text), float64(len(s.text))/float64(len(p.toks)), reserved)
		}
	}
}
