// Package testprogs holds the corpus of Virgil-core programs used by
// tests and benchmarks across the repository: every design pattern from
// the paper's §3, the implementation-ambiguity examples from §4.1, and
// the workloads behind experiments E1-E7.
package testprogs

// Prog is one corpus program with its expected System output.
type Prog struct {
	Name   string
	Source string
	Want   string
	// Paper cites the paper example or section this program encodes.
	Paper string
}

// All returns the whole corpus.
func All() []Prog {
	return []Prog{
		{Name: "hello", Paper: "intro", Want: "hello, world\n", Source: `
def main() {
	System.puts("hello, world");
	System.ln();
}
`},
		{Name: "fib", Paper: "control flow", Want: "0 1 1 2 3 5 8 13 21 34 ", Source: `
def fib(n: int) -> int {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
def main() {
	for (i = 0; i < 10; i++) {
		System.puti(fib(i));
		System.putc(' ');
	}
}
`},
		{Name: "classes_b1_b7", Paper: "b1-b7", Want: "35 34 36 3", Source: `
class A {
	var f: int;
	def g: int;
	new(f, g) { }
	def m(a: byte) -> int { return f + g + int.!(a); }
}
def main() {
	var a = A.new(10, 20);
	var m1 = a.m;
	var m2 = A.m;
	var x = a.m('\x05');
	var y = m1('\x04');
	var z = m2(a, '\x06');
	var w = A.new;
	var b = w(1, 2);
	System.puti(x); System.putc(' ');
	System.puti(y); System.putc(' ');
	System.puti(z); System.putc(' ');
	System.puti(b.f + b.g);
}
`},
		{Name: "operators_b8_b15", Paper: "b8-b15", Want: "3 1 true false true false", Source: `
class A { }
class B extends A { }
def main() {
	var p = int.+;
	var m = int.-;
	var z = byte.==;
	var q = A.!=;
	var castBA = A.!<B>;
	var queryBA = B.?<A>;
	System.puti(p(1, 2)); System.putc(' ');
	System.puti(m(4, 3)); System.putc(' ');
	System.putb(z('a', 'a')); System.putc(' ');
	var a1 = A.new();
	System.putb(q(a1, a1)); System.putc(' ');
	var bb: A = B.new();
	System.putb(A.==(castBA(B.!(bb)), bb)); System.putc(' ');
	System.putb(queryBA(a1));
}
`},
		{Name: "tuples_c1_c6", Paper: "c1-c6", Want: "430atruetrue", Source: `
def swap(p: (int, int)) -> (int, int) {
	return (p.1, p.0);
}
def main() {
	var x: (int, int) = (0, 1);
	var y: (byte, bool) = ('a', true);
	var z: ((int, int), (byte, bool)) = (x, y);
	var w: (int) = x.0;
	var u: byte = (z.1.0);
	var v: () = ();
	var s = swap(3, 4);
	System.puti(s.0); System.puti(s.1);
	System.puti(w);
	System.putc(u);
	System.putb(x == (0, 1));
	System.putb((1, (2, 3)) == (1, (2, 3)));
}
`},
		{Name: "generic_list_d", Paper: "d1-d14", Want: "1 2 3 truefalsetrue", Source: `
class List<T> {
	var head: T;
	var tail: List<T>;
	new(head, tail) { }
}
def apply<A>(list: List<A>, f: A -> void) {
	for (l = list; l != null; l = l.tail) f(l.head);
}
def print(i: int) { System.puti(i); System.putc(' '); }
def main() {
	var a = List.new(1, List.new(2, List.new(3, null)));
	apply(a, print);
	var b = List.new((3, 4), null);
	System.putb(List<int>.?(a));
	System.putb(List<bool>.?(a));
	System.putb(List<(int, int)>.?(b));
}
`},
		{Name: "time_e", Paper: "e1-e5", Want: "36true", Source: `
def time<A, B>(func: A -> B, a: A) -> (B, int) {
	var start = clock.ticks();
	return (func(a), clock.ticks() - start);
}
def square(x: int) -> int { return x * x; }
def main() {
	var r = time(square, 6);
	System.puti(r.0);
	System.putb(r.1 > 0);
}
`},
		{Name: "interface_adapter_fg", Paper: "f1-g9", Want: "127099", Source: `
class Store(
	create: () -> int,
	load: int -> int,
	store: int -> ()) {
}
class Impl {
	var next: int;
	def create() -> int { next++; return next; }
	def load(k: int) -> int { return k * 10; }
	def store(r: int) { System.puti(r); }
	def adapt() -> Store {
		return Store.new(create, load, store);
	}
}
def main() {
	var s = Impl.new().adapt();
	System.puti(s.create());
	System.puti(s.create());
	System.puti(s.load(7));
	s.store(99);
}
`},
		{Name: "number_adt_h", Paper: "h1-h9", Want: "60true", Source: `
class NumberInterface<T>(
	add: (T, T) -> T,
	sub: (T, T) -> T,
	lt: (T, T) -> bool,
	one: T,
	zero: T) {
}
def sum3<T>(n: NumberInterface<T>, a: T, b: T, c: T) -> T {
	return n.add(n.add(a, b), c);
}
var IntInterface = NumberInterface.new(int.+, int.-, int.<, 1, 0);
def main() {
	System.puti(sum3(IntInterface, 10, 20, 30));
	System.putb(IntInterface.lt(IntInterface.zero, IntInterface.one));
}
`},
		{Name: "hashmap_i", Paper: "i1-i18", Want: "100200truefalse", Source: `
class HashMap<K, V> {
	def hash: K -> int;
	def equals: (K, K) -> bool;
	var keys: Array<K>;
	var vals: Array<V>;
	var used: Array<bool>;
	new(hash, equals) {
		keys = Array<K>.new(16);
		vals = Array<V>.new(16);
		used = Array<bool>.new(16);
	}
	def slot(key: K) -> int {
		var h = hash(key) % 16;
		if (h < 0) h = 0 - h;
		while (used[h] && !equals(keys[h], key)) h = (h + 1) % 16;
		return h;
	}
	def set(key: K, val: V) {
		var h = slot(key);
		keys[h] = key; vals[h] = val; used[h] = true;
	}
	def get(key: K) -> V {
		return vals[slot(key)];
	}
	def has(key: K) -> bool {
		return used[slot(key)];
	}
}
def idHash(x: int) -> int { return x; }
def pairHash(p: (int, int)) -> int { return p.0 * 31 + p.1; }
def main() {
	var m = HashMap<int, int>.new(idHash, int.==);
	m.set(1, 100);
	m.set(17, 200);
	System.puti(m.get(1));
	System.puti(m.get(17));
	var p = HashMap<(int, int), bool>.new(pairHash, (int, int).==);
	p.set((1, 2), true);
	System.putb(p.get(1, 2));
	System.putb(p.has(2, 1));
}
`},
		{Name: "print1_j", Paper: "j1-j9", Want: "42falsex", Source: `
def printInt(i: int) { System.puti(i); }
def printBool(b: bool) { System.putb(b); }
def printByte(b: byte) { System.putc(b); }
def print1<T>(a: T) {
	if (int.?(a)) printInt(int.!(a));
	if (bool.?(a)) printBool(bool.!(a));
	if (byte.?(a)) printByte(byte.!(a));
}
def main() {
	print1(42);
	print1(false);
	print1('x');
}
`},
		{Name: "matcher_km", Paper: "k1-m8", Want: "1true7,9", Source: `
class Any { }
class Box<T> extends Any {
	def val: T;
	new(val) { }
	def unbox() -> T { return val; }
}
class List<T> {
	var head: T;
	var tail: List<T>;
	new(head, tail) { }
}
class Matcher {
	var matches: List<Any>;
	def add<T>(f: T -> void) {
		matches = List.new(Box.new(f), matches);
	}
	def dispatch<T>(v: T) {
		for (l = matches; l != null; l = l.tail) {
			var f = l.head;
			if (Box<T -> void>.?(f)) {
				Box<T -> void>.!(f).unbox()(v);
				return;
			}
		}
	}
}
def printInt(i: int) { System.puti(i); }
def printBool(b: bool) { System.putb(b); }
def printPair(p: (int, int)) {
	System.puti(p.0); System.putc(','); System.puti(p.1);
}
def main() {
	var m = Matcher.new();
	m.add(printInt);
	m.add(printBool);
	m.add(printPair);
	m.dispatch(1);
	m.dispatch(true);
	m.dispatch(7, 9);
}
`},
		{Name: "variants_n", Paper: "n1-n20", Want: "+ab#a-atruetruefalse", Source: `
class Buffer {
	var count: int;
	def put(b: byte) { System.putc(b); count++; }
}
class Instr {
	def emit(buf: Buffer);
}
class InstrOf<T> extends Instr {
	var emitFunc: (Buffer, T) -> void;
	var val: T;
	new(emitFunc, val) { }
	def emit(buf: Buffer) {
		emitFunc(buf, val);
	}
}
def emitAdd(buf: Buffer, ops: (byte, byte)) {
	buf.put('+'); buf.put(ops.0); buf.put(ops.1);
}
def emitAddi(buf: Buffer, ops: (byte, int)) {
	buf.put('#'); buf.put(ops.0);
}
def emitNeg(buf: Buffer, r: byte) {
	buf.put('-'); buf.put(r);
}
def main() {
	var buf = Buffer.new();
	var i: Instr = InstrOf.new(emitAdd, ('a', 'b'));
	var j: Instr = InstrOf.new(emitAddi, ('a', -11));
	var k: Instr = InstrOf.new(emitNeg, 'a');
	i.emit(buf);
	j.emit(buf);
	k.emit(buf);
	System.putb(InstrOf<byte>.?(k));
	System.putb(InstrOf<(byte, byte)>.?(i));
	System.putb(InstrOf<(byte, byte)>.?(j));
}
`},
		{Name: "variance_o", Paper: "o1-o7", Want: "woof!woof!", Source: `
class Animal {
	def speak() { System.puts("...!"); }
}
class Bat extends Animal {
	def speak() { System.puts("woof!"); }
}
class List<T> {
	var head: T;
	var tail: List<T>;
	new(head, tail) { }
}
def apply<A>(list: List<A>, f: A -> void) {
	for (l = list; l != null; l = l.tail) f(l.head);
}
def g(a: Animal) { a.speak(); }
def main() {
	var b: List<Bat> = List.new(Bat.new(), List.new(Bat.new(), null));
	apply(b, g); // contravariance: Animal -> void <: Bat -> void
}
`},
		{Name: "override_ambiguity_p", Paper: "p10-p17", Want: "7 12 7 12", Source: `
class A {
	def m(a: int, b: int) -> int { return a + b; }
}
class B extends A {
	def m(a: (int, int)) -> int { return a.0 * a.1; }
}
def pick(z: bool) -> A {
	if (z) return A.new();
	return B.new();
}
def main() {
	var a = pick(true);
	var b = pick(false);
	System.puti(a.m(3, 4));
	System.putc(' ');
	System.puti(b.m(3, 4));
	var t = (3, 4);
	System.putc(' ');
	System.puti(a.m(t));
	System.putc(' ');
	System.puti(b.m(t));
}
`},
		{Name: "firstclass_ambiguity_p1", Paper: "p1-p8", Want: "7 30 7 30 6", Source: `
def f(a: int, b: int) -> int { return a - b; }
def g(a: (int, int)) -> int { return a.0 * a.1; }
def r<A>(a: A) -> int { return 6; }
def pick(z: bool) -> (int, int) -> int {
	if (z) return f;
	return g;
}
def main() {
	var x = pick(true);
	var y = pick(false);
	var t = (10, 3);
	System.puti(x(10, 3)); System.putc(' ');
	System.puti(y(10, 3)); System.putc(' ');
	System.puti(x(t)); System.putc(' ');
	System.puti(y(t)); System.putc(' ');
	var z: (int, int) -> int = r<(int, int)>;
	System.puti(z(0, 2));
}
`},
		{Name: "normalization_q", Paper: "q1-q8", Want: "hello15 goodbye15 cheers11 ", Source: `
def m(a: (string, int)) {
	System.puts(a.0); System.puti(a.1); System.putc(' ');
}
def f(v: void) { }
def main() {
	var b = ("hello", 15);
	m(b);
	m("goodbye", b.1);
	m("cheers", (11, 22).0);
	var t: void;
	f(t);
	f();
}
`},
		{Name: "arrays", Paper: "arrays", Want: "3043b", Source: `
def main() {
	var a = Array<int>.new(5);
	for (i = 0; i < a.length; i++) a[i] = i * i;
	var sum = 0;
	for (i = 0; i < a.length; i++) sum += a[i];
	System.puti(sum);
	var v = Array<void>.new(4);
	System.puti(v.length);
	v[1];
	var s = "abc";
	System.puti(s.length);
	System.putc(s[1]);
}
`},
		{Name: "array_of_tuples", Paper: "§4.2 arrays", Want: "1234 100", Source: `
def main() {
	var a = Array<(int, int)>.new(4);
	for (i = 0; i < a.length; i++) a[i] = (i + 1, (i + 1) * 10);
	for (i = 0; i < a.length; i++) {
		System.puti(a[i].0);
	}
	var sum = 0;
	for (i = 0; i < a.length; i++) sum += a[i].1;
	System.putc(' ');
	System.puti(sum);
}
`},
		{Name: "globals_ternary", Paper: "misc", Want: "3eq", Source: `
var counter: int;
def bump() -> int { counter++; return counter; }
var limit = 3;
def main() {
	while (bump() < limit) { }
	System.puti(counter);
	var s = counter == limit ? "eq" : "ne";
	System.puts(s);
}
`},
		{Name: "components", Paper: "§2 (System/clock are components)", Want: "3 6 10 done", Source: `
component Counter {
	var count: int;
	var total = 0;
	def bump(n: int) -> int {
		count++;
		total += n;
		return total;
	}
	def reset() { count = 0; total = 0; }
}
component Log {
	private def emit(s: string) { System.puts(s); }
	def say(s: string) { emit(s); }
}
def apply3(f: int -> int) {
	System.puti(f(3)); System.putc(' ');
	System.puti(f(3)); System.putc(' ');
	System.puti(f(4)); System.putc(' ');
}
def main() {
	apply3(Counter.bump);  // component function as a value
	Log.say("done");
	Counter.reset();
}
`},
		{Name: "render_footnote5", Paper: "§3.3 footnote 5", Want: "n=42 p=(3,-7) done", Source: `
class StringBuffer {
	var chars: Array<byte>;
	var len: int;
	new() { chars = Array<byte>.new(64); }
	def putc(c: byte) { chars[len] = c; len++; }
	def puts(s: string) { for (i = 0; i < s.length; i++) putc(s[i]); }
	def puti(v: int) {
		if (v == 0) { putc('0'); return; }
		if (v < 0) { putc('-'); v = 0 - v; }
		var digits = Array<byte>.new(10);
		var n = 0;
		while (v > 0) { digits[n] = byte.!(48 + v % 10); n++; v = v / 10; }
		while (n > 0) { n--; putc(digits[n]); }
	}
	def out() { for (i = 0; i < len; i++) System.putc(chars[i]); }
}
class Point {
	var x: int;
	var y: int;
	new(x, y) { }
	def render(b: StringBuffer) {
		b.putc('('); b.puti(x); b.putc(','); b.puti(y); b.putc(')');
	}
}
// Footnote 5: print accepts the standard primitive types and also
// functions of type StringBuffer -> void; objects pass their render
// method.
def print<T>(a: T) {
	var b = StringBuffer.new();
	if (int.?(a)) b.puti(int.!(a));
	if ((StringBuffer -> void).?(a)) (StringBuffer -> void).!(a)(b);
	if (string.?(a)) b.puts(string.!(a));
	b.out();
}
def main() {
	print("n=");
	print(42);
	print(" p=");
	var p = Point.new(3, -7);
	print(p.render);
	print(" done");
}
`},
		{Name: "sort_functional", Paper: "§5 (sort tuples by first element)", Want: "1 2 5 8 | (1,d) (3,a) (7,c) (9,b) ", Source: `
// §5: "the ability to quickly define a list of tuples and then sort
// them by, say, the first element, has been very convenient".
def sort<T>(a: Array<T>, lt: (T, T) -> bool) {
	for (i = 1; i < a.length; i++) {
		var v = a[i];
		var j = i;
		while (j > 0 && lt(v, a[j - 1])) {
			a[j] = a[j - 1];
			j--;
		}
		a[j] = v;
	}
}
def byFirst(a: (int, byte), b: (int, byte)) -> bool { return a.0 < b.0; }
def main() {
	var xs = Array<int>.new(4);
	xs[0] = 5; xs[1] = 2; xs[2] = 8; xs[3] = 1;
	sort(xs, int.<);
	for (i = 0; i < xs.length; i++) { System.puti(xs[i]); System.putc(' '); }
	System.puts("| ");
	var ps = Array<(int, byte)>.new(4);
	ps[0] = (3, 'a'); ps[1] = (9, 'b'); ps[2] = (7, 'c'); ps[3] = (1, 'd');
	sort(ps, byFirst);
	for (i = 0; i < ps.length; i++) {
		System.putc('('); System.puti(ps[i].0); System.putc(',');
		System.putc(ps[i].1); System.putc(')'); System.putc(' ');
	}
}
`},
		{Name: "apply_add_copy", Paper: "§3.6 (a.apply(b.add))", Want: "6 15", Source: `
// §3.6: "the call a.apply(b.add) copies the contents of HashMap a into
// HashMap b, without even writing a loop or burdening the library with
// another convenience method such as addAll".
class Bag {
	var items: Array<int>;
	var n: int;
	new() { items = Array<int>.new(16); }
	def add(x: int) { items[n] = x; n++; }
	def apply(f: int -> void) {
		for (i = 0; i < n; i++) f(items[i]);
	}
}
var total = 0;
def accum(x: int) { total += x; }
def main() {
	var a = Bag.new();
	a.add(1); a.add(2); a.add(3);
	var b = Bag.new();
	b.add(4); b.add(5);
	a.apply(b.add);     // copy a into b, no loop
	a.apply(accum);
	System.puti(total);
	System.putc(' ');
	total = 0;
	b.apply(accum);
	System.puti(total);
}
`},
		{Name: "enums", Paper: "§6.1 future work (implemented)", Want: "0 2 GREEN true false ok RED,GREEN,BLUE,", Source: `
enum Color { RED, GREEN, BLUE }
enum State { IDLE, RUN }
class Pixel {
	var c: Color;   // defaults to the first case
	new(c) { }
}
def describe<T>(x: T) -> string {
	if (Color.?(x)) return Color.!(x).name;
	if (State.?(x)) return State.!(x).name;
	return "?";
}
def each(f: Color -> void) {
	f(Color.RED); f(Color.GREEN); f(Color.BLUE);
}
var sep: Color;  // global default
def printColor(c: Color) { System.puts(c.name); System.putc(','); }
def main() {
	var r = Color.RED;
	var b = Color.BLUE;
	System.puti(r.tag); System.putc(' ');
	System.puti(b.tag); System.putc(' ');
	System.puts(describe(Color.GREEN)); System.putc(' ');
	System.putb(r == Color.RED); System.putc(' ');
	System.putb(r == b); System.putc(' ');
	var p = Pixel.new(Color.GREEN);
	if (p.c == Color.GREEN && sep == Color.RED) System.puts("ok ");
	each(printColor);
}
`},
		{Name: "void_fields", Paper: "§4.2 void", Want: "()ok", Source: `
class C {
	var v: void;
	var w: (void, void);
}
def main() {
	var c = C.new();
	c.v = ();
	c.w = ((), ());
	var x = c.v;
	System.puts("()ok");
}
`},
		{Name: "query_generic_parent", Paper: "§4.3 (queries on generic parents)", Want: "51113", Source: `
class Any { }
class Box<T> extends Any { }
class IntBox extends Box<int> { }
class Pair<A, B> extends Box<A> { }
def main() {
	var a = Array<Any>.new(5);
	a[0] = Any.new();
	a[1] = Box<int>.new();
	a[2] = Box<bool>.new();
	a[3] = IntBox.new();
	a[4] = Pair<int, bool>.new();
	var sum = 0;
	for (i = 0; i < a.length; i++) {
		var x = a[i];
		if (Box<int>.?(x)) sum = sum + 1;
		if (Box<bool>.?(x)) sum = sum + 10;
		if (IntBox.?(x)) sum = sum + 100;
		if (Pair<int, bool>.?(x)) sum = sum + 1000;
		if (Any.?(x)) sum = sum + 10000;
		if (Pair<bool, bool>.?(x)) sum = sum + 100000;
	}
	System.puti(sum);
}
`},
		churn(BenchClosureChurn(64), "1440"),
		churn(BenchObjectChurn(64), "2240"),
	}
}

// churn pins a bench workload into the corpus at a small iteration
// count with its expected checksum, so the differential and fuzz
// harnesses cover the allocation-churn shapes the analysis layer
// optimizes.
func churn(p Prog, want string) Prog {
	p.Want = want
	return p
}

// Get returns the corpus program with the given name.
func Get(name string) Prog {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	panic("testprogs: unknown program " + name)
}
