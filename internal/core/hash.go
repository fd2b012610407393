package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"repro/internal/ir"
	"repro/internal/src"
	"repro/internal/typecheck"
	"repro/internal/types"
)

// Content hashing for the artifact store. Three digests drive reuse:
//
//   - HashFiles: the whole source set. Equal hash → the previous
//     compilation is returned as-is (a whole-module hit).
//   - hashEnv: the global environment a function body compiles
//     against — class layouts, vtable shapes, globals, enum defs, and
//     the program entry points, all read off the lowered module. Any
//     type-level edit changes this hash and forces a full recompile;
//     function-body edits leave it untouched.
//   - hashFunc: one lowered function's post-check content. This is the
//     per-function artifact key: a function whose self-hash and
//     environment hash both match the previous compilation (and whose
//     callees, transitively, also match) reuses its compiled artifact.
//
// All three are structural walks, not dump-text hashes: they include
// exactly the fields later stages read (including source positions,
// which engines surface in traps) and nothing incidental.

// digest accumulates length-prefixed fields into a buffer and hashes
// it once at sum() — far cheaper than streaming tiny writes through a
// hash.Hash, and the buffer is reusable across functions. Adjacent
// strings can never collide by resegmentation.
type digest struct {
	buf []byte
	// typs memoizes Type.String() results. Types are interned per
	// compilation, so one module-wide map saves rebuilding the same
	// canonical strings for every instruction that mentions a type.
	// Optional: a nil map just recomputes.
	typs map[types.Type]string
	// ids interns types within one digest: the first mention of a type
	// writes its canonical string and assigns the next dense ID; later
	// mentions write only the ID. Identical walks assign identical IDs,
	// so the encoding is deterministic for identical content, and most
	// of a function's type bytes collapse to one varint each. Optional:
	// nil writes the full string every time (still deterministic).
	ids    map[types.Type]typeID
	epoch  int
	nextID int
	// posFile/posIdx carry position-decoding state between pos() calls:
	// the previous position's file (its name is run-length encoded — a
	// function's instructions all live in one file) and its resolved
	// line index, the hint that makes mostly-forward position walks O(1).
	posFile *src.File
	posIdx  int
}

// typeID is an interned type slot; epoch lets one map serve many
// digests without clearing between functions.
type typeID struct {
	epoch int
	id    int
}

func newDigest() *digest { return &digest{} }

// reset re-arms the digest for another hash, keeping its buffer and
// maps; interned type IDs from earlier hashes are invalidated by epoch.
func (d *digest) reset() {
	d.buf = d.buf[:0]
	d.epoch++
	d.nextID = 0
	// Position state must not leak across hashes: whether a pos writes
	// its file name depends on the previous pos, so each hash must start
	// from the same blank state to encode identical content identically.
	d.posFile = nil
	d.posIdx = 0
}

func (d *digest) int(v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	d.buf = append(d.buf, b[:n]...)
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

// typ hashes a type by its canonical string form (interned to a dense
// ID after first mention). Types are interned per compilation, so the
// string is the only stable cross-compilation identity. A leading tag
// keeps the string and ID encodings from aliasing.
func (d *digest) typ(t types.Type) {
	if t == nil {
		d.int(2)
		return
	}
	if tid, ok := d.ids[t]; ok && tid.epoch == d.epoch {
		d.int(1)
		d.int(int64(tid.id))
		return
	}
	d.int(0)
	s, ok := d.typs[t]
	if !ok {
		s = t.String()
		if d.typs != nil {
			d.typs[t] = s
		}
	}
	d.str(s)
	if d.ids != nil {
		// IDs are dense per epoch (not per map lifetime): the encoding of
		// one function must depend only on its own walk, never on how many
		// types earlier functions interned.
		d.ids[t] = typeID{epoch: d.epoch, id: d.nextID}
		d.nextID++
	}
}

func (d *digest) pos(p src.Pos) {
	if p.File == nil {
		d.str("∅")
		return
	}
	// file:line:col, not byte offset: a same-length edit can move line
	// boundaries without moving offsets, and engines report positions
	// in traps. The file name is run-length encoded — tag 1 means "same
	// name as the previous position", which repeats for every
	// instruction of a function. Name equality (not pointer equality)
	// keeps the encoding a pure function of content.
	hint := 0
	if d.posFile != nil && p.File.Name == d.posFile.Name {
		d.int(1)
		if p.File == d.posFile {
			hint = d.posIdx
		}
	} else {
		d.int(0)
		d.str(p.File.Name)
	}
	line, col, idx := p.File.LineColHint(p.Off, hint)
	d.posFile, d.posIdx = p.File, idx
	d.int(int64(line))
	d.int(int64(col))
}

func (d *digest) sum() [32]byte {
	return sha256.Sum256(d.buf)
}

// HashFiles digests the full source set, names included. It is the
// source half of every artifact key, and serve's program identity for
// routing and quarantine.
func HashFiles(files []File) [32]byte {
	d := newDigest()
	d.int(int64(len(files)))
	for _, f := range files {
		d.str(f.Name)
		d.str(f.Source)
	}
	return d.sum()
}

// hashFunc digests one lowered function: signature, type parameters,
// and every instruction field the later stages read. Register identity
// is hashed as (ID, type, name) — IDs are densely allocated in creation
// order by lowering, so equal walks imply equal register structure.
func hashFunc(f *ir.Func) [32]byte {
	d := newDigest()
	d.funcInto(f)
	return d.sum()
}

// funcInto writes one function's content into the (reset) digest.
func (d *digest) funcInto(f *ir.Func) {
	d.str(f.Name)
	d.int(int64(f.Kind))
	d.int(int64(f.VtSlot))
	d.int(int64(f.NumClassParams))
	if f.Class != nil {
		d.str(f.Class.Name)
	} else {
		d.str("∅")
	}
	d.int(int64(len(f.TypeParams)))
	for _, tp := range f.TypeParams {
		d.str(tp.Name)
		d.int(int64(tp.Index))
	}
	d.int(int64(len(f.Params)))
	for _, p := range f.Params {
		d.reg(p)
	}
	d.int(int64(len(f.Results)))
	for _, r := range f.Results {
		d.typ(r)
	}
	d.int(int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		d.int(int64(b.ID))
		d.int(int64(len(b.Instrs)))
		for _, in := range b.Instrs {
			d.instr(in)
		}
	}
}

func (d *digest) reg(r *ir.Reg) {
	if r == nil {
		d.str("∅")
		return
	}
	d.int(int64(r.ID))
	d.typ(r.Type)
	d.str(r.Name)
}

func (d *digest) instr(in *ir.Instr) {
	d.int(int64(in.Op))
	d.int(int64(len(in.Dst)))
	for _, r := range in.Dst {
		d.reg(r)
	}
	d.int(int64(len(in.Args)))
	for _, r := range in.Args {
		d.reg(r)
	}
	d.typ(in.Type)
	d.typ(in.Type2)
	if in.Fn != nil {
		d.str(in.Fn.Name)
	} else {
		d.str("∅")
	}
	if in.Global != nil {
		d.str(in.Global.Name)
	} else {
		d.str("∅")
	}
	d.int(int64(in.FieldSlot))
	d.int(in.IVal)
	d.str(in.SVal)
	d.int(int64(len(in.TypeArgs)))
	for _, t := range in.TypeArgs {
		d.typ(t)
	}
	d.int(int64(len(in.Blocks)))
	for _, b := range in.Blocks {
		d.int(int64(b.ID))
	}
	d.pos(in.Pos)
	d.bool(in.StackAlloc)
}

// hashEnv digests the global environment of the lowered module: the
// class forest (layouts, vtable shapes, depths), globals, enum defs,
// and entry points. Equal env hashes mean a function body that also
// self-hashes equal compiles to the same artifact: every cross-function
// fact later stages consult (field slots, vtable slots, global indices,
// enum cases, subtype structure) is pinned here.
func hashEnv(mod *ir.Module, prog *typecheck.Program) [32]byte {
	d := newDigest()
	d.int(int64(len(mod.Classes)))
	for _, c := range mod.Classes {
		d.str(c.Name)
		if c.Def != nil {
			d.str(c.Def.Name)
		} else {
			d.str("∅")
		}
		d.int(int64(len(c.Args)))
		for _, a := range c.Args {
			d.typ(a)
		}
		if c.Parent != nil {
			d.str(c.Parent.Name)
		} else {
			d.str("∅")
		}
		d.int(int64(c.Depth))
		d.int(int64(len(c.TypeParams)))
		for _, tp := range c.TypeParams {
			d.str(tp.Name)
		}
		d.int(int64(len(c.Fields)))
		for _, f := range c.Fields {
			d.str(f.Name)
			d.typ(f.Type)
		}
		d.int(int64(len(c.Vtable)))
		for _, m := range c.Vtable {
			if m != nil {
				d.str(m.Name)
			} else {
				d.str("∅")
			}
		}
	}
	d.int(int64(len(mod.Globals)))
	for _, g := range mod.Globals {
		d.str(g.Name)
		d.typ(g.Type)
		d.int(int64(g.Index))
	}
	// Enum defs come from the checked program: the lowered module only
	// mentions enums through types, but a case rename or reorder changes
	// tag values everywhere.
	var enums []*typecheck.EnumSym
	enums = append(enums, prog.Enums...)
	sort.Slice(enums, func(i, j int) bool { return enums[i].Name < enums[j].Name })
	d.int(int64(len(enums)))
	for _, e := range enums {
		d.str(e.Name)
		d.int(int64(len(e.Def.Cases)))
		for _, cs := range e.Def.Cases {
			d.str(cs)
		}
	}
	if mod.Main != nil {
		d.str(mod.Main.Name)
	} else {
		d.str("∅")
	}
	if mod.Init != nil {
		d.str(mod.Init.Name)
	} else {
		d.str("∅")
	}
	return d.sum()
}

// hashLoweredFuncs self-hashes every function of the lowered module,
// sharing one digest (buffer, type-string memo, intern map) across the
// walk. A duplicate name (which would make name-keyed reuse ambiguous)
// returns ok=false; the caller falls back to a full compile.
func hashLoweredFuncs(mod *ir.Module) (map[string][32]byte, bool) {
	m := make(map[string][32]byte, len(mod.Funcs))
	d := newDigest()
	d.typs = make(map[types.Type]string)
	d.ids = make(map[types.Type]typeID)
	for _, f := range mod.Funcs {
		if _, dup := m[f.Name]; dup {
			return nil, false
		}
		d.reset()
		d.funcInto(f)
		m[f.Name] = d.sum()
	}
	return m, true
}
