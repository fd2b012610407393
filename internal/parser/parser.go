// Package parser implements a recursive-descent parser for Virgil-core.
//
// The grammar follows the paper's examples: class declarations in the
// Scala-like style (a1-a10), tuple expressions and types (c1-c6),
// function types with -> (§2.2), member operators (b8-b15), and explicit
// type arguments with <...> (d10-d12). The classic `<` ambiguity between
// less-than and type arguments is resolved by speculative parsing with
// backtracking.
package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/src"
	"repro/internal/token"
)

// Parser parses one file. Create with New, then call ParseFile.
type Parser struct {
	file   *src.File
	errs   *src.ErrorList
	toks   []token.Token
	i      int
	halfGt bool // a Shr token is half-consumed as '>'
	spec   int  // >0 while speculatively parsing (errors suppressed)
	// depth counts active recursive parse calls; tooDeep latches once
	// the limit is hit, aborting the parse with a diagnostic instead of
	// exhausting the (unrecoverable) Go stack on adversarial nesting.
	depth   int
	tooDeep bool
}

// maxNestingDepth bounds recursive-descent depth. Legitimate programs
// nest a few dozen levels; adversarial inputs nest tens of thousands,
// which would otherwise hit the Go runtime's fatal stack limit (and,
// with speculative backtracking, superlinear reparse times).
const maxNestingDepth = 500

// exceeded reports whether parsing should abort due to over-deep
// nesting. Once latched it stays true so every in-flight recursion
// unwinds promptly; ParseFile reports the diagnostic exactly once
// (errorf during speculation would be discarded by reset).
func (p *Parser) exceeded() bool {
	if p.tooDeep || p.depth > maxNestingDepth {
		p.tooDeep = true
		return true
	}
	return false
}

// tokenCapacity is the token slice New reserves for n bytes of source.
// Growing a zero-cap slice to a whole file's worth of tokens costs more
// in growslice copies than the lexing itself, so the reservation must
// cover the whole file. Tokens average 2.51 bytes of source on the
// paper corpus (2.02 in its densest program) and 2.54-2.57 on progen
// Scale 1-8, so half a token per byte plus a small margin covers every
// file measured (TestTokenCapacityCoversSources).
func tokenCapacity(n int) int { return n/2 + 16 }

// New lexes the whole file and returns a parser over its tokens.
func New(file *src.File, errs *src.ErrorList) *Parser {
	lx := lexer.New(file, errs)
	toks := make([]token.Token, 0, tokenCapacity(len(file.Content)))
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return &Parser{file: file, errs: errs, toks: toks}
}

// Parse is a convenience that parses source text into a file.
func Parse(name, content string, errs *src.ErrorList) *ast.File {
	f := src.NewFile(name, content)
	return New(f, errs).ParseFile()
}

type mark struct {
	i      int
	halfGt bool
	nerr   int
}

func (p *Parser) mark() mark { return mark{p.i, p.halfGt, p.errs.Len()} }

func (p *Parser) reset(m mark) {
	p.i, p.halfGt = m.i, m.halfGt
	p.errs.Errors = p.errs.Errors[:m.nerr]
}

func (p *Parser) cur() token.Token {
	t := p.toks[p.i]
	if p.halfGt && t.Kind == token.Shr {
		return token.Token{Kind: token.Gt, Off: t.Off + 1}
	}
	return t
}

func (p *Parser) kind() token.Kind { return p.cur().Kind }

func (p *Parser) next() {
	if p.i < len(p.toks)-1 {
		p.i++
	}
	p.halfGt = false
}

func (p *Parser) pos() src.Pos { return src.Pos{File: p.file, Off: p.cur().Off} }

func (p *Parser) errorf(format string, args ...any) {
	if p.spec > 0 {
		// During speculation a sentinel error is still recorded so the
		// speculation can detect failure; reset() will discard it.
		p.errs.Add(p.pos(), format, args...)
		return
	}
	p.errs.Add(p.pos(), format, args...)
}

func (p *Parser) expect(k token.Kind) token.Token {
	t := p.cur()
	if t.Kind != k {
		p.errorf("expected %s, found %s", k, t)
		return token.Token{Kind: k, Off: t.Off}
	}
	p.next()
	return t
}

// acceptGt consumes one '>' in a type-argument context, splitting a '>>'
// token into two halves when necessary (List<List<int>>).
func (p *Parser) acceptGt() bool {
	t := p.toks[p.i]
	if p.halfGt {
		if t.Kind == token.Shr {
			p.next()
			return true
		}
		return false
	}
	switch t.Kind {
	case token.Gt:
		p.next()
		return true
	case token.Shr:
		p.halfGt = true
		return true
	}
	return false
}

func (p *Parser) ident() ast.Ident {
	t := p.cur()
	if t.Kind != token.IDENT {
		p.errorf("expected identifier, found %s", t)
		return ast.Ident{Name: "", Off: p.pos()}
	}
	p.next()
	return ast.Ident{Name: t.Lit, Off: src.Pos{File: p.file, Off: t.Off}}
}

// ParseFile parses the whole compilation unit.
func (p *Parser) ParseFile() *ast.File {
	f := &ast.File{Source: p.file}
	baseErr := p.errs.Len()
	for p.kind() != token.EOF && !p.tooDeep {
		before := p.i
		d := p.parseDecl()
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.i == before {
			// Ensure progress on malformed input.
			p.next()
		}
	}
	if p.tooDeep {
		// The abort unwinds through every in-flight production, each of
		// which records a cascade error; drop those and report the root
		// cause alone. (Added outside any speculation so reset() cannot
		// discard it.)
		p.errs.Errors = p.errs.Errors[:baseErr]
		p.errs.Add(p.pos(), "nesting too deep (limit %d); aborting parse", maxNestingDepth)
	}
	return f
}

func (p *Parser) parseDecl() ast.Decl {
	switch p.kind() {
	case token.KwClass:
		return p.parseClass()
	case token.KwComponent:
		return p.parseComponent()
	case token.KwEnum:
		return p.parseEnum()
	case token.KwDef, token.KwVar:
		return p.parseTopDefOrVar()
	case token.KwPrivate:
		p.next()
		if p.kind() == token.KwDef {
			d := p.parseTopDefOrVar()
			if m, ok := d.(*ast.MethodDecl); ok {
				m.Private = true
			}
			return d
		}
		p.errorf("expected def after private")
		return nil
	default:
		p.errorf("expected declaration, found %s", p.cur())
		return nil
	}
}

func (p *Parser) parseTypeParams() []*ast.TypeParamDecl {
	if p.kind() != token.Lt {
		return nil
	}
	p.next()
	var out []*ast.TypeParamDecl
	for {
		out = append(out, &ast.TypeParamDecl{Name: p.ident()})
		if p.kind() == token.Comma {
			p.next()
			continue
		}
		break
	}
	if !p.acceptGt() {
		p.errorf("expected > to close type parameters")
	}
	return out
}

func (p *Parser) parseParams(allowBare bool) []*ast.Param {
	p.expect(token.LParen)
	var out []*ast.Param
	if p.kind() != token.RParen {
		for {
			prm := &ast.Param{Name: p.ident()}
			if p.kind() == token.Colon {
				p.next()
				prm.Type = p.parseType()
			} else if !allowBare {
				p.errorf("parameter %s requires a type", prm.Name.Name)
			}
			out = append(out, prm)
			if p.kind() == token.Comma {
				p.next()
				continue
			}
			break
		}
	}
	p.expect(token.RParen)
	return out
}

func (p *Parser) parseClass() ast.Decl {
	p.expect(token.KwClass)
	d := &ast.ClassDecl{Name: p.ident()}
	d.TypeParams = p.parseTypeParams()
	if p.kind() == token.LParen {
		d.CtorParams = p.parseParams(false)
	}
	if p.kind() == token.KwExtends {
		p.next()
		d.Extends = p.parseType()
	}
	p.expect(token.LBrace)
	for p.kind() != token.RBrace && p.kind() != token.EOF {
		before := p.i
		m := p.parseClassMember()
		if m != nil {
			d.Members = append(d.Members, m)
		}
		if p.i == before {
			p.next()
		}
	}
	p.expect(token.RBrace)
	return d
}

// parseEnum parses `enum Name { CASE0, CASE1, ... }`.
func (p *Parser) parseEnum() ast.Decl {
	p.expect(token.KwEnum)
	d := &ast.EnumDecl{Name: p.ident()}
	p.expect(token.LBrace)
	if p.kind() != token.RBrace {
		for {
			d.Cases = append(d.Cases, p.ident())
			if p.kind() == token.Comma {
				p.next()
				continue
			}
			break
		}
	}
	p.expect(token.RBrace)
	return d
}

// parseComponent parses `component Name { members }`. Component members
// are fields and functions; constructors and inheritance are not
// allowed.
func (p *Parser) parseComponent() ast.Decl {
	p.expect(token.KwComponent)
	d := &ast.ComponentDecl{Name: p.ident()}
	p.expect(token.LBrace)
	for p.kind() != token.RBrace && p.kind() != token.EOF {
		before := p.i
		m := p.parseClassMember()
		if m != nil {
			if _, isCtor := m.(*ast.CtorDecl); isCtor {
				p.errorf("components cannot declare constructors")
			} else {
				d.Members = append(d.Members, m)
			}
		}
		if p.i == before {
			p.next()
		}
	}
	p.expect(token.RBrace)
	return d
}

func (p *Parser) parseClassMember() ast.Member {
	private := false
	if p.kind() == token.KwPrivate {
		private = true
		p.next()
	}
	switch p.kind() {
	case token.KwNew:
		np := p.pos()
		p.next()
		c := &ast.CtorDecl{NewPos: np, Params: p.parseParams(true)}
		if p.kind() == token.KwSuper {
			p.next()
			c.HasSuper = true
			p.expect(token.LParen)
			if p.kind() != token.RParen {
				for {
					c.SuperArgs = append(c.SuperArgs, p.parseExpr())
					if p.kind() == token.Comma {
						p.next()
						continue
					}
					break
				}
			}
			p.expect(token.RParen)
		}
		c.Body = p.parseBlock()
		return c
	case token.KwVar:
		p.next()
		f := &ast.FieldDecl{Mutable: true, Name: p.ident()}
		p.parseFieldTail(f)
		return f
	case token.KwDef:
		p.next()
		name := p.ident()
		// `def m<T>(...)` or `def m(...)` is a method; `def f: T;` or
		// `def f = e;` is an immutable field.
		if p.kind() == token.Lt || p.kind() == token.LParen {
			m := &ast.MethodDecl{Private: private, Name: name}
			m.TypeParams = p.parseTypeParams()
			m.Params = p.parseParams(false)
			if p.kind() == token.Arrow {
				p.next()
				m.RetType = p.parseType()
			}
			if p.kind() == token.Semi {
				p.next() // abstract method (paper n2)
			} else {
				m.Body = p.parseBlock()
			}
			return m
		}
		f := &ast.FieldDecl{Mutable: false, Name: name}
		p.parseFieldTail(f)
		return f
	}
	p.errorf("expected class member, found %s", p.cur())
	return nil
}

func (p *Parser) parseFieldTail(f *ast.FieldDecl) {
	if p.kind() == token.Colon {
		p.next()
		f.Type = p.parseType()
	}
	if p.kind() == token.Assign {
		p.next()
		f.Init = p.parseExpr()
	}
	p.expect(token.Semi)
}

func (p *Parser) parseTopDefOrVar() ast.Decl {
	mutable := p.kind() == token.KwVar
	p.next()
	name := p.ident()
	if !mutable && (p.kind() == token.Lt || p.kind() == token.LParen) {
		m := &ast.MethodDecl{Name: name}
		m.TypeParams = p.parseTypeParams()
		m.Params = p.parseParams(false)
		if p.kind() == token.Arrow {
			p.next()
			m.RetType = p.parseType()
		}
		m.Body = p.parseBlock()
		return m
	}
	v := &ast.VarDecl{Mutable: mutable, Name: name}
	if p.kind() == token.Colon {
		p.next()
		v.Type = p.parseType()
	}
	if p.kind() == token.Assign {
		p.next()
		v.Init = p.parseExpr()
	}
	p.expect(token.Semi)
	return v
}

// ---------------------------------------------------------------- types

// parseType parses a type reference: atom ('->' type)? (right assoc).
func (p *Parser) parseType() ast.TypeRef {
	p.depth++
	defer func() { p.depth-- }()
	if p.exceeded() {
		return &ast.NamedTypeRef{Name: ast.Ident{Name: "void", Off: p.pos()}}
	}
	t := p.parseTypeAtom()
	if t == nil {
		return &ast.NamedTypeRef{Name: ast.Ident{Name: "void", Off: p.pos()}}
	}
	if p.kind() == token.Arrow {
		p.next()
		ret := p.parseType()
		return &ast.FuncTypeRef{Param: t, Ret: ret}
	}
	return t
}

func (p *Parser) parseTypeAtom() ast.TypeRef {
	switch p.kind() {
	case token.LParen:
		lp := p.pos()
		p.next()
		var elems []ast.TypeRef
		if p.kind() != token.RParen {
			for {
				elems = append(elems, p.parseType())
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
		}
		p.expect(token.RParen)
		if len(elems) == 1 {
			return elems[0] // (T) == T
		}
		return &ast.TupleTypeRef{LPos: lp, Elems: elems}
	case token.IDENT:
		name := p.ident()
		ref := &ast.NamedTypeRef{Name: name}
		if p.kind() == token.Lt {
			p.next()
			for {
				ref.Args = append(ref.Args, p.parseType())
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
			if !p.acceptGt() {
				p.errorf("expected > to close type arguments")
			}
		}
		return ref
	}
	p.errorf("expected type, found %s", p.cur())
	return nil
}

// tryTypeArgs speculatively parses `<T, ...>` at the current position.
// It commits only when the closing '>' is followed by a token that can
// legitimately follow an expression with type arguments; otherwise the
// parser backtracks and nil is returned so '<' parses as less-than.
func (p *Parser) tryTypeArgs() []ast.TypeRef {
	if p.kind() != token.Lt {
		return nil
	}
	m := p.mark()
	p.spec++
	p.next()
	var args []ast.TypeRef
	ok := true
	for {
		t := p.parseTypeAtomSpec()
		if t == nil {
			ok = false
			break
		}
		if p.kind() == token.Arrow {
			p.next()
			ret := p.parseTypeSpec()
			if ret == nil {
				ok = false
				break
			}
			t = &ast.FuncTypeRef{Param: t, Ret: ret}
		}
		args = append(args, t)
		if p.kind() == token.Comma {
			p.next()
			continue
		}
		break
	}
	if ok {
		ok = p.acceptGt()
	}
	if ok && p.errs.Len() > m.nerr {
		ok = false
	}
	if ok {
		switch p.kind() {
		case token.LParen, token.Dot, token.Comma, token.RParen, token.Semi,
			token.RBracket, token.RBrace, token.Colon, token.EOF:
			p.spec--
			return args
		}
	}
	p.spec--
	p.reset(m)
	return nil
}

func (p *Parser) parseTypeSpec() ast.TypeRef {
	t := p.parseTypeAtomSpec()
	if t == nil {
		return nil
	}
	if p.kind() == token.Arrow {
		p.next()
		ret := p.parseTypeSpec()
		if ret == nil {
			return nil
		}
		return &ast.FuncTypeRef{Param: t, Ret: ret}
	}
	return t
}

// parseTypeAtomSpec is parseTypeAtom that returns nil instead of
// reporting an error, for use during speculation.
func (p *Parser) parseTypeAtomSpec() ast.TypeRef {
	switch p.kind() {
	case token.LParen:
		lp := p.pos()
		p.next()
		var elems []ast.TypeRef
		if p.kind() != token.RParen {
			for {
				t := p.parseTypeSpec()
				if t == nil {
					return nil
				}
				elems = append(elems, t)
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
		}
		if p.kind() != token.RParen {
			return nil
		}
		p.next()
		if len(elems) == 1 {
			return elems[0]
		}
		return &ast.TupleTypeRef{LPos: lp, Elems: elems}
	case token.IDENT:
		name := p.ident()
		ref := &ast.NamedTypeRef{Name: name}
		if p.kind() == token.Lt {
			p.next()
			for {
				t := p.parseTypeSpec()
				if t == nil {
					return nil
				}
				ref.Args = append(ref.Args, t)
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
			if !p.acceptGt() {
				return nil
			}
		}
		return ref
	}
	return nil
}

// ---------------------------------------------------------------- stmts

func (p *Parser) parseBlock() *ast.Block {
	b := &ast.Block{LPos: p.pos()}
	p.expect(token.LBrace)
	for p.kind() != token.RBrace && p.kind() != token.EOF {
		before := p.i
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.i == before {
			p.next()
		}
	}
	p.expect(token.RBrace)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	p.depth++
	defer func() { p.depth-- }()
	if p.exceeded() {
		return &ast.EmptyStmt{SemiPos: p.pos()}
	}
	switch p.kind() {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		s := &ast.EmptyStmt{SemiPos: p.pos()}
		p.next()
		return s
	case token.KwIf:
		ip := p.pos()
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		then := p.parseStmt()
		var els ast.Stmt
		if p.kind() == token.KwElse {
			p.next()
			els = p.parseStmt()
		}
		return &ast.IfStmt{IfPos: ip, Cond: cond, Then: then, Else: els}
	case token.KwWhile:
		wp := p.pos()
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		return &ast.WhileStmt{WhilePos: wp, Cond: cond, Body: p.parseStmt()}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		rp := p.pos()
		p.next()
		var v ast.Expr
		if p.kind() != token.Semi {
			v = p.parseExpr()
		}
		p.expect(token.Semi)
		return &ast.ReturnStmt{RetPos: rp, Value: v}
	case token.KwBreak:
		s := &ast.BreakStmt{BrkPos: p.pos()}
		p.next()
		p.expect(token.Semi)
		return s
	case token.KwContinue:
		s := &ast.ContinueStmt{ContPos: p.pos()}
		p.next()
		p.expect(token.Semi)
		return s
	case token.KwVar, token.KwDef:
		return p.parseLocals()
	}
	e := p.parseExpr()
	p.expect(token.Semi)
	return &ast.ExprStmt{E: e}
}

// parseLocals parses `var a = 1, b = 2;` into a Block of LocalDecls when
// several declarators appear, or a single LocalDecl.
func (p *Parser) parseLocals() ast.Stmt {
	mutable := p.kind() == token.KwVar
	p.next()
	var decls []ast.Stmt
	for {
		d := &ast.LocalDecl{Mutable: mutable, Name: p.ident()}
		if p.kind() == token.Colon {
			p.next()
			d.Type = p.parseType()
		}
		if p.kind() == token.Assign {
			p.next()
			d.Init = p.parseExpr()
		}
		decls = append(decls, d)
		if p.kind() == token.Comma {
			p.next()
			continue
		}
		break
	}
	p.expect(token.Semi)
	if len(decls) == 1 {
		return decls[0]
	}
	return &ast.Block{LPos: decls[0].Pos(), Stmts: decls, DeclGroup: true}
}

func (p *Parser) parseFor() ast.Stmt {
	fp := p.pos()
	p.expect(token.KwFor)
	p.expect(token.LParen)
	s := &ast.ForStmt{ForPos: fp}
	if p.kind() != token.Semi {
		s.Var = p.ident()
		if p.kind() == token.Assign {
			p.next()
			s.Init = p.parseExpr()
		} else {
			p.errorf("expected = in for-loop variable binding")
		}
	}
	p.expect(token.Semi)
	if p.kind() != token.Semi {
		s.Cond = p.parseExpr()
	}
	p.expect(token.Semi)
	if p.kind() != token.RParen {
		s.Post = p.parseExpr()
	}
	p.expect(token.RParen)
	s.Body = p.parseStmt()
	return s
}

// ---------------------------------------------------------------- exprs

// parseExpr parses a full expression, including assignment.
func (p *Parser) parseExpr() ast.Expr {
	p.depth++
	defer func() { p.depth-- }()
	if p.exceeded() {
		return &ast.NullLit{LitPos: p.pos()}
	}
	e := p.parseTernary()
	switch p.kind() {
	case token.Assign, token.AddEq, token.SubEq:
		op := p.kind()
		p.next()
		v := p.parseExpr()
		return &ast.AssignExpr{Op: op, Target: e, Value: v}
	}
	return e
}

func (p *Parser) parseTernary() ast.Expr {
	cond := p.parseBinary(0)
	if p.kind() != token.Question {
		return cond
	}
	p.next()
	then := p.parseTernary()
	p.expect(token.Colon)
	els := p.parseTernary()
	return &ast.TernaryExpr{Cond: cond, Then: then, Els: els}
}

// binary operator precedence levels, loosest first.
var precLevels = [][]token.Kind{
	{token.OrOr},
	{token.AndAnd},
	{token.Or},
	{token.Xor},
	{token.And},
	{token.Eq, token.Neq},
	{token.Lt, token.Gt, token.Le, token.Ge},
	{token.Shl, token.Shr},
	{token.Add, token.Sub},
	{token.Mul, token.Div, token.Mod},
}

func (p *Parser) parseBinary(level int) ast.Expr {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	e := p.parseBinary(level + 1)
	for {
		k := p.kind()
		matched := false
		for _, op := range precLevels[level] {
			if k == op {
				matched = true
				break
			}
		}
		if !matched {
			return e
		}
		opPos := p.pos()
		p.next()
		r := p.parseBinary(level + 1)
		e = &ast.BinaryExpr{Op: k, OpPos: opPos, L: e, R: r}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.kind() {
	case token.Sub, token.Not:
		op := p.kind()
		opPos := p.pos()
		p.next()
		e := p.parseUnary()
		return &ast.UnaryExpr{Op: op, OpPos: opPos, E: e}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	e := p.parsePrimary()
	for {
		switch p.kind() {
		case token.Dot:
			p.next()
			e = p.parseMember(e)
		case token.LParen:
			p.next()
			var args []ast.Expr
			if p.kind() != token.RParen {
				for {
					args = append(args, p.parseExpr())
					if p.kind() == token.Comma {
						p.next()
						continue
					}
					break
				}
			}
			p.expect(token.RParen)
			e = &ast.CallExpr{Fn: e, Args: args}
		case token.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			e = &ast.IndexExpr{Arr: e, Idx: idx}
		case token.Inc, token.Dec:
			inc := p.kind() == token.Inc
			p.next()
			e = &ast.IncDecExpr{Inc: inc, Target: e}
		default:
			return e
		}
	}
}

// operator member spellings legal after '.': the four universal
// operators plus arithmetic/comparison/bitwise operators on primitives.
var opMembers = map[token.Kind]bool{
	token.Eq: true, token.Neq: true, token.Not: true, token.Question: true,
	token.Add: true, token.Sub: true, token.Mul: true, token.Div: true,
	token.Mod: true, token.Lt: true, token.Gt: true, token.Le: true,
	token.Ge: true, token.Shl: true, token.Shr: true, token.And: true,
	token.Or: true, token.Xor: true,
}

func (p *Parser) parseMember(recv ast.Expr) ast.Expr {
	t := p.cur()
	switch {
	case t.Kind == token.IDENT:
		name := p.ident()
		m := &ast.MemberExpr{Recv: recv, Name: name}
		m.TypeArgs = p.tryTypeArgs()
		return m
	case t.Kind == token.KwNew:
		np := p.pos()
		p.next()
		return &ast.MemberExpr{Recv: recv, Name: ast.Ident{Name: "new", Off: np}}
	case t.Kind == token.INT:
		// Tuple element access v.0; also v.1.0 lexes `.` INT `.` INT.
		np := p.pos()
		p.next()
		return &ast.MemberExpr{Recv: recv, Name: ast.Ident{Name: t.Lit, Off: np}}
	case opMembers[t.Kind]:
		np := p.pos()
		p.next()
		m := &ast.MemberExpr{Recv: recv, Name: ast.Ident{Name: t.Kind.String(), Off: np}, OpToken: t.Kind}
		// Operators may take explicit type args: A.!<B> (b14-15). A '<'
		// after an operator member is always type arguments: `x.! < y`
		// would be a cast missing its operand, which is meaningless.
		if p.kind() == token.Lt {
			p.next()
			for {
				m.TypeArgs = append(m.TypeArgs, p.parseType())
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
			if !p.acceptGt() {
				p.errorf("expected > to close type arguments")
			}
		}
		return m
	}
	p.errorf("expected member name after '.', found %s", t)
	p.next()
	return recv
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			p.errorf("invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{LitPos: src.Pos{File: p.file, Off: t.Off}, Value: v}
	case token.CHAR:
		p.next()
		var b byte
		if len(t.Lit) > 0 {
			b = t.Lit[0]
		}
		return &ast.ByteLit{LitPos: src.Pos{File: p.file, Off: t.Off}, Value: b}
	case token.STRING:
		p.next()
		return &ast.StrLit{LitPos: src.Pos{File: p.file, Off: t.Off}, Value: t.Lit}
	case token.KwTrue, token.KwFalse:
		p.next()
		return &ast.BoolLit{LitPos: src.Pos{File: p.file, Off: t.Off}, Value: t.Kind == token.KwTrue}
	case token.KwNull:
		p.next()
		return &ast.NullLit{LitPos: src.Pos{File: p.file, Off: t.Off}}
	case token.KwThis:
		p.next()
		return &ast.ThisExpr{LitPos: src.Pos{File: p.file, Off: t.Off}}
	case token.IDENT:
		name := p.ident()
		r := &ast.VarRef{Name: name}
		r.TypeArgs = p.tryTypeArgs()
		return r
	case token.LParen:
		lp := p.pos()
		// Speculate: a parenthesized FUNCTION type used as an operator
		// receiver, e.g. (StringBuffer -> void).?(x). Only function
		// types commit here; bare names and tuples stay expressions and
		// are classified by the checker.
		m := p.mark()
		p.spec++
		p.next()
		tref := p.parseTypeSpec()
		if ft, ok := tref.(*ast.FuncTypeRef); ok && p.kind() == token.RParen {
			p.next()
			if p.kind() == token.Dot && p.errs.Len() == m.nerr {
				p.spec--
				return &ast.TypeExpr{Ref: ft}
			}
		}
		p.spec--
		p.reset(m)
		p.next()
		var elems []ast.Expr
		if p.kind() != token.RParen {
			for {
				elems = append(elems, p.parseExpr())
				if p.kind() == token.Comma {
					p.next()
					continue
				}
				break
			}
		}
		p.expect(token.RParen)
		if len(elems) == 1 {
			return elems[0] // (e) == e
		}
		return &ast.TupleExpr{LPos: lp, Elems: elems}
	}
	p.errorf("expected expression, found %s", t)
	p.next()
	return &ast.NullLit{LitPos: src.Pos{File: p.file, Off: t.Off}}
}
