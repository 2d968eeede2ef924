// Package parser builds an MF abstract syntax tree from source text.
//
// The grammar is line-oriented recursive descent:
//
//	file       = unit { unit } .
//	unit       = ("program" ident | "subroutine" ident "(" [params] ")") NL
//	             { decl NL } { stmt NL } "end" NL .
//	decl       = ("integer"|"real") item { "," item }
//	           | "parameter" ident "=" expr .
//	item       = ident [ "(" bounds { "," bounds } ")" ] .
//	bounds     = expr [ ":" expr ] .
//	stmt       = assign | if | do | while | call | print | return .
//	assign     = ident [ "(" expr { "," expr } ")" ] "=" expr .
//	if         = "if" "(" expr ")" "then" NL block
//	             { "elseif" "(" expr ")" "then" NL block }
//	             [ "else" NL block ] "endif"
//	           | "if" "(" expr ")" simple-stmt .
//	do         = "do" ident "=" expr "," expr [ "," expr ] NL block "enddo" .
//	while      = "while" "(" expr ")" NL block "endwhile" .
//	expr       = or-expr with Fortran-like precedence:
//	             or < and < not < comparison < add < mul < unary .
package parser

import (
	"strconv"

	"nascent/internal/ast"
	"nascent/internal/chaos"
	"nascent/internal/lexer"
	"nascent/internal/source"
	"nascent/internal/token"
)

// Parse parses src (with file name for diagnostics) into an AST. Errors
// are accumulated; the returned file covers whatever parsed successfully.
func Parse(filename, src string) (*ast.File, error) {
	if chaos.Active() {
		if err := chaos.InjectError(chaos.SiteParseError, chaos.SourceKey(src)); err != nil {
			return &ast.File{Name: filename}, err
		}
	}
	var errs source.ErrorList
	p := &parser{toks: lexer.NewStream(src, &errs), errs: &errs}
	p.cur = p.toks.Next()
	file := &ast.File{Name: filename}
	p.skipNewlines()
	for !p.at(token.EOF) {
		u := p.parseUnit()
		if u != nil {
			file.Units = append(file.Units, u)
		}
		p.skipNewlines()
	}
	return file, errs.Err()
}

// parser pulls tokens from the lexer one at a time: the grammar needs
// exactly one token of lookahead, cur.
type parser struct {
	toks  lexer.Stream
	cur   lexer.Token
	errs  *source.ErrorList
	depth int // open parenthesized groups; see maxNesting
}

func (p *parser) tok() lexer.Token     { return p.cur }
func (p *parser) at(k token.Kind) bool { return p.cur.Kind == k }

func (p *parser) next() lexer.Token {
	t := p.cur
	if t.Kind != token.EOF {
		p.cur = p.toks.Next()
	}
	return t
}

func (p *parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.next()
	}
	t := p.tok()
	p.errs.Add(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	return t
}

func (p *parser) skipNewlines() {
	for p.at(token.Newline) {
		p.next()
	}
}

// endOfStmt consumes the newline terminating a statement, recovering by
// skipping to the next newline if trailing tokens remain.
func (p *parser) endOfStmt() {
	if p.at(token.Newline) {
		p.next()
		return
	}
	if p.at(token.EOF) {
		return
	}
	t := p.tok()
	p.errs.Add(t.Pos, "unexpected %s %q at end of statement", t.Kind, t.Text)
	for !p.at(token.Newline) && !p.at(token.EOF) {
		p.next()
	}
	if p.at(token.Newline) {
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Units and declarations

func (p *parser) parseUnit() *ast.Unit {
	t := p.tok()
	switch t.Kind {
	case token.KwProgram:
		p.next()
		name := p.expect(token.Ident)
		p.endOfStmt()
		u := &ast.Unit{Kind: ast.ProgramUnit, Name: name.Text, NamePos: name.Pos}
		p.parseUnitBody(u)
		return u
	case token.KwSubroutine:
		p.next()
		name := p.expect(token.Ident)
		u := &ast.Unit{Kind: ast.SubroutineUnit, Name: name.Text, NamePos: name.Pos}
		p.expect(token.LParen)
		if !p.at(token.RParen) {
			for {
				id := p.expect(token.Ident)
				u.Params = append(u.Params, id.Text)
				if !p.at(token.Comma) {
					break
				}
				p.next()
			}
		}
		p.expect(token.RParen)
		p.endOfStmt()
		p.parseUnitBody(u)
		return u
	default:
		p.errs.Add(t.Pos, "expected program or subroutine, found %s %q", t.Kind, t.Text)
		// Recover: skip a line.
		for !p.at(token.Newline) && !p.at(token.EOF) {
			p.next()
		}
		return nil
	}
}

func (p *parser) parseUnitBody(u *ast.Unit) {
	// Declarations first.
	p.skipNewlines()
	for {
		switch p.tok().Kind {
		case token.KwInteger, token.KwReal:
			u.Decls = append(u.Decls, p.parseDecl())
			p.endOfStmt()
			p.skipNewlines()
		case token.KwParameter:
			pos := p.next().Pos
			name := p.expect(token.Ident)
			p.expect(token.Assign)
			val := p.parseExpr()
			_ = pos
			u.Consts = append(u.Consts, &ast.ParamConst{Name: name.Text, Value: val, NamePos: name.Pos})
			p.endOfStmt()
			p.skipNewlines()
		default:
			goto body
		}
	}
body:
	u.Body = p.parseBlock(token.KwEnd)
	p.expect(token.KwEnd)
	p.endOfStmt()
}

func (p *parser) parseDecl() *ast.Decl {
	t := p.next() // integer or real
	d := &ast.Decl{TypePos: t.Pos}
	if t.Kind == token.KwInteger {
		d.Type = ast.Integer
	} else {
		d.Type = ast.Real
	}
	for {
		name := p.expect(token.Ident)
		item := &ast.DeclItem{Name: name.Text, NamePos: name.Pos}
		if p.at(token.LParen) {
			p.next()
			for {
				var b ast.Bounds
				first := p.parseExpr()
				if p.at(token.Colon) {
					p.next()
					b.Lo = first
					b.Hi = p.parseExpr()
				} else {
					b.Hi = first
				}
				item.Dims = append(item.Dims, b)
				if !p.at(token.Comma) {
					break
				}
				p.next()
			}
			p.expect(token.RParen)
		}
		d.Items = append(d.Items, item)
		if !p.at(token.Comma) {
			break
		}
		p.next()
	}
	return d
}

// ---------------------------------------------------------------------------
// Statements

// parseBlock parses statements until one of the terminator kinds is the
// current token (the terminator is not consumed).
func (p *parser) parseBlock(terms ...token.Kind) []ast.Stmt {
	stmts := []ast.Stmt{}
	for {
		p.skipNewlines()
		t := p.tok()
		if t.Kind == token.EOF {
			return stmts
		}
		for _, k := range terms {
			if t.Kind == k {
				return stmts
			}
		}
		if s := p.parseStmt(); s != nil {
			stmts = append(stmts, s)
		}
	}
}

func (p *parser) parseStmt() ast.Stmt {
	t := p.tok()
	switch t.Kind {
	case token.Ident:
		return p.parseAssign()
	case token.KwIf:
		return p.parseIf()
	case token.KwDo:
		return p.parseDo()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwCall:
		p.next()
		name := p.expect(token.Ident)
		s := &ast.CallStmt{Name: name.Text, CallPos: t.Pos}
		p.expect(token.LParen)
		if !p.at(token.RParen) {
			for {
				s.Args = append(s.Args, p.parseExpr())
				if !p.at(token.Comma) {
					break
				}
				p.next()
			}
		}
		p.expect(token.RParen)
		p.endOfStmt()
		return s
	case token.KwPrint:
		p.next()
		s := &ast.PrintStmt{PrintPos: t.Pos}
		for {
			s.Args = append(s.Args, p.parseExpr())
			if !p.at(token.Comma) {
				break
			}
			p.next()
		}
		p.endOfStmt()
		return s
	case token.KwReturn:
		p.next()
		p.endOfStmt()
		return &ast.ReturnStmt{RetPos: t.Pos}
	default:
		p.errs.Add(t.Pos, "unexpected %s %q at start of statement", t.Kind, t.Text)
		for !p.at(token.Newline) && !p.at(token.EOF) {
			p.next()
		}
		return nil
	}
}

func (p *parser) parseAssign() ast.Stmt {
	name := p.expect(token.Ident)
	s := &ast.AssignStmt{Name: name.Text, NamePos: name.Pos}
	if p.at(token.LParen) {
		p.next()
		for {
			s.Indexes = append(s.Indexes, p.parseExpr())
			if !p.at(token.Comma) {
				break
			}
			p.next()
		}
		p.expect(token.RParen)
	}
	p.expect(token.Assign)
	s.Value = p.parseExpr()
	p.endOfStmt()
	return s
}

func (p *parser) parseIf() ast.Stmt {
	ifTok := p.expect(token.KwIf)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.IfStmt{Cond: cond, IfPos: ifTok.Pos}
	if !p.at(token.KwThen) {
		// One-line if: a single simple statement on the same line.
		body := p.parseStmt()
		if body != nil {
			s.Then = []ast.Stmt{body}
		}
		return s
	}
	p.expect(token.KwThen)
	p.endOfStmt()
	s.Then = p.parseBlock(token.KwElse, token.KwElseif, token.KwEndif)
	cur := s
	for p.at(token.KwElseif) {
		eTok := p.next()
		p.expect(token.LParen)
		c := p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.KwThen)
		p.endOfStmt()
		inner := &ast.IfStmt{Cond: c, IfPos: eTok.Pos}
		inner.Then = p.parseBlock(token.KwElse, token.KwElseif, token.KwEndif)
		cur.Else = []ast.Stmt{inner}
		cur = inner
	}
	if p.at(token.KwElse) {
		p.next()
		p.endOfStmt()
		cur.Else = p.parseBlock(token.KwEndif)
	}
	p.expect(token.KwEndif)
	p.endOfStmt()
	return s
}

func (p *parser) parseDo() ast.Stmt {
	doTok := p.expect(token.KwDo)
	v := p.expect(token.Ident)
	p.expect(token.Assign)
	lo := p.parseExpr()
	p.expect(token.Comma)
	hi := p.parseExpr()
	s := &ast.DoStmt{Var: v.Text, Lo: lo, Hi: hi, DoPos: doTok.Pos}
	if p.at(token.Comma) {
		p.next()
		s.Step = p.parseExpr()
	}
	p.endOfStmt()
	s.Body = p.parseBlock(token.KwEnddo)
	p.expect(token.KwEnddo)
	p.endOfStmt()
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	wTok := p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	p.endOfStmt()
	s := &ast.WhileStmt{Cond: cond, WhilePos: wTok.Pos}
	s.Body = p.parseBlock(token.KwEndwhile)
	p.expect(token.KwEndwhile)
	p.endOfStmt()
	return s
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

func binary(op ast.Op, l, r ast.Expr) *ast.Binary {
	return &ast.Binary{Op: op, L: l, R: r, StartPos: l.Pos()}
}

// maxNesting bounds how deeply parenthesized groups (subexpressions and
// index or call argument lists) may nest. Each level costs nine parser
// frames, so without a bound a source under the service's 1 MiB cap
// can overflow the goroutine stack: a fatal error that no recover can
// contain.
const maxNesting = 10000

// enter opens one nesting level for the group whose "(" at pos was just
// consumed. Past maxNesting it reports a positioned error, skips the
// rest of the group (up to its closing ")" or the end of the line), and
// returns false; the caller then returns a placeholder instead of
// recursing. Callers that get true must call p.leave.
func (p *parser) enter(pos source.Pos) bool {
	if p.depth < maxNesting {
		p.depth++
		return true
	}
	p.errs.Add(pos, "expression nested more than %d levels deep", maxNesting)
	for open := 1; open > 0 && !p.at(token.Newline) && !p.at(token.EOF); {
		switch p.next().Kind {
		case token.LParen:
			open++
		case token.RParen:
			open--
		}
	}
	return false
}

func (p *parser) leave() { p.depth-- }

func (p *parser) parseOr() ast.Expr {
	e := p.parseAnd()
	for p.at(token.KwOr) {
		p.next()
		e = binary(ast.Or, e, p.parseAnd())
	}
	return e
}

func (p *parser) parseAnd() ast.Expr {
	e := p.parseNot()
	for p.at(token.KwAnd) {
		p.next()
		e = binary(ast.And, e, p.parseNot())
	}
	return e
}

func (p *parser) parseNot() ast.Expr {
	if p.at(token.KwNot) {
		t := p.next()
		return &ast.Unary{Op: ast.Not, X: p.parseNot(), OpPos: t.Pos}
	}
	return p.parseComparison()
}

var relOps = map[token.Kind]ast.Op{
	token.Eq: ast.Eq, token.Ne: ast.Ne,
	token.Lt: ast.Lt, token.Le: ast.Le,
	token.Gt: ast.Gt, token.Ge: ast.Ge,
}

func (p *parser) parseComparison() ast.Expr {
	e := p.parseAdditive()
	if op, ok := relOps[p.tok().Kind]; ok {
		p.next()
		e = binary(op, e, p.parseAdditive())
	}
	return e
}

func (p *parser) parseAdditive() ast.Expr {
	e := p.parseMultiplicative()
	for {
		switch p.tok().Kind {
		case token.Plus:
			p.next()
			e = binary(ast.Add, e, p.parseMultiplicative())
		case token.Minus:
			p.next()
			e = binary(ast.Sub, e, p.parseMultiplicative())
		default:
			return e
		}
	}
}

func (p *parser) parseMultiplicative() ast.Expr {
	e := p.parseUnary()
	for {
		switch p.tok().Kind {
		case token.Star:
			p.next()
			e = binary(ast.Mul, e, p.parseUnary())
		case token.Slash:
			p.next()
			e = binary(ast.Div, e, p.parseUnary())
		default:
			return e
		}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok().Kind {
	case token.Minus:
		t := p.next()
		return &ast.Unary{Op: ast.Neg, X: p.parseUnary(), OpPos: t.Pos}
	case token.Plus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.tok()
	switch t.Kind {
	case token.IntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errs.Add(t.Pos, "invalid integer literal %q: %v", t.Text, err)
		}
		return &ast.IntLit{Value: v, LitPos: t.Pos}
	case token.RealLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errs.Add(t.Pos, "invalid real literal %q: %v", t.Text, err)
		}
		return &ast.RealLit{Value: v, LitPos: t.Pos}
	case token.Ident:
		p.next()
		if p.at(token.LParen) {
			ix := &ast.Index{Name: t.Text, NamePos: t.Pos}
			if !p.enter(p.next().Pos) {
				return ix
			}
			if !p.at(token.RParen) {
				for {
					ix.Args = append(ix.Args, p.parseExpr())
					if !p.at(token.Comma) {
						break
					}
					p.next()
				}
			}
			p.leave()
			p.expect(token.RParen)
			return ix
		}
		return &ast.Name{Ident: t.Text, NamePos: t.Pos}
	case token.LParen:
		p.next()
		if !p.enter(t.Pos) {
			return &ast.IntLit{Value: 0, LitPos: t.Pos}
		}
		e := p.parseExpr()
		p.leave()
		p.expect(token.RParen)
		return e
	default:
		p.errs.Add(t.Pos, "unexpected %s %q in expression", t.Kind, t.Text)
		p.next()
		return &ast.IntLit{Value: 0, LitPos: t.Pos}
	}
}
