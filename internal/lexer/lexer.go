// Package lexer converts MF source text into a token stream.
//
// MF is line-oriented: newlines terminate statements, `!` starts a comment
// that runs to end of line, and blank lines are skipped (they produce no
// Newline token). Keywords are case-insensitive and normalized to lower
// case, matching Fortran tradition.
package lexer

import (
	"strings"

	"nascent/internal/chaos"
	"nascent/internal/source"
	"nascent/internal/token"
)

// Token is one lexical token together with its source position and text.
type Token struct {
	Kind token.Kind
	Pos  source.Pos
	Text string
}

// scanner turns MF source text into raw tokens, newlines included.
type scanner struct {
	src  string
	off  int // byte offset of next unread character
	line int
	col  int
	errs *source.ErrorList
}

// Stream yields the parser's token sequence one token at a time, so no
// token slice is ever built. Consecutive newlines are collapsed and
// leading newlines skipped, so the parser never sees an empty
// statement. After EOF every call returns EOF again.
type Stream struct {
	lx   scanner
	prev token.Kind // last kind returned; Newline before the first token
}

// NewStream returns a stream over src reporting errors to errs.
func NewStream(src string, errs *source.ErrorList) Stream {
	if chaos.Active() {
		if err := chaos.InjectError(chaos.SiteLexError, chaos.SourceKey(src)); err != nil {
			errs.Add(source.Pos{Line: 1, Col: 1}, "%s", err.Error())
		}
	}
	return Stream{lx: scanner{src: src, line: 1, col: 1, errs: errs}, prev: token.Newline}
}

// Next returns the next token of the stream.
func (s *Stream) Next() Token {
	for {
		t := s.lx.next()
		if t.Kind == token.Newline && s.prev == token.Newline {
			continue
		}
		s.prev = t.Kind
		return t
	}
}

func (l *scanner) pos() source.Pos { return source.Pos{Line: l.line, Col: l.col} }

func (l *scanner) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *scanner) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *scanner) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }

// next returns the next raw token.
func (l *scanner) next() Token {
	for {
		c := l.peek()
		switch {
		case c == 0:
			return Token{Kind: token.EOF, Pos: l.pos()}
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
			continue
		case c == '!':
			for l.peek() != 0 && l.peek() != '\n' {
				l.advance()
			}
			continue
		case c == '\n':
			p := l.pos()
			l.advance()
			return Token{Kind: token.Newline, Pos: p, Text: "\n"}
		}
		break
	}

	p := l.pos()
	c := l.peek()

	switch {
	case isAlpha(c):
		start := l.off
		for isAlnum(l.peek()) {
			l.advance()
		}
		text := strings.ToLower(l.src[start:l.off])
		return Token{Kind: token.Lookup(text), Pos: p, Text: text}

	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.scanNumber(p)
	}

	l.advance()
	switch c {
	case '+':
		return Token{Kind: token.Plus, Pos: p, Text: "+"}
	case '-':
		return Token{Kind: token.Minus, Pos: p, Text: "-"}
	case '*':
		return Token{Kind: token.Star, Pos: p, Text: "*"}
	case '/':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: token.Ne, Pos: p, Text: "/="}
		}
		return Token{Kind: token.Slash, Pos: p, Text: "/"}
	case '(':
		return Token{Kind: token.LParen, Pos: p, Text: "("}
	case ')':
		return Token{Kind: token.RParen, Pos: p, Text: ")"}
	case ',':
		return Token{Kind: token.Comma, Pos: p, Text: ","}
	case ':':
		return Token{Kind: token.Colon, Pos: p, Text: ":"}
	case '=':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: token.Eq, Pos: p, Text: "=="}
		}
		return Token{Kind: token.Assign, Pos: p, Text: "="}
	case '<':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: token.Le, Pos: p, Text: "<="}
		}
		return Token{Kind: token.Lt, Pos: p, Text: "<"}
	case '>':
		if l.peek() == '=' {
			l.advance()
			return Token{Kind: token.Ge, Pos: p, Text: ">="}
		}
		return Token{Kind: token.Gt, Pos: p, Text: ">"}
	}
	l.errs.Add(p, "unexpected character %q", string(c))
	return Token{Kind: token.Illegal, Pos: p, Text: string(c)}
}

func (l *scanner) scanNumber(p source.Pos) Token {
	start := l.off
	for isDigit(l.peek()) {
		l.advance()
	}
	isReal := false
	// A '.' begins a fraction only if not followed by another '.' (no
	// ranges in MF) — always a fraction here.
	if l.peek() == '.' {
		isReal = true
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' || c == 'd' || c == 'D' {
		// Exponent requires a digit (with optional sign) to follow.
		save, saveLine, saveCol := l.off, l.line, l.col
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isReal = true
			for isDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.off, l.line, l.col = save, saveLine, saveCol
		}
	}
	text := l.src[start:l.off]
	kind := token.IntLit
	if isReal {
		kind = token.RealLit
		text = strings.Map(func(r rune) rune {
			if r == 'd' || r == 'D' {
				return 'e'
			}
			return r
		}, text)
	}
	return Token{Kind: kind, Pos: p, Text: text}
}
