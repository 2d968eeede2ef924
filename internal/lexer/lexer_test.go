package lexer

import (
	"testing"

	"nascent/internal/source"
	"nascent/internal/token"
)

// scan collects the whole stream, ending with EOF.
func scan(src string, errs *source.ErrorList) []Token {
	s := NewStream(src, errs)
	var toks []Token
	for {
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func scanKinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	var errs source.ErrorList
	toks := scan(src, &errs)
	if errs.Len() != 0 {
		t.Fatalf("unexpected lex errors: %v", errs.Err())
	}
	kinds := make([]token.Kind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	return kinds
}

func TestScanSimpleAssignment(t *testing.T) {
	got := scanKinds(t, "a = b + 1\n")
	want := []token.Kind{token.Ident, token.Assign, token.Ident, token.Plus, token.IntLit, token.Newline, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestScanOperators(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"<", token.Lt}, {"<=", token.Le}, {">", token.Gt}, {">=", token.Ge},
		{"==", token.Eq}, {"/=", token.Ne}, {"+", token.Plus}, {"-", token.Minus},
		{"*", token.Star}, {"/", token.Slash}, {"(", token.LParen}, {")", token.RParen},
		{",", token.Comma}, {":", token.Colon}, {"=", token.Assign},
	}
	for _, c := range cases {
		var errs source.ErrorList
		toks := scan(c.src, &errs)
		if errs.Len() != 0 {
			t.Fatalf("%q: unexpected errors %v", c.src, errs.Err())
		}
		if toks[0].Kind != c.kind {
			t.Errorf("%q: got %s, want %s", c.src, toks[0].Kind, c.kind)
		}
	}
}

func TestScanKeywordsCaseInsensitive(t *testing.T) {
	var errs source.ErrorList
	toks := scan("DO EndDo WHILE Program", &errs)
	want := []token.Kind{token.KwDo, token.KwEnddo, token.KwWhile, token.KwProgram, token.EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestScanNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		text string
	}{
		{"42", token.IntLit, "42"},
		{"0", token.IntLit, "0"},
		{"3.14", token.RealLit, "3.14"},
		{"1.", token.RealLit, "1."},
		{".5", token.RealLit, ".5"},
		{"1e6", token.RealLit, "1e6"},
		{"2.5e-3", token.RealLit, "2.5e-3"},
		{"1d0", token.RealLit, "1e0"}, // Fortran d-exponent normalized
		{"7E+2", token.RealLit, "7E+2"},
	}
	for _, c := range cases {
		var errs source.ErrorList
		toks := scan(c.src, &errs)
		if errs.Len() != 0 {
			t.Fatalf("%q: unexpected errors %v", c.src, errs.Err())
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q: got (%s,%q), want (%s,%q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestScanCommentsAndBlankLines(t *testing.T) {
	src := "! leading comment\n\n  a = 1 ! trailing\n\n\nb = 2\n"
	got := scanKinds(t, src)
	want := []token.Kind{
		token.Ident, token.Assign, token.IntLit, token.Newline,
		token.Ident, token.Assign, token.IntLit, token.Newline, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestScanPositions(t *testing.T) {
	var errs source.ErrorList
	toks := scan("a = 1\n  b = 2\n", &errs)
	// token "b" is on line 2, column 3
	var bTok *Token
	for i := range toks {
		if toks[i].Text == "b" {
			bTok = &toks[i]
		}
	}
	if bTok == nil {
		t.Fatal("token b not found")
	}
	if bTok.Pos.Line != 2 || bTok.Pos.Col != 3 {
		t.Errorf("b position: got %v, want 2:3", bTok.Pos)
	}
}

func TestScanIllegalChar(t *testing.T) {
	var errs source.ErrorList
	toks := scan("a = $\n", &errs)
	if errs.Len() == 0 {
		t.Error("expected an error for '$'")
	}
	found := false
	for _, tk := range toks {
		if tk.Kind == token.Illegal {
			found = true
		}
	}
	if !found {
		t.Error("expected an Illegal token")
	}
}

func TestScanExponentBacktrack(t *testing.T) {
	// "1e" followed by an identifier char is int then ident, not a real.
	var errs source.ErrorList
	toks := scan("x = 1e\n", &errs)
	kinds := []token.Kind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []token.Kind{token.Ident, token.Assign, token.IntLit, token.Ident, token.Newline, token.EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %s want %s", i, kinds[i], want[i])
		}
	}
}
