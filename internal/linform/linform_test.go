package linform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nascent/internal/ir"
)

// env provides a small pool of variables for building random expressions.
type env struct {
	prog *ir.Program
	vars []*ir.Var
}

func newEnv() *env {
	p := &ir.Program{}
	f := &ir.Func{Name: "t"}
	p.RegisterFunc(f)
	e := &env{prog: p}
	for _, n := range []string{"i", "j", "k", "n", "m"} {
		e.vars = append(e.vars, p.NewVar(n, ir.Int, false, false))
	}
	return e
}

func v(e *env, i int) ir.Expr { return &ir.VarRef{Var: e.vars[i%len(e.vars)]} }

func add(l, r ir.Expr) ir.Expr { return &ir.Bin{Op: ir.OpAdd, L: l, R: r, Typ: ir.Int} }
func sub(l, r ir.Expr) ir.Expr { return &ir.Bin{Op: ir.OpSub, L: l, R: r, Typ: ir.Int} }
func mul(l, r ir.Expr) ir.Expr { return &ir.Bin{Op: ir.OpMul, L: l, R: r, Typ: ir.Int} }
func ci(k int64) ir.Expr       { return &ir.ConstInt{V: k} }

func TestDecomposeBasics(t *testing.T) {
	e := newEnv()
	i := v(e, 0)

	cases := []struct {
		expr      ir.Expr
		wantConst int64
		wantTerms int
	}{
		{ci(7), 7, 0},
		{i, 0, 1},
		{add(i, ci(3)), 3, 1},
		{sub(i, ci(3)), -3, 1},
		{mul(ci(2), i), 0, 1},
		{mul(i, ci(2)), 0, 1},
		{add(mul(ci(2), i), add(v(e, 1), ci(5))), 5, 2},
		{sub(i, i), 0, 0},                 // i - i cancels
		{mul(add(i, ci(1)), ci(3)), 3, 1}, // 3i + 3
		{&ir.Un{Op: ir.OpNeg, X: i, Typ: ir.Int}, 0, 1},
	}
	for _, c := range cases {
		f := Decompose(c.expr)
		if f.Const != c.wantConst || len(f.Terms) != c.wantTerms {
			t.Errorf("Decompose(%s) = %s (const=%d, %d terms), want const=%d, %d terms",
				ir.ExprString(c.expr), f, f.Const, len(f.Terms), c.wantConst, c.wantTerms)
		}
	}
}

func TestDecomposeCoefficients(t *testing.T) {
	e := newEnv()
	i, j := v(e, 0), v(e, 1)
	// 2*(i + 3*j) - j + 4 = 2i + 5j + 4
	expr := add(sub(mul(ci(2), add(i, mul(ci(3), j))), j), ci(4))
	f := Decompose(expr)
	if f.Const != 4 || len(f.Terms) != 2 {
		t.Fatalf("got %s", f)
	}
	iv, jv := e.vars[0], e.vars[1]
	if f.CoefOfVar(iv) != 2 || f.CoefOfVar(jv) != 5 {
		t.Errorf("coefs: i=%d j=%d", f.CoefOfVar(iv), f.CoefOfVar(jv))
	}
}

func TestNonAffineBecomesAtom(t *testing.T) {
	e := newEnv()
	i, j := v(e, 0), v(e, 1)
	prod := mul(i, j)
	f := Decompose(add(prod, ci(2)))
	if f.Const != 2 || len(f.Terms) != 1 {
		t.Fatalf("got %s", f)
	}
	if ir.Key(f.Terms[0].Atom) != ir.Key(prod) {
		t.Error("product atom key mismatch")
	}
	// Division is opaque too.
	div := &ir.Bin{Op: ir.OpDiv, L: i, R: ci(2), Typ: ir.Int}
	f2 := Decompose(add(div, div))
	if len(f2.Terms) != 1 || f2.Terms[0].Coef != 2 {
		t.Errorf("i/2 + i/2 should merge into one atom with coef 2: %s", f2)
	}
}

func TestSubstAtom(t *testing.T) {
	e := newEnv()
	i, n := v(e, 0), v(e, 3)
	// f = 2i + 1; substitute i := n - 1  =>  2n - 1
	f := Decompose(add(mul(ci(2), i), ci(1)))
	g := Decompose(sub(n, ci(1)))
	got := f.SubstVar(e.vars[0], g)
	if got.Const != -1 || got.CoefOfVar(e.vars[3]) != 2 || len(got.Terms) != 1 {
		t.Errorf("got %s", got)
	}
	// Absent variable: unchanged.
	same := f.SubstVar(e.vars[4], g)
	if same.Key() != f.Key() || same.Const != f.Const {
		t.Error("substituting an absent variable changed form")
	}
	// Only variable atoms match: an opaque atom reading i is kept.
	h := Decompose(add(mul(i, n), i))
	if w := h.WithoutVar(e.vars[0]); len(w.Terms) != 1 || ir.Key(w.Terms[0].Atom) != ir.Key(mul(i, n)) {
		t.Errorf("WithoutVar(i) of i*n + i = %s, want i*n", w)
	}
}

func TestToExprRoundTrip(t *testing.T) {
	e := newEnv()
	i, j := v(e, 0), v(e, 1)
	forms := []Form{
		Decompose(add(mul(ci(2), i), ci(1))),
		Decompose(sub(ci(10), j)),
		Decompose(ci(-4)),
		Decompose(add(i, j)),
		Decompose(sub(mul(ci(-3), i), ci(7))),
	}
	for _, f := range forms {
		back := Decompose(f.ToExpr())
		if back.Key() != f.Key() || back.Const != f.Const {
			t.Errorf("round trip: %s -> %s -> %s", f, ir.ExprString(f.ToExpr()), back)
		}
	}
}

func TestFormString(t *testing.T) {
	e := newEnv()
	i := v(e, 0)
	f := Decompose(add(mul(ci(2), i), ci(-1)))
	if got := f.String(); got != "2*i - 1" {
		t.Errorf("got %q", got)
	}
	if got := (Form{}).String(); got != "0" {
		t.Errorf("zero form: %q", got)
	}
}

// randomExpr builds a random integer expression of bounded depth.
func randomExpr(e *env, r *rand.Rand, depth int) ir.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return ci(int64(r.Intn(21) - 10))
		}
		return v(e, r.Intn(len(e.vars)))
	}
	l := randomExpr(e, r, depth-1)
	rr := randomExpr(e, r, depth-1)
	switch r.Intn(4) {
	case 0:
		return add(l, rr)
	case 1:
		return sub(l, rr)
	case 2:
		return mul(ci(int64(r.Intn(7)-3)), l)
	default:
		return mul(l, rr)
	}
}

// evalExpr evaluates an integer expression under an environment mapping
// var IDs to values.
func evalExpr(x ir.Expr, vals map[int]int64) int64 {
	switch x := x.(type) {
	case *ir.ConstInt:
		return x.V
	case *ir.VarRef:
		return vals[x.Var.ID]
	case *ir.Bin:
		l := evalExpr(x.L, vals)
		r := evalExpr(x.R, vals)
		switch x.Op {
		case ir.OpAdd:
			return l + r
		case ir.OpSub:
			return l - r
		case ir.OpMul:
			return l * r
		}
	case *ir.Un:
		return -evalExpr(x.X, vals)
	}
	panic("evalExpr: unexpected node")
}

// evalForm evaluates a linear form under the same environment, evaluating
// atoms with evalExpr.
func evalForm(f Form, vals map[int]int64) int64 {
	s := f.Const
	for _, t := range f.Terms {
		s += t.Coef * evalExpr(t.Atom, vals)
	}
	return s
}

// TestDecomposePreservesValue is the core property: decomposition is a
// semantics-preserving rewrite of the expression.
func TestDecomposePreservesValue(t *testing.T) {
	e := newEnv()
	r := rand.New(rand.NewSource(12345))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randomExpr(e, rr, 4)
		vals := make(map[int]int64)
		for _, vv := range e.vars {
			vals[vv.ID] = int64(rr.Intn(41) - 20)
		}
		return evalExpr(x, vals) == evalForm(Decompose(x), vals)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestAddScaleProperties checks algebraic laws on random forms.
func TestAddScaleProperties(t *testing.T) {
	e := newEnv()
	prop := func(seed int64, k int8) bool {
		rr := rand.New(rand.NewSource(seed))
		f := Decompose(randomExpr(e, rr, 3))
		g := Decompose(randomExpr(e, rr, 3))
		vals := make(map[int]int64)
		for _, vv := range e.vars {
			vals[vv.ID] = int64(rr.Intn(21) - 10)
		}
		kk := int64(k)
		// (f+g)(x) == f(x)+g(x)
		if evalForm(f.Add(g), vals) != evalForm(f, vals)+evalForm(g, vals) {
			return false
		}
		// (k·f)(x) == k·f(x)
		if evalForm(f.Scale(kk), vals) != kk*evalForm(f, vals) {
			return false
		}
		// f−g == f+(−1·g)
		if evalForm(f.Sub(g), vals) != evalForm(f, vals)-evalForm(g, vals) {
			return false
		}
		// commutativity of Add (canonical keys equal)
		fg, gf := f.Add(g), g.Add(f)
		return fg.Key() == gf.Key() && fg.Const == gf.Const
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVars(t *testing.T) {
	e := newEnv()
	i, j := v(e, 0), v(e, 1)
	f := Decompose(add(mul(ci(2), i), mul(i, j))) // atoms: i, i*j
	ids := f.Vars()
	if len(ids) != 2 {
		t.Errorf("vars = %v, want both i and j", ids)
	}
}
