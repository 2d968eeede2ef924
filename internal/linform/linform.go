// Package linform decomposes integer IR expressions into canonical linear
// forms: Σ coef·atom + constant, where atoms are scalar variables or
// opaque non-affine subexpressions (array loads, products of variables,
// divisions, intrinsic calls).
//
// This is the algebra behind the paper's canonical range-check form (§2.2)
// and behind induction expressions (§2.3): both are linear forms, differing
// only in which atoms they range over.
package linform

import (
	"sort"

	"nascent/internal/ir"
)

// Form is a linear form: Terms (canonically sorted, merged, nonzero) plus
// a constant. The zero Form represents the constant 0.
type Form struct {
	Terms []ir.CheckTerm
	Const int64
}

// Decompose splits an Int-typed expression into a linear form. Non-affine
// subtrees become single atoms with coefficient 1 (possibly scaled by
// enclosing constant multiplications), so decomposition never fails.
func Decompose(e ir.Expr) Form {
	f := decompose(e)
	f.Terms = ir.NormalizeTerms(f.Terms)
	return f
}

func decompose(e ir.Expr) Form {
	switch e := e.(type) {
	case *ir.ConstInt:
		return Form{Const: e.V}
	case *ir.VarRef:
		return Form{Terms: []ir.CheckTerm{{Coef: 1, Atom: e}}}
	case *ir.Un:
		if e.Op == ir.OpNeg {
			return decompose(e.X).Scale(-1)
		}
	case *ir.Bin:
		switch e.Op {
		case ir.OpAdd:
			return decompose(e.L).Add(decompose(e.R))
		case ir.OpSub:
			return decompose(e.L).Add(decompose(e.R).Scale(-1))
		case ir.OpMul:
			l := decompose(e.L)
			r := decompose(e.R)
			if len(l.Terms) == 0 {
				return r.Scale(l.Const)
			}
			if len(r.Terms) == 0 {
				return l.Scale(r.Const)
			}
			// Non-affine product: opaque atom.
		}
	}
	return Form{Terms: []ir.CheckTerm{{Coef: 1, Atom: e}}}
}

// Scale returns k·f.
func (f Form) Scale(k int64) Form {
	if k == 0 {
		return Form{}
	}
	out := Form{Const: f.Const * k, Terms: make([]ir.CheckTerm, len(f.Terms))}
	for i, t := range f.Terms {
		out.Terms[i] = ir.CheckTerm{Coef: t.Coef * k, Atom: t.Atom}
	}
	return out
}

// Add returns f + g in canonical form.
func (f Form) Add(g Form) Form {
	terms := make([]ir.CheckTerm, 0, len(f.Terms)+len(g.Terms))
	terms = append(terms, f.Terms...)
	terms = append(terms, g.Terms...)
	return Form{Terms: ir.NormalizeTerms(terms), Const: f.Const + g.Const}
}

// Sub returns f − g in canonical form.
func (f Form) Sub(g Form) Form { return f.Add(g.Scale(-1)) }

// IsConst reports whether the form has no symbolic terms.
func (f Form) IsConst() bool { return len(f.Terms) == 0 }

// CoefOfVar returns the coefficient of the scalar variable v (0 if it
// does not appear). Variable atoms are matched by Var.ID, the identity
// ir.Key gives them, so no key string is built.
func (f Form) CoefOfVar(v *ir.Var) int64 {
	for _, t := range f.Terms {
		if isVar(t.Atom, v) {
			return t.Coef
		}
	}
	return 0
}

// WithoutVar returns the form with the scalar variable v removed.
func (f Form) WithoutVar(v *ir.Var) Form {
	out := Form{Const: f.Const}
	for _, t := range f.Terms {
		if !isVar(t.Atom, v) {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// SubstVar replaces the scalar variable v by the form g, returning
// f.WithoutVar(v) + coef·g. If v is absent, f is returned unchanged.
func (f Form) SubstVar(v *ir.Var, g Form) Form {
	coef := f.CoefOfVar(v)
	if coef == 0 {
		return f
	}
	return f.WithoutVar(v).Add(g.Scale(coef))
}

func isVar(atom ir.Expr, v *ir.Var) bool {
	vr, ok := atom.(*ir.VarRef)
	return ok && vr.Var.ID == v.ID
}

// Key returns the canonical family key of the form's terms (ignoring the
// constant).
func (f Form) Key() string { return ir.FamilyKey(f.Terms) }

// String renders the form for diagnostics, e.g. "2*n - 1".
func (f Form) String() string {
	if len(f.Terms) == 0 {
		return itoa(f.Const)
	}
	s := ir.TermsString(f.Terms)
	switch {
	case f.Const > 0:
		return s + " + " + itoa(f.Const)
	case f.Const < 0:
		return s + " - " + itoa(-f.Const)
	}
	return s
}

func itoa(v int64) string {
	// small helper to avoid importing strconv at each call site
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ToExpr materializes the form as an IR expression tree (used to build
// guard expressions and to rebuild subscripts after substitution).
func (f Form) ToExpr() ir.Expr {
	var e ir.Expr
	add := func(x ir.Expr) {
		if e == nil {
			e = x
			return
		}
		e = &ir.Bin{Op: ir.OpAdd, L: e, R: x, Typ: ir.Int}
	}
	for _, t := range f.Terms {
		atom := ir.CloneExpr(t.Atom)
		switch {
		case t.Coef == 1:
			add(atom)
		case t.Coef == -1:
			if e == nil {
				add(&ir.Un{Op: ir.OpNeg, X: atom, Typ: ir.Int})
			} else {
				e = &ir.Bin{Op: ir.OpSub, L: e, R: atom, Typ: ir.Int}
			}
		default:
			add(&ir.Bin{Op: ir.OpMul, L: &ir.ConstInt{V: t.Coef}, R: atom, Typ: ir.Int})
		}
	}
	if f.Const != 0 || e == nil {
		add(&ir.ConstInt{V: f.Const})
	}
	return e
}

// Vars returns the sorted IDs of all scalar variables in the form.
func (f Form) Vars() []int {
	set := make(map[int]bool)
	for _, t := range f.Terms {
		ir.VarsUsed(t.Atom, set)
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
