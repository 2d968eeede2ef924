package rangecheck

import (
	"strings"
	"testing"

	"nascent/internal/ir"
)

func vars(names ...string) (*ir.Program, map[string]*ir.Var) {
	p := &ir.Program{}
	f := &ir.Func{Name: "t"}
	p.RegisterFunc(f)
	m := make(map[string]*ir.Var)
	for _, n := range names {
		m[n] = p.NewVar(n, ir.Int, false, false)
	}
	return p, m
}

func term(v *ir.Var, coef int64) ir.CheckTerm {
	return ir.CheckTerm{Coef: coef, Atom: &ir.VarRef{Var: v}}
}

func TestInternSharesFamilies(t *testing.T) {
	_, vs := vars("n")
	r := NewRegistry(ImplyFull)
	f1 := r.Intern([]ir.CheckTerm{term(vs["n"], 2)}, 10)
	f2 := r.Intern([]ir.CheckTerm{term(vs["n"], 2)}, 11)
	if f1 != f2 {
		t.Error("same terms, different consts must share a family under ImplyFull")
	}
	f3 := r.Intern([]ir.CheckTerm{term(vs["n"], 3)}, 10)
	if f3 == f1 {
		t.Error("different coefficients must be different families")
	}
}

func TestInternExactModeSplitsByConst(t *testing.T) {
	_, vs := vars("n")
	for _, mode := range []Mode{ImplyNone, ImplyCross} {
		r := NewRegistry(mode)
		f1 := r.Intern([]ir.CheckTerm{term(vs["n"], 2)}, 10)
		f2 := r.Intern([]ir.CheckTerm{term(vs["n"], 2)}, 11)
		if f1 == f2 {
			t.Errorf("%v: constants must split families", mode)
		}
		if f1.ExactConst != 10 || f2.ExactConst != 11 {
			t.Errorf("%v: exact consts %d,%d", mode, f1.ExactConst, f2.ExactConst)
		}
	}
}

func TestFamilyKillSets(t *testing.T) {
	p, vs := vars("n", "g")
	vs["g"].Global = true
	arr := p.NewArray("b", ir.Int, []ir.Bounds{{Lo: 1, Hi: 5}}, true)
	load := &ir.Load{Arr: arr, Idx: []ir.Expr{&ir.VarRef{Var: vs["n"]}}}
	r := NewRegistry(ImplyFull)
	f := r.Intern([]ir.CheckTerm{
		term(vs["n"], 1),
		{Coef: 1, Atom: load},
		term(vs["g"], -1),
	}, 7)
	if !f.KillsVar(vs["n"].ID) || !f.KillsVar(vs["g"].ID) {
		t.Error("kill vars incomplete")
	}
	if !f.KillsArray(arr.ID) {
		t.Error("kill arrays incomplete")
	}
	if !f.KilledByCall {
		t.Error("family reading globals must be killed by calls")
	}
}

func TestFamilyNotKilledByCallWhenLocal(t *testing.T) {
	_, vs := vars("n")
	r := NewRegistry(ImplyFull)
	f := r.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 7)
	if f.KilledByCall {
		t.Error("local-only family must survive calls")
	}
}

// TestFigure4 reproduces the paper's Figure 4: families F3 (over n) and
// F4 (over m) with an edge of weight 4 from the discovered implication
// Check(n ≤ 6) ⇒ Check(m ≤ 10).
func TestFigure4EdgeWeights(t *testing.T) {
	_, vs := vars("n", "m")
	r := NewRegistry(ImplyFull)
	f3 := r.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 6)
	f4 := r.Intern([]ir.CheckTerm{term(vs["m"], 1)}, 10)
	g := NewCIG(r)
	g.AddEdge(f3, f4, 4)

	// Check (n <= 1) is as strong as Check (m <= 7): 1+4 = 5 <= 7.
	if !g.AsStrong(f3, 1, f4, 7) {
		t.Error("n<=1 should imply m<=7")
	}
	// But not Check (m <= 3): 1+4 = 5 > 3.
	if g.AsStrong(f3, 1, f4, 3) {
		t.Error("n<=1 must not imply m<=3")
	}
	// Within family: n<=1 implies n<=6.
	if !g.AsStrong(f3, 1, f3, 6) {
		t.Error("within-family implication failed")
	}
	if g.AsStrong(f3, 6, f3, 1) {
		t.Error("weaker check must not imply stronger")
	}
}

func TestCIGEdgeMinWeight(t *testing.T) {
	_, vs := vars("n", "m")
	r := NewRegistry(ImplyFull)
	f1 := r.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 0)
	f2 := r.Intern([]ir.CheckTerm{term(vs["m"], 1)}, 0)
	g := NewCIG(r)
	g.AddEdge(f1, f2, 7)
	g.AddEdge(f1, f2, 4) // min kept (paper §3.1)
	g.AddEdge(f1, f2, 9)
	if len(g.Out(f1)) != 1 || g.Out(f1)[0].Weight != 4 {
		t.Errorf("edges = %+v, want single weight-4 edge", g.Out(f1))
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestCIGTransitive(t *testing.T) {
	_, vs := vars("a", "b", "c")
	r := NewRegistry(ImplyFull)
	fa := r.Intern([]ir.CheckTerm{term(vs["a"], 1)}, 0)
	fb := r.Intern([]ir.CheckTerm{term(vs["b"], 1)}, 0)
	fc := r.Intern([]ir.CheckTerm{term(vs["c"], 1)}, 0)
	g := NewCIG(r)
	g.AddEdge(fa, fb, 1)
	g.AddEdge(fb, fc, 2)
	if !g.AsStrong(fa, 5, fc, 8) {
		t.Error("a<=5 -> b<=6 -> c<=8 should hold transitively")
	}
	if g.AsStrong(fa, 5, fc, 7) {
		t.Error("a<=5 must not imply c<=7")
	}
}

func TestAsStrongModeGating(t *testing.T) {
	_, vs := vars("n", "m")
	r := NewRegistry(ImplyNone)
	f1 := r.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 5)
	f2 := r.Intern([]ir.CheckTerm{term(vs["m"], 1)}, 9)
	g := NewCIG(r)
	g.AddEdge(f1, f2, 4)
	// ImplyNone: no implications at all (exact identity only).
	if g.AsStrong(f1, 5, f2, 9) {
		t.Error("ImplyNone must disable cross-family edges")
	}
	if !g.AsStrong(f1, 5, f1, 5) {
		t.Error("a check is always as strong as itself")
	}

	r2 := NewRegistry(ImplyCross)
	f1c := r2.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 5)
	f2c := r2.Intern([]ir.CheckTerm{term(vs["m"], 1)}, 9)
	g2 := NewCIG(r2)
	g2.AddEdge(f1c, f2c, 4)
	if !g2.AsStrong(f1c, 5, f2c, 9) {
		t.Error("ImplyCross must keep cross-family edges")
	}
}

func TestModePredicates(t *testing.T) {
	if !ImplyFull.WithinFamily() || !ImplyFull.CrossFamily() {
		t.Error("full mode predicates")
	}
	if ImplyNone.WithinFamily() || ImplyNone.CrossFamily() {
		t.Error("none mode predicates")
	}
	if ImplyCross.WithinFamily() || !ImplyCross.CrossFamily() {
		t.Error("cross mode predicates")
	}
}

func TestCIGDump(t *testing.T) {
	_, vs := vars("n", "m")
	r := NewRegistry(ImplyFull)
	f3 := r.Intern([]ir.CheckTerm{term(vs["n"], 1)}, 6)
	f4 := r.Intern([]ir.CheckTerm{term(vs["m"], 1)}, 10)
	g := NewCIG(r)
	g.AddEdge(f3, f4, 4)
	out := g.Dump()
	for _, want := range []string{"F0: n", "F1: m", "-> F1 (weight 4)"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
