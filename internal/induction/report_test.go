package induction_test

import (
	"strings"
	"testing"

	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/testutil"
)

func TestClassStrings(t *testing.T) {
	want := map[induction.Class]string{
		induction.Invariant:  "invariant",
		induction.Linear:     "linear",
		induction.Polynomial: "polynomial",
		induction.Unknown:    "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d: %q", int(c), c.String())
		}
	}
}

func TestIEString(t *testing.T) {
	ind, l, a := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = 2*i + 3
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	s := ie.String()
	if !strings.Contains(s, "linear") || !strings.Contains(s, "h.") {
		t.Errorf("IE string = %q", s)
	}
}

// TestOuterHInvariantInInner: an INX-materialized outer-loop h is
// invariant from the inner loop's perspective.
func TestOuterHInvariantInInner(t *testing.T) {
	src := `program p
  integer i, j, k
  k = 0
  do i = 1, 6
    k = k + 3
    do j = 1, 4
      m = k + j
    enddo
  enddo
end
`
	a := testutil.AnalyzeMain(t, src, false)
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	outer := a.Forest.ByHeader(a.Fn.DoLoops[0].Header)
	inner := a.Forest.ByHeader(a.Fn.DoLoops[1].Header)

	// Relative to the outer loop, k's use is linear: base + 3h.
	var ieOuter induction.IE
	a.Fn.ForEachStmt(func(b *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "m" {
			ieOuter = ind.IEOfExpr(as.Src, outer)
		}
	})
	// k + j relative to outer: j is inner-loop-varying => unknown/poly.
	if ieOuter.Class == induction.Invariant {
		t.Errorf("k+j invariant w.r.t. outer loop: %s", ieOuter)
	}

	// Build a form over the outer h and classify it from the inner loop:
	// terms mentioning h(outer) must be invariant there.
	hOuter := ind.HVar(outer)
	terms := []ir.CheckTerm{{Coef: 2, Atom: &ir.VarRef{Var: hOuter}}}
	ie := ind.IEOfFormAt(terms, inner, inner.Header)
	if ie.Class != induction.Invariant {
		t.Errorf("outer h from inner loop: %s, want invariant", ie.Class)
	}
	// And from its own loop it is linear with slope 2.
	ieOwn := ind.IEOfFormAt(terms, outer, outer.Header)
	if ieOwn.Class != induction.Linear {
		t.Errorf("own h: %s, want linear", ieOwn.Class)
	}
	if slope, _ := ind.SlopeOf(outer, ieOwn.Form); slope != 2 {
		t.Errorf("slope = %d, want 2", slope)
	}
	// An unrelated loop's h is unknown from a disjoint loop... (inner h
	// from outer perspective varies):
	hInner := ind.HVar(inner)
	termsI := []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: hInner}}}
	ieBad := ind.IEOfFormAt(termsI, outer, outer.Header)
	if ieBad.Class != induction.Unknown {
		t.Errorf("inner h from outer loop: %s, want unknown", ieBad.Class)
	}
}

func TestLoopStableTerms(t *testing.T) {
	src := `program p
  integer i, k, n
  real b(10)
  k = 2
  do i = 1, 10
    n = i * 2
    b(k) = 1.0
  enddo
end
`
	a := testutil.AnalyzeMain(t, src, false)
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	l := a.Forest.Loops[0]
	kVar := testutil.FindVar(t, a.Prog, a.Fn, "k")
	nVar := testutil.FindVar(t, a.Prog, a.Fn, "n")

	stable := []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: kVar}}}
	if !ind.LoopStableTerms(l, stable) {
		t.Error("k is unassigned in the loop: must be stable")
	}
	unstable := []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: nVar}}}
	if ind.LoopStableTerms(l, unstable) {
		t.Error("n is assigned in the loop: must be unstable")
	}
	// h of the loop itself is exempt.
	h := ind.HVar(l)
	withH := []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: h}}, {Coef: 1, Atom: &ir.VarRef{Var: kVar}}}
	if !ind.LoopStableTerms(l, withH) {
		t.Error("the loop's own h must be exempt from stability")
	}
}

func TestLoadStabilityUnderStores(t *testing.T) {
	src := `program p
  integer i, k
  real b(10), c(10)
  k = 2
  do i = 1, 10
    c(i) = b(k)
  enddo
end
`
	a := testutil.AnalyzeMain(t, src, false)
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	l := a.Forest.Loops[0]
	var loadB, loadC ir.Expr
	a.Fn.ForEachStmt(func(b *ir.Block, _ int, s ir.Stmt) {
		if st, ok := s.(*ir.StoreStmt); ok {
			loadB = st.Val
		}
	})
	if loadB == nil {
		t.Fatal("load not found")
	}
	// b is not stored in the loop: a load atom from b is stable.
	if !ind.LoopStableTerms(l, []ir.CheckTerm{{Coef: 1, Atom: loadB}}) {
		t.Error("load from un-stored array must be stable")
	}
	// A load from c (stored each iteration) is not.
	kVar := testutil.FindVar(t, a.Prog, a.Fn, "k")
	var cArr *ir.Array
	for _, arr := range a.Prog.GlobalArrays {
		if arr.Name == "c" {
			cArr = arr
		}
	}
	loadC = &ir.Load{Arr: cArr, Idx: []ir.Expr{&ir.VarRef{Var: kVar}}}
	if ind.LoopStableTerms(l, []ir.CheckTerm{{Coef: 1, Atom: loadC}}) {
		t.Error("load from stored array must be unstable")
	}
}
