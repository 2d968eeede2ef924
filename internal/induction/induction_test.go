package induction_test

import (
	"strings"
	"testing"

	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/loops"
	"nascent/internal/testutil"
)

// analyzeLoop compiles src, returning the analysis and the innermost loop.
func analyzeLoop(t *testing.T, src string) (*induction.Analysis, *loops.Loop, *testutil.Analyzed) {
	t.Helper()
	a := testutil.AnalyzeMain(t, src, false)
	if len(a.Forest.Loops) == 0 {
		t.Fatal("no loops found")
	}
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	return ind, a.Forest.Loops[0], a
}

// ieOfUse finds the assignment "<dst> = ..." and returns the IE of its
// source expression relative to loop l.
func ieOfUse(t *testing.T, a *testutil.Analyzed, ind *induction.Analysis, l *loops.Loop, dst string) induction.IE {
	t.Helper()
	var ie induction.IE
	found := false
	a.Fn.ForEachStmt(func(b *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == dst && l.Contains(b) && !found {
			ie = ind.IEOfExpr(as.Src, l)
			found = true
		}
	})
	if !found {
		t.Fatalf("assignment to %s inside loop not found", dst)
	}
	return ie
}

func TestDoIndexIsLinear(t *testing.T) {
	ind, l, a := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Linear {
		t.Fatalf("class = %s, want linear (form %s)", ie.Class, ie.Form)
	}
	slope, base := ind.SlopeOf(l, ie.Form)
	if slope != 1 {
		t.Errorf("slope = %d, want 1", slope)
	}
	if !base.IsConst() || base.Const != 1 {
		t.Errorf("base = %s, want 1", base)
	}
}

func TestFigure2Classification(t *testing.T) {
	// Paper Figure 2:
	//   j=0; k=3; m=5
	//   for i = 0 to n-1:  j=j+1; k=k+m; a(k)=2*m+1
	// j is linear (h+1 at the use after increment), k is linear 5h+8
	// (m=5 is constant-propagated), 2*m+1 is invariant.
	src := `program p
  integer i, j, k, m, n
  integer a(1:100)
  j = 0
  k = 3
  m = 5
  do i = 0, n - 1
    j = j + 1
    k = k + m
    a(k) = 2*m + 1
  enddo
end
`
	ind, l, a := analyzeLoop(t, src)

	// IE of k at its use in a(k): find the StoreStmt index.
	var kIE induction.IE
	a.Fn.ForEachStmt(func(b *ir.Block, _ int, s ir.Stmt) {
		if st, ok := s.(*ir.StoreStmt); ok && l.Contains(b) {
			kIE = ind.IEOfExpr(st.Idx[0], l)
		}
	})
	if kIE.Class != induction.Linear {
		t.Fatalf("k class = %s (%s), want linear", kIE.Class, kIE.Form)
	}
	slope, base := ind.SlopeOf(l, kIE.Form)
	if slope != 5 || !base.IsConst() || base.Const != 8 {
		t.Errorf("k IE = %d*h + %s, want 5*h + 8", slope, base)
	}

	// IE of the stored value 2*m+1 must be invariant 11.
	var valIE induction.IE
	a.Fn.ForEachStmt(func(b *ir.Block, _ int, s ir.Stmt) {
		if st, ok := s.(*ir.StoreStmt); ok && l.Contains(b) {
			valIE = ind.IEOfExpr(st.Val, l)
		}
	})
	if valIE.Class != induction.Invariant || !valIE.Form.IsConst() || valIE.Form.Const != 11 {
		t.Errorf("2*m+1 IE = %s %s, want invariant 11", valIE.Class, valIE.Form)
	}

	// Trip count of "do i = 0, n-1" is (n-1) - 0 + 1 = n.
	trip, ok := ind.TripCount(l)
	if !ok {
		t.Fatal("no trip count")
	}
	if trip.Const != 0 || len(trip.Terms) != 1 || trip.Terms[0].Coef != 1 {
		t.Errorf("trip = %s, want n", trip)
	}
	if ir.ExprString(trip.Terms[0].Atom) != "n" {
		t.Errorf("trip atom = %s, want n", ir.ExprString(trip.Terms[0].Atom))
	}
}

func TestPolynomialClassification(t *testing.T) {
	// s accumulates a linear value: s = s + j with j linear => polynomial
	// (the paper's h*(h+1)/2 pattern).
	ind, l, a := analyzeLoop(t, `program p
  integer i, j, s
  s = 0
  j = 0
  do i = 1, 10
    j = j + 1
    s = s + j
    k = s
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "k")
	if ie.Class != induction.Polynomial {
		t.Errorf("class = %s, want polynomial", ie.Class)
	}
}

func TestSymbolicSlopeIsPolynomial(t *testing.T) {
	// k = k + m with m loop-invariant but symbolic: recognized sequence,
	// not linear with a constant slope.
	ind, l, a := analyzeLoop(t, `program p
  integer i, k, m, n
  k = 0
  m = n * 2
  do i = 1, 10
    k = k + m
    j = k
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Polynomial {
		t.Errorf("class = %s, want polynomial (symbolic slope)", ie.Class)
	}
}

func TestInvariantThroughTemporary(t *testing.T) {
	// t2 = k + 3 computed inside the loop from invariant k: the IE of t2
	// rewrites away the in-loop temporary — the mechanism that makes
	// INX checks hoistable (paper §4.3, the trfd LI case).
	ind, l, a := analyzeLoop(t, `program p
  integer i, k, m, n
  k = n
  do i = 1, 10
    m = k + 3
    j = m
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Invariant {
		t.Fatalf("class = %s (%s), want invariant", ie.Class, ie.Form)
	}
	// The in-loop temporary m = k + 3 rewrites away; the copy chain
	// k = n additionally resolves to the preheader-stable variable n,
	// so the form is n + 3.
	if ie.Form.Const != 3 || len(ie.Form.Terms) != 1 {
		t.Fatalf("form = %s, want n + 3", ie.Form)
	}
	if ir.ExprString(ie.Form.Terms[0].Atom) != "n" {
		t.Errorf("atom = %s, want n", ir.ExprString(ie.Form.Terms[0].Atom))
	}
}

func TestInvariantConstantFolding(t *testing.T) {
	// k = 7 outside the loop constant-folds through the temporary
	// (Figure 2 relies on the same folding for m = 5).
	ind, l, a := analyzeLoop(t, `program p
  integer i, k, m
  k = 7
  do i = 1, 10
    m = k + 3
    j = m
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Invariant || !ie.Form.IsConst() || ie.Form.Const != 10 {
		t.Errorf("IE = %s %s, want invariant 10", ie.Class, ie.Form)
	}
}

func TestConditionalIncrementIsUnknown(t *testing.T) {
	ind, l, a := analyzeLoop(t, `program p
  integer i, k, n
  k = 0
  do i = 1, 10
    if (i > n) then
      k = k + 1
    endif
    j = k
  enddo
end
`)
	// The innermost "loop" list may order loops differently; use the DO loop.
	doLoop := a.Forest.ByHeader(a.Fn.DoLoops[0].Header)
	_ = l
	ie := ieOfUse(t, a, ind, doLoop, "j")
	if ie.Class != induction.Unknown {
		t.Errorf("class = %s, want unknown for conditional increment", ie.Class)
	}
}

func TestVariableModifiedByCallIsUnknown(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  integer i, g
  g = 1
  do i = 1, 10
    call bump()
    j = g
  enddo
end
subroutine bump()
  g = g + 1
end
`, false)
	a := testutil.AnalyzeFunc(t, p, p.Main())
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	l := a.Forest.Loops[0]
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Unknown {
		t.Errorf("class = %s, want unknown (g modified by call)", ie.Class)
	}
}

func TestNestedLoopPerspective(t *testing.T) {
	// k increments in the outer loop: linear for the outer loop,
	// invariant for the inner loop.
	src := `program p
  integer i, j, k
  k = 0
  do i = 1, 10
    k = k + 2
    do j = 1, 5
      m = k
    enddo
  enddo
end
`
	a := testutil.AnalyzeMain(t, src, false)
	ind := induction.Analyze(a.Fn, a.Forest, a.SSA)
	outer := a.Forest.ByHeader(a.Fn.DoLoops[0].Header)
	inner := a.Forest.ByHeader(a.Fn.DoLoops[1].Header)

	ieInner := ieOfUse(t, a, ind, inner, "m")
	if ieInner.Class != induction.Invariant {
		t.Errorf("inner view: %s (%s), want invariant", ieInner.Class, ieInner.Form)
	}
	ieOuter := ieOfUse(t, a, ind, outer, "m")
	if ieOuter.Class != induction.Linear {
		t.Errorf("outer view: %s (%s), want linear", ieOuter.Class, ieOuter.Form)
	}
	if slope, base := ind.SlopeOf(outer, ieOuter.Form); slope != 2 || !base.IsConst() || base.Const != 2 {
		t.Errorf("outer IE = %d*h + %s, want 2*h + 2", slope, base)
	}
}

func TestTripCounts(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // rendered trip form, "" = unavailable
	}{
		{"const", "program p\n integer i\n do i = 1, 10\n  j = i\n enddo\nend\n", "10"},
		{"sym", "program p\n integer i, n\n do i = 1, n\n  j = i\n enddo\nend\n", "n"},
		{"symLo", "program p\n integer i, n, m\n do i = m, n\n  j = i\n enddo\nend\n", "-m + n + 1"},
		{"step2const", "program p\n integer i\n do i = 1, 10, 2\n  j = i\n enddo\nend\n", "5"},
		{"step2sym", "program p\n integer i, n\n do i = 1, n, 2\n  j = i\n enddo\nend\n", ""},
		{"negStep", "program p\n integer i\n do i = 10, 1, -1\n  j = i\n enddo\nend\n", "10"},
		{"zeroTrip", "program p\n integer i\n do i = 5, 1\n  j = i\n enddo\nend\n", "-3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ind, l, _ := analyzeLoop(t, c.src)
			trip, ok := ind.TripCount(l)
			if c.want == "" {
				if ok {
					t.Errorf("trip = %s, want unavailable", trip)
				}
				return
			}
			if !ok {
				t.Fatal("trip count unavailable")
			}
			if got := trip.String(); got != c.want {
				t.Errorf("trip = %s, want %s", got, c.want)
			}
		})
	}
}

func TestGuardExpr(t *testing.T) {
	ind, l, _ := analyzeLoop(t, `program p
  integer i, n
  do i = 1, n
    j = i
  enddo
end
`)
	g, ok := ind.GuardExpr(l)
	if !ok || g == nil {
		t.Fatalf("guard = %v ok=%v", g, ok)
	}
	if ir.ExprString(g) != "(1 <= n)" {
		t.Errorf("guard = %s", ir.ExprString(g))
	}

	// Constant, always-executing loop: no guard needed.
	ind2, l2, _ := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`)
	g2, ok2 := ind2.GuardExpr(l2)
	if !ok2 || g2 != nil {
		t.Errorf("constant loop guard = %v ok=%v, want nil/true", g2, ok2)
	}

	// While loop: no guard machinery.
	ind3, l3, _ := analyzeLoop(t, `program p
  integer i
  while (i < 10)
    i = i + 1
  endwhile
end
`)
	if _, ok3 := ind3.GuardExpr(l3); ok3 {
		t.Error("while loop should have no guard")
	}
}

func TestLastH(t *testing.T) {
	ind, l, _ := analyzeLoop(t, `program p
  integer i, n
  do i = 1, n
    j = i
  enddo
end
`)
	last, ok := ind.LastH(l)
	if !ok {
		t.Fatal("LastH unavailable")
	}
	if last.String() != "n - 1" {
		t.Errorf("lastH = %s, want n - 1", last)
	}
}

func TestHVarStable(t *testing.T) {
	ind, l, _ := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`)
	h1 := ind.HVar(l)
	h2 := ind.HVar(l)
	if h1 != h2 {
		t.Error("HVar not stable")
	}
	if !strings.HasPrefix(h1.Name, "h.") {
		t.Errorf("h name = %q", h1.Name)
	}
}

func TestIEOfExprCombinesLinear(t *testing.T) {
	// 2*i + 3 with i = 1..n: slope 2, base 2*1+3 = 5.
	ind, l, a := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = 2*i + 3
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Linear {
		t.Fatalf("class = %s", ie.Class)
	}
	slope, base := ind.SlopeOf(l, ie.Form)
	if slope != 2 || !base.IsConst() || base.Const != 5 {
		t.Errorf("IE = %d*h + %s, want 2*h + 5", slope, base)
	}
}

func TestLinearMinusLinearIsInvariant(t *testing.T) {
	// i - i cancels; 2*i - i - i cancels too.
	ind, l, a := analyzeLoop(t, `program p
  integer i
  do i = 1, 10
    j = 2*i - i - i + 7
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Invariant || ie.Form.Const != 7 {
		t.Errorf("IE = %s %s, want invariant 7", ie.Class, ie.Form)
	}
	_ = linform.Form{}
}

func TestLoadAtomInvariantWhenArrayUntouched(t *testing.T) {
	ind, l, a := analyzeLoop(t, `program p
  integer b(10)
  integer i, k
  k = 2
  do i = 1, 10
    j = b(k)
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Invariant {
		t.Errorf("b(k) with untouched b: %s, want invariant", ie.Class)
	}
}

func TestLoadAtomUnknownWhenArrayStored(t *testing.T) {
	ind, l, a := analyzeLoop(t, `program p
  integer b(10)
  integer i, k
  k = 2
  do i = 1, 10
    b(i) = i
    j = b(k)
  enddo
end
`)
	ie := ieOfUse(t, a, ind, l, "j")
	if ie.Class != induction.Unknown {
		t.Errorf("b(k) with b stored in loop: %s, want unknown", ie.Class)
	}
}
