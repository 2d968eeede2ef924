package ssa_test

import (
	"testing"

	"nascent/internal/ir"
	"nascent/internal/ssa"
	"nascent/internal/testutil"
)

func TestStraightLineChain(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i
  i = 1
  i = i + 1
  j = i
end
`, false)
	// Find the use of i in "j = i" and in "i = i + 1".
	var defs []*ssa.Value
	var uses []*ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		as, ok := s.(*ir.AssignStmt)
		if !ok {
			return
		}
		if v := a.SSA.DefOf[s]; v != nil && v.Var.Name == "i" {
			defs = append(defs, v)
		}
		ir.WalkExpr(as.Src, func(x ir.Expr) {
			if r, ok := x.(*ir.VarRef); ok && r.Var.Name == "i" {
				uses = append(uses, a.SSA.UseOf[r])
			}
		})
	})
	if len(defs) != 2 || len(uses) != 2 {
		t.Fatalf("defs=%d uses=%d, want 2/2", len(defs), len(uses))
	}
	if uses[0] != defs[0] {
		t.Error("use in 'i = i + 1' should read the first def")
	}
	if uses[1] != defs[1] {
		t.Error("use in 'j = i' should read the second def")
	}
}

func TestPhiAtJoin(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i
  if (k > 0.0) then
    i = 1
  else
    i = 2
  endif
  j = i
end
`, false)
	// The use of i in "j = i" must read a phi merging the two defs.
	var use *ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					use = a.SSA.UseOf[r]
				}
			})
		}
	})
	if use == nil {
		t.Fatal("use of i not found")
	}
	if use.Kind != ssa.PhiDef {
		t.Fatalf("use kind = %s, want phi", use.Kind)
	}
	if len(use.Args) != 2 {
		t.Fatalf("phi has %d args", len(use.Args))
	}
	for _, arg := range use.Args {
		if arg == nil || arg.Kind != ssa.AssignDef {
			t.Errorf("phi arg = %v, want assign def", arg)
		}
	}
	if use.Args[0] == use.Args[1] {
		t.Error("phi args identical")
	}
}

func TestLoopHeaderPhi(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`, false)
	header := a.Fn.DoLoops[0].Header
	var iPhi *ssa.Value
	for _, phi := range a.SSA.PhisAt(header) {
		if phi.Var.Name == "i" {
			iPhi = phi
		}
	}
	if iPhi == nil {
		t.Fatal("no phi for i at loop header")
	}
	// One arg from preheader (the i=1 def), one from the latch (i=i+1).
	kinds := map[ssa.ValueKind]int{}
	for _, arg := range iPhi.Args {
		kinds[arg.Kind]++
	}
	if kinds[ssa.AssignDef] != 2 {
		t.Errorf("phi arg kinds = %v, want two assign defs", kinds)
	}
	// The use of i inside the body reads the phi.
	body := a.Fn.DoLoops[0].BodyEntry
	var bodyUse *ssa.Value
	for _, s := range body.Stmts {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					bodyUse = a.SSA.UseOf[r]
				}
			})
		}
	}
	if bodyUse != iPhi {
		t.Errorf("body use reads %v, want the header phi", bodyUse)
	}
}

func TestCallDefinesGlobals(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  integer g
  g = 1
  call f()
  j = g
end
subroutine f()
  g = 2
end
`, false)
	a := testutil.AnalyzeFunc(t, p, p.Main())
	var use *ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					use = a.SSA.UseOf[r]
				}
			})
		}
	})
	if use == nil || use.Kind != ssa.CallDef {
		t.Errorf("use of g after call = %v, want call def", use)
	}
}

func TestCallDoesNotDefineLocals(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  call f()
end
subroutine f()
  integer m
  m = 7
  call g()
  j = m
end
subroutine g()
  x = 1.0
end
`, false)
	a := testutil.AnalyzeFunc(t, p, p.FuncByName("f"))
	var use *ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					use = a.SSA.UseOf[r]
				}
			})
		}
	})
	if use == nil || use.Kind != ssa.AssignDef {
		t.Errorf("local m after call = %v, want the assign def (calls cannot touch locals)", use)
	}
}

func TestOutValues(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i
  i = 5
  do i = 1, 3
    j = i
  enddo
end
`, false)
	iVar := testutil.FindVar(t, a.Prog, a.Fn, "i")
	pre := a.Forest.Loops[0].Preheader
	v := a.SSA.ValueAtEnd(pre, iVar)
	if v == nil || v.Kind != ssa.AssignDef {
		t.Fatalf("value of i at preheader end = %v, want the i=1 assign", v)
	}
	if as, ok := v.Stmt.(*ir.AssignStmt); !ok || ir.ExprString(as.Src) != "1" {
		t.Errorf("preheader value defined by %v, want i = 1", v.Stmt)
	}
}

// TestOutValuesOnlyAtLoopEdges: block-exit values are kept for every
// loop header and preheader, and for no block outside a loop edge.
func TestOutValuesOnlyAtLoopEdges(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i, j
  real a(10)
  do i = 1, 10
    if (i > 5) then
      j = i
    endif
    a(i) = float(j)
  enddo
  print a(10)
end
`, false)
	l := a.Forest.Loops[0]
	iVar := testutil.FindVar(t, a.Prog, a.Fn, "i")
	for _, b := range []*ir.Block{l.Header, l.Preheader} {
		if a.SSA.ValueAtEnd(b, iVar) == nil {
			t.Errorf("no exit values at %s", b.Label)
		}
	}
	n := 0
	for _, b := range a.Fn.Blocks {
		if a.SSA.ValueAtEnd(b, iVar) != nil {
			n++
		}
	}
	if n != 2 {
		t.Errorf("exit values kept at %d blocks, want the header and the preheader", n)
	}
}

func TestEntryDefForUnassignedVar(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  j = n
end
`, false)
	var use *ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					use = a.SSA.UseOf[r]
				}
			})
		}
	})
	if use == nil || use.Kind != ssa.EntryDef {
		t.Errorf("use of never-assigned n = %v, want entry def", use)
	}
}

func TestParamsAreEntryDefs(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  call f(3)
end
subroutine f(n)
  j = n
end
`, false)
	a := testutil.AnalyzeFunc(t, p, p.FuncByName("f"))
	var use *ssa.Value
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "j" {
			ir.WalkExpr(as.Src, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					use = a.SSA.UseOf[r]
				}
			})
		}
	})
	if use == nil || use.Kind != ssa.EntryDef {
		t.Errorf("param use = %v, want entry def", use)
	}
}

func TestEveryVarRefMapped(t *testing.T) {
	a := testutil.AnalyzeMain(t, `program p
  integer i, j
  real a(10)
  do i = 1, 10
    if (i > 5) then
      a(i) = a(i - 1) + 1.0
    endif
  enddo
  while (j < 3)
    j = j + 1
  endwhile
end
`, true)
	missing := 0
	check := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if r, ok := x.(*ir.VarRef); ok {
				if a.SSA.UseOf[r] == nil {
					missing++
				}
			}
		})
	}
	a.Fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		ir.ForEachStmtExpr(s, check)
	})
	for _, b := range a.Fn.Blocks {
		if ifT, ok := b.Term.(*ir.If); ok {
			check(ifT.Cond)
		}
	}
	if missing != 0 {
		t.Errorf("%d VarRef occurrences unmapped", missing)
	}
}
