package dataflow_test

import (
	"testing"

	"nascent/internal/dataflow"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
	"nascent/internal/testutil"
)

// sameAsFresh fails the test unless a equals a fresh solve of f's
// anticipatability at every block, for every family a covers; a family
// it does not cover must have nothing anticipatable.
func sameAsFresh(t *testing.T, step string, f *ir.Func, reg *rangecheck.Registry, a *dataflow.Anticipation) {
	t.Helper()
	env := dataflow.NewEnv(f, reg)
	fresh := env.Anticipatability(dataflow.In)
	for _, b := range env.Order() {
		for _, fam := range env.Families {
			want := fresh.At(b)[fam.Index]
			if fam.Index >= a.Width() {
				if want != rangecheck.None && want != rangecheck.AllChecks {
					t.Errorf("%s: family %s not kept but anticipatable at b%d", step, fam, b.ID)
				}
				continue
			}
			if got := a.In(b)[fam.Index]; got != want {
				t.Errorf("%s: family %s at b%d: kept %d, fresh %d", step, fam, b.ID, got, want)
			}
		}
	}
}

// TestAnticipationUpkeep edits the checks of a function with a loop and
// brings a kept solution up to date after each edit: removing checks
// (Weaken), adding a check of a known family, and adding one of a family
// the registry did not hold when the solution was made (Strengthen).
func TestAnticipationUpkeep(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10), b(20)
  integer i, n
  n = 5
  i = 1
  while (i < n)
    a(i) = b(i + 2)
    i = i + 1
  endwhile
  a(n) = 1.0
end
`, true)
	f := p.Main()
	f.SplitCriticalEdges()
	reg := rangecheck.NewRegistry(rangecheck.ImplyFull)
	a := dataflow.NewEnv(f, reg).Anticipate()
	sameAsFresh(t, "solve", f, reg, a)

	// Remove every check inside the loop.
	var body []*ir.Block
	for _, blk := range f.Blocks {
		if len(blk.Preds) == 1 && len(blk.Stmts) > 0 {
			if _, ok := blk.Stmts[len(blk.Stmts)-1].(*ir.AssignStmt); ok {
				kept := blk.Stmts[:0]
				for _, s := range blk.Stmts {
					if _, isChk := s.(*ir.CheckStmt); !isChk {
						kept = append(kept, s)
					}
				}
				if len(kept) < len(blk.Stmts) {
					body = append(body, blk)
				}
				blk.Stmts = kept
			}
		}
	}
	if len(body) == 0 {
		t.Fatal("found no loop body block with checks")
	}
	a.Weaken(body)
	sameAsFresh(t, "remove", f, reg, a)

	// Append checks to the end of the loop header, inside the cycle:
	// one of a family the solution covers, one of a new family.
	entry := f.Entry()
	var header *ir.Block
	for _, blk := range f.Blocks {
		if _, ok := blk.Term.(*ir.If); ok {
			header = blk
		}
	}
	var n *ir.VarRef
	for _, s := range entry.Stmts {
		if as, ok := s.(*ir.AssignStmt); ok && as.Dst.Name == "n" {
			n = &ir.VarRef{Var: as.Dst}
		}
	}
	if n == nil {
		t.Fatal("no assignment to n in the entry block")
	}
	known := &ir.CheckStmt{Terms: []ir.CheckTerm{{Coef: 1, Atom: n}}, Const: 3}
	header.Stmts = append(header.Stmts, known)
	a.Strengthen(header, reg.FamilyOf(known), known.Const)
	sameAsFresh(t, "known family", f, reg, a)

	width := a.Width()
	fresh := &ir.CheckStmt{Terms: []ir.CheckTerm{{Coef: 3, Atom: n}}, Const: 40}
	header.Stmts = append(header.Stmts, fresh)
	a.Strengthen(header, reg.FamilyOf(fresh), fresh.Const)
	if a.Width() <= width {
		t.Errorf("a new family left the width at %d", a.Width())
	}
	sameAsFresh(t, "new family", f, reg, a)
}
