package report

import (
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/ir"
	"nascent/internal/suite"
)

// TestBuildRow1LeavesResultIntact pins that folding a Table 1 row does
// not change the measured program: the Runner keeps the result and may
// hand it to a later table, but loop analysis inserts a preheader into
// a loop entered from two blocks, as this hand-built one is.
func TestBuildRow1LeavesResultIntact(t *testing.T) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	i := f.NewLocal("i", ir.Int)
	entry, left, right := f.NewBlock("entry"), f.NewBlock("left"), f.NewBlock("right")
	header, body, exit := f.NewBlock("header"), f.NewBlock("body"), f.NewBlock("exit")
	less := func(n int64) ir.Expr {
		return &ir.Bin{Op: ir.OpLt, L: &ir.VarRef{Var: i}, R: &ir.ConstInt{V: n}, Typ: ir.Bool}
	}
	entry.Term = &ir.If{Cond: less(0), Then: left, Else: right}
	left.Term = &ir.Goto{Target: header}
	right.Term = &ir.Goto{Target: header}
	header.Term = &ir.If{Cond: less(10), Then: body, Else: exit}
	body.Stmts = []ir.Stmt{&ir.AssignStmt{Dst: i, Src: &ir.Bin{Op: ir.OpAdd, L: &ir.VarRef{Var: i}, R: &ir.ConstInt{V: 1}, Typ: ir.Int}}}
	body.Term = &ir.Goto{Target: header}
	exit.Term = &ir.Ret{}
	f.RecomputePreds()

	plain := evalpool.Result{Prog: &nascent.Program{IR: p}, Res: nascent.RunResult{Instructions: 40}}
	checked := evalpool.Result{Prog: &nascent.Program{IR: p}, Res: nascent.RunResult{Checks: 1}}
	before := p.Fingerprint()
	row, err := buildRow1(suite.Program{Name: "loop"}, plain, checked)
	if err != nil {
		t.Fatal(err)
	}
	if row.Loops != 1 {
		t.Errorf("loops = %d, want 1", row.Loops)
	}
	if p.Fingerprint() != before || len(f.Blocks) != 6 {
		t.Error("building the Table 1 row changed the measured program")
	}
}
