package report

import (
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
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

	naive := evalpool.Result{Prog: &nascent.Program{IR: p}, Res: nascent.RunResult{Instructions: 40, Checks: 1}}
	before := p.Fingerprint()
	row, err := buildRow1(suite.Program{Name: "loop"}, naive)
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

// TestCheckedBuildCountsAsPlain pins what lets Table 1 read every
// column from one run: a program compiled with naive range checks has
// the unchecked program's subroutines, loops, static instruction cost
// and dynamic instruction count, since checks cost nothing in either
// count. It holds for the suite and the irregular stress programs, with
// one exception by design: gather_tail's checked run traps before the
// out-of-range access that stops its unchecked run, so it counts
// fewer dynamic instructions. Table 1 rejects a trapping naive run.
func TestCheckedBuildCountsAsPlain(t *testing.T) {
	for _, p := range append(append([]suite.Program(nil), suite.Programs...), suite.Irregular...) {
		t.Run(p.Name, func(t *testing.T) {
			type counts struct {
				subroutines, loops int
				static, dynamic    uint64
			}
			measure := func(checks bool) (counts, nascent.RunResult, error) {
				prog, err := nascent.Compile(p.Source, nascent.Options{Filename: p.Name + ".mf", BoundsChecks: checks})
				if err != nil {
					t.Fatal(err)
				}
				res, err := prog.Run()
				return counts{len(prog.IR.Funcs) - 1, countLoops(prog.IR), interp.StaticCost(prog.IR), res.Instructions}, res, err
			}
			plain, plainRes, plainErr := measure(false)
			checked, checkedRes, err := measure(true)
			if err != nil {
				t.Fatal(err)
			}
			if checkedRes.Trapped {
				// The unchecked run must fail at the access the check
				// caught, after the instructions the checked run counted.
				if plainErr == nil || plainRes.Trapped || plain.dynamic < checked.dynamic {
					t.Errorf("checked run trapped at %d instructions; unchecked run: %d instructions, err %v",
						checked.dynamic, plain.dynamic, plainErr)
				}
				plain.dynamic = checked.dynamic
			} else if plainErr != nil {
				t.Fatal(plainErr)
			}
			if plain != checked {
				t.Errorf("unchecked %+v, naive checked %+v", plain, checked)
			}
		})
	}
}
