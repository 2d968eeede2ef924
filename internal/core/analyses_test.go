package core_test

import (
	"testing"

	"nascent/internal/core"
	"nascent/internal/ir"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

// wantAnalyses is what optimizing funcs functions under sch and kind
// builds when dominators are computed domPer times per function: SSA
// and induction once per function for the schemes that hoist (LI, LLS,
// ALL, MCM) and for INX checks, post-dominators for MCM alone.
func wantAnalyses(sch core.Scheme, kind core.CheckKind, funcs, domPer int) core.AnalysisCounts {
	want := core.AnalysisCounts{Dom: funcs}
	hoists := sch == core.LI || sch == core.LLS || sch == core.ALL || sch == core.MCM
	if !hoists && kind != core.INX {
		return want
	}
	want.Dom = funcs * domPer
	want.SSA, want.Induction = funcs, funcs
	if sch == core.MCM {
		want.PostDom = funcs
	}
	return want
}

// TestAnalysesByScheme pins which analyses core.Optimize builds per
// scheme × kind over the suite. NI, CS, LNI and SE over PRX checks read
// no SSA, induction or post-dominators, so none are built. The suite's
// loops all have preheaders from lowering, so dominators are computed
// once per function.
func TestAnalysesByScheme(t *testing.T) {
	for _, kind := range allKinds {
		for _, sch := range allSchemes {
			counts, restore := core.CountAnalysesForTest()
			funcs := 0
			for _, p := range suite.Programs {
				prog := testutil.BuildIR(t, p.Source, true)
				funcs += len(prog.Funcs)
				if _, err := core.Optimize(prog, core.Options{Scheme: sch, Kind: kind}); err != nil {
					restore()
					t.Fatalf("%v %v %s: %v", sch, kind, p.Name, err)
				}
			}
			restore()
			if want := wantAnalyses(sch, kind, funcs, 1); *counts != want {
				t.Errorf("%v %v over %d functions: built %+v, want %+v", sch, kind, funcs, *counts, want)
			}
		}
	}
}

// twoEntryLoop builds a function whose counted loop is entered from two
// blocks, so loop analysis must insert a preheader: i = 1, then a
// branch to a or b, both jumping to header h; the body checks a(i) on
// a(1:10), stores it and increments i.
func twoEntryLoop() *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	i := p.NewVar("i", ir.Int, true, false)
	arr := p.NewArray("a", ir.Int, []ir.Bounds{{Lo: 1, Hi: 10}}, true)
	iref := func() ir.Expr { return &ir.VarRef{Var: i} }
	entry, a, b, h, body, exit := f.NewBlock("entry"), f.NewBlock("a"), f.NewBlock("b"),
		f.NewBlock("h"), f.NewBlock("body"), f.NewBlock("exit")
	entry.Stmts = []ir.Stmt{&ir.AssignStmt{Dst: i, Src: &ir.ConstInt{V: 1}}}
	entry.Term = &ir.If{Cond: &ir.Bin{Op: ir.OpLt, L: iref(), R: &ir.ConstInt{V: 5}, Typ: ir.Bool}, Then: a, Else: b}
	a.Term = &ir.Goto{Target: h}
	b.Term = &ir.Goto{Target: h}
	h.Term = &ir.If{Cond: &ir.Bin{Op: ir.OpLe, L: iref(), R: &ir.ConstInt{V: 10}, Typ: ir.Bool}, Then: body, Else: exit}
	body.Stmts = []ir.Stmt{
		&ir.CheckStmt{Terms: []ir.CheckTerm{{Coef: 1, Atom: iref()}}, Const: 10, Note: "a(i) upper"},
		&ir.CheckStmt{Terms: []ir.CheckTerm{{Coef: -1, Atom: iref()}}, Const: -1, Note: "a(i) lower"},
		&ir.StoreStmt{Arr: arr, Idx: []ir.Expr{iref()}, Val: iref()},
		&ir.AssignStmt{Dst: i, Src: &ir.Bin{Op: ir.OpAdd, L: iref(), R: &ir.ConstInt{V: 1}, Typ: ir.Int}},
	}
	body.Term = &ir.Goto{Target: h}
	exit.Term = &ir.Ret{}
	f.RecomputePreds()
	return p
}

// TestDominatorsRecomputedAfterNewPreheader covers the other branch:
// when loop analysis inserts a preheader, the schemes that read
// dominators get a tree recomputed over the new CFG and optimize the
// function without degrading; the rest compute dominators once.
func TestDominatorsRecomputedAfterNewPreheader(t *testing.T) {
	for _, kind := range allKinds {
		for _, sch := range allSchemes {
			p := twoEntryLoop()
			if err := p.Verify(); err != nil {
				t.Fatalf("hand-built IR: %v", err)
			}
			counts, restore := core.CountAnalysesForTest()
			res, err := core.Optimize(p, core.Options{Scheme: sch, Kind: kind})
			restore()
			if err != nil || len(res.Degraded) > 0 {
				t.Fatalf("%v %v: err %v, degraded %v %v", sch, kind, err, res.Degraded, res.Diagnostics)
			}
			if want := wantAnalyses(sch, kind, 1, 2); *counts != want {
				t.Errorf("%v %v: built %+v, want %+v", sch, kind, *counts, want)
			}
		}
	}
}
