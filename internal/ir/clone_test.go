package ir

import (
	"strings"
	"testing"
)

func cloneFixture() (*Program, *Func, *Var, *Array) {
	p := &Program{}
	f := &Func{Name: "t", IsMain: true}
	p.RegisterFunc(f)
	v := p.NewVar("v", Int, false, false)
	arr := p.NewArray("arr", Float, []Bounds{{1, 10}, {0, 4}}, false)
	return p, f, v, arr
}

func TestCloneStmtAllKinds(t *testing.T) {
	p, f, v, arr := cloneFixture()
	_ = p
	x := p.NewVar("x", Float, false, false)
	stmts := []Stmt{
		&AssignStmt{Dst: v, Src: &Bin{Op: OpAdd, L: &VarRef{Var: v}, R: &ConstInt{V: 1}, Typ: Int}},
		&StoreStmt{Arr: arr, Idx: []Expr{&VarRef{Var: v}, &ConstInt{V: 2}}, Val: &ConstFloat{V: 1.5}},
		&CheckStmt{Terms: []CheckTerm{{Coef: 2, Atom: &VarRef{Var: v}}}, Const: 9, Note: "n"},
		&CallStmt{Callee: f, Args: []Expr{&VarRef{Var: x}}},
		&PrintStmt{Args: []Expr{&VarRef{Var: x}}},
		&TrapStmt{Note: "boom"},
	}
	for _, s := range stmts {
		c := CloneStmt(s)
		if StmtString(c) != StmtString(s) {
			t.Errorf("clone differs: %s vs %s", StmtString(c), StmtString(s))
		}
		if c == s {
			t.Errorf("clone aliases original: %T", s)
		}
	}
	// Mutating a cloned check must not affect the original.
	orig := stmts[2].(*CheckStmt)
	cl := CloneStmt(orig).(*CheckStmt)
	cl.Terms[0].Coef = 99
	cl.Const = -1
	if orig.Terms[0].Coef != 2 || orig.Const != 9 {
		t.Error("mutating clone changed original check")
	}
}

func TestStmtStringForms(t *testing.T) {
	_, f, v, arr := cloneFixture()
	cases := []struct {
		s    Stmt
		want string
	}{
		{&AssignStmt{Dst: v, Src: &ConstInt{V: 3}}, "v = 3"},
		{&StoreStmt{Arr: arr, Idx: []Expr{&ConstInt{V: 1}, &ConstInt{V: 0}}, Val: &ConstFloat{V: 2}}, "arr(1, 0) = 2"},
		{&CallStmt{Callee: f, Args: []Expr{&ConstInt{V: 7}}}, "call t(7)"},
		{&PrintStmt{Args: []Expr{&VarRef{Var: v}}}, "print v"},
		{&TrapStmt{Note: "x"}, `trap "x"`},
	}
	for _, c := range cases {
		if got := StmtString(c.s); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestExprStringForms(t *testing.T) {
	_, _, v, arr := cloneFixture()
	cases := []struct {
		e    Expr
		want string
	}{
		{&Un{Op: OpNeg, X: &VarRef{Var: v}, Typ: Int}, "(-v)"},
		{&Un{Op: OpNot, X: &Bin{Op: OpLt, L: &VarRef{Var: v}, R: &ConstInt{V: 2}, Typ: Bool}, Typ: Bool}, "(not (v < 2))"},
		{&Call{Fn: IntrMod, Args: []Expr{&VarRef{Var: v}, &ConstInt{V: 3}}, Typ: Int}, "mod(v, 3)"},
		{&Load{Arr: arr, Idx: []Expr{&ConstInt{V: 1}, &ConstInt{V: 2}}}, "arr(1, 2)"},
		{&ConstFloat{V: 2.5}, "2.5"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func stmtExprs(s Stmt) []Expr {
	var out []Expr
	ForEachStmtExpr(s, func(e Expr) { out = append(out, e) })
	return out
}

func TestStmtExprsCoverage(t *testing.T) {
	_, f, v, arr := cloneFixture()
	guard := &Bin{Op: OpLt, L: &ConstInt{V: 0}, R: &ConstInt{V: 1}, Typ: Bool}
	chk := &CheckStmt{
		Terms: []CheckTerm{{Coef: 1, Atom: &VarRef{Var: v}}},
		Const: 5,
		Guard: guard,
	}
	exprs := stmtExprs(chk)
	if len(exprs) != 2 || exprs[0] != guard {
		t.Errorf("check exprs = %v", exprs)
	}
	st := &StoreStmt{Arr: arr, Idx: []Expr{&ConstInt{V: 1}, &ConstInt{V: 2}}, Val: &ConstFloat{V: 0}}
	if got := stmtExprs(st); len(got) != 3 {
		t.Errorf("store exprs = %d, want 3", len(got))
	}
	call := &CallStmt{Callee: f, Args: []Expr{&ConstInt{V: 1}}}
	if got := stmtExprs(call); len(got) != 1 {
		t.Errorf("call exprs = %d", len(got))
	}
}

func TestDefs(t *testing.T) {
	_, f, v, arr := cloneFixture()
	if Defs(&AssignStmt{Dst: v, Src: &ConstInt{V: 1}}) != v {
		t.Error("assign defs")
	}
	if Defs(&StoreStmt{Arr: arr, Idx: []Expr{&ConstInt{V: 1}, &ConstInt{V: 0}}, Val: &ConstFloat{V: 0}}) != nil {
		t.Error("store must not def a scalar")
	}
	if Defs(&CallStmt{Callee: f}) != nil {
		t.Error("call defs handled separately")
	}
}

func TestProgramDumpMultiFunc(t *testing.T) {
	p := &Program{}
	f1 := &Func{Name: "main", IsMain: true}
	p.RegisterFunc(f1)
	b1 := f1.NewBlock("entry")
	b1.Term = &Ret{}
	f2 := &Func{Name: "helper"}
	p.RegisterFunc(f2)
	b2 := f2.NewBlock("entry")
	b2.Term = &Ret{}
	d := p.Dump()
	if !strings.Contains(d, "main main()") || !strings.Contains(d, "func helper()") {
		t.Errorf("dump:\n%s", d)
	}
	if p.FuncByName("helper") != f2 || p.FuncByName("nope") != nil {
		t.Error("FuncByName")
	}
}

func TestVarAndArrayHelpers(t *testing.T) {
	_, f, v, arr := cloneFixture()
	if v.String() != "v" || arr.String() != "arr" {
		t.Error("String methods")
	}
	if arr.Len() != 10*5 {
		t.Errorf("arr len = %d", arr.Len())
	}
	loc := f.NewLocal("loc", Float)
	if loc.Temp || loc.Global {
		t.Error("local flags")
	}
	tmp := f.NewTemp("tmp", Int)
	if !tmp.Temp {
		t.Error("temp flag")
	}
	if len(f.Locals) != 2 {
		t.Errorf("locals = %d", len(f.Locals))
	}
}
