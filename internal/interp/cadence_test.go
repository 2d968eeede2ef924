package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"nascent/internal/chaos"
	"nascent/internal/core"
	"nascent/internal/ir"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

// Cost cadence: where the tree engine stops on a blown budget, what it
// reports when a check term faults, and when it polls. The budget-exit
// figures below were recorded from the engine before cost accounting
// moved to a single threshold; they must not move.

type budgetExit struct {
	limit, instr, checks uint64
}

// budgetExits pins Result.Instructions and Result.Checks at instruction
// budget exits: per suite program and optimizer configuration, at a
// quarter of the full run (+7), at half (+13) and one short of it.
var budgetExits = []struct {
	prog, config string
	exits        [3]budgetExit
}{
	{"vortex", "naive", [3]budgetExit{{120702, 120703, 47932}, {241404, 241405, 96320}, {482782, 482783, 192976}}},
	{"vortex", "LLS/PRX", [3]budgetExit{{120702, 120703, 0}, {241404, 241405, 0}, {482782, 482783, 0}}},
	{"vortex", "ALL/INX", [3]budgetExit{{128265, 128266, 0}, {256530, 256531, 0}, {513033, 513034, 0}}},
	{"arc2d", "naive", [3]budgetExit{{136696, 136697, 67328}, {273391, 273392, 138398}, {546755, 546756, 277008}}},
	{"arc2d", "LLS/PRX", [3]budgetExit{{136696, 136697, 0}, {273391, 273392, 0}, {546755, 546756, 0}}},
	{"arc2d", "ALL/INX", [3]budgetExit{{150568, 150569, 0}, {301135, 301136, 0}, {602243, 602244, 0}}},
	{"bdna", "naive", [3]budgetExit{{41118, 41119, 12352}, {82235, 82236, 25988}, {164443, 164444, 53328}}},
	{"bdna", "LLS/PRX", [3]budgetExit{{42438, 42439, 310}, {84875, 84876, 878}, {169723, 169724, 2040}}},
	{"bdna", "ALL/INX", [3]budgetExit{{45245, 45246, 310}, {90490, 90491, 878}, {180954, 180955, 2040}}},
	{"dyfesm", "naive", [3]budgetExit{{45977, 45978, 16538}, {91954, 91955, 32986}, {183882, 183883, 66352}}},
	{"dyfesm", "LLS/PRX", [3]budgetExit{{45977, 45978, 640}, {91954, 91955, 1176}, {183882, 183883, 1920}}},
	{"dyfesm", "ALL/INX", [3]budgetExit{{53630, 53631, 640}, {107259, 107260, 1176}, {214491, 214492, 1920}}},
	{"mdg", "naive", [3]budgetExit{{162897, 162898, 72264}, {325794, 325795, 145788}, {651562, 651563, 292032}}},
	{"mdg", "LLS/PRX", [3]budgetExit{{163053, 163054, 24}, {326106, 326107, 75}, {652186, 652187, 150}}},
	{"mdg", "ALL/INX", [3]budgetExit{{168318, 168319, 24}, {336636, 336639, 75}, {673246, 673247, 150}}},
	{"qcd", "naive", [3]budgetExit{{13252, 13254, 5188}, {26503, 26504, 11184}, {52979, 52980, 22464}}},
	{"qcd", "LLS/PRX", [3]budgetExit{{13252, 13254, 160}, {26503, 26504, 348}, {52979, 52980, 648}}},
	{"qcd", "ALL/INX", [3]budgetExit{{14188, 14190, 158}, {28375, 28376, 348}, {56723, 56724, 648}}},
	{"spec77", "naive", [3]budgetExit{{72115, 72116, 29232}, {144229, 144230, 58784}, {288432, 288433, 117696}}},
	{"spec77", "LLS/PRX", [3]budgetExit{{72218, 72219, 19}, {144435, 144436, 48}, {288843, 288844, 137}}},
	{"spec77", "ALL/INX", [3]budgetExit{{78027, 78028, 18}, {156054, 156055, 46}, {312081, 312082, 134}}},
	{"trfd", "naive", [3]budgetExit{{136960, 136961, 52884}, {273920, 273921, 108608}, {547814, 547815, 218976}}},
	{"trfd", "LLS/PRX", [3]budgetExit{{141226, 141227, 2400}, {282452, 282453, 7980}, {564878, 564879, 19200}}},
	{"trfd", "ALL/INX", [3]budgetExit{{150601, 150602, 2394}, {301202, 301203, 4638}, {602378, 602379, 9192}}},
	{"linpackd", "naive", [3]budgetExit{{32390, 32392, 13716}, {64780, 64781, 31026}, {129534, 129535, 64094}}},
	{"linpackd", "LLS/PRX", [3]budgetExit{{33296, 33297, 88}, {66592, 66595, 227}, {133158, 133159, 819}}},
	{"linpackd", "ALL/INX", [3]budgetExit{{37019, 37020, 86}, {74038, 74039, 227}, {148049, 148050, 819}}},
	{"simple", "naive", [3]budgetExit{{118287, 118288, 60228}, {236573, 236576, 121088}, {473119, 473120, 237236}}},
	{"simple", "LLS/PRX", [3]budgetExit{{118892, 118895, 1152}, {237783, 237784, 2304}, {475539, 475540, 5760}}},
	{"simple", "ALL/INX", [3]budgetExit{{125680, 125681, 1152}, {251360, 251361, 2304}, {502694, 502695, 5760}}},
}

var cadenceConfigs = map[string]*core.Options{
	"naive":   nil,
	"LLS/PRX": {Scheme: core.LLS, Kind: core.PRX},
	"ALL/INX": {Scheme: core.ALL, Kind: core.INX},
}

// TestBudgetExitCounts checks the pinned budget-exit counts, untimed
// and timed (a Context makes the engine poll, so its threshold is the
// nearer of the budget and the next poll).
func TestBudgetExitCounts(t *testing.T) {
	for _, row := range budgetExits {
		sp, err := suite.Get(row.prog)
		if err != nil {
			t.Fatal(err)
		}
		prog := testutil.BuildIR(t, sp.Source, true)
		if opts := cadenceConfigs[row.config]; opts != nil {
			if _, err := core.Optimize(prog, *opts); err != nil {
				t.Fatalf("%s %s: %v", row.prog, row.config, err)
			}
		}
		for _, want := range row.exits {
			for _, ctx := range []context.Context{nil, context.Background()} {
				res, err := Run(prog, Config{MaxInstructions: want.limit, Context: ctx})
				if !errors.Is(err, ErrLimit) {
					t.Fatalf("%s %s limit %d (timed %v): err = %v, want budget exit", row.prog, row.config, want.limit, ctx != nil, err)
				}
				if res.Instructions != want.instr || res.Checks != want.checks {
					t.Errorf("%s %s limit %d (timed %v): exit at %d instructions, %d checks; want %d, %d",
						row.prog, row.config, want.limit, ctx != nil, res.Instructions, res.Checks, want.instr, want.checks)
				}
			}
		}
	}
}

// checkProgram builds main: x = 5, then the given statements, then
// return. It also declares an int array a(1:4).
func checkProgram(stmts func(x *ir.Var, a *ir.Array) []ir.Stmt) *ir.Program {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	x := p.NewVar("x", ir.Int, true, false)
	a := p.NewArray("a", ir.Int, []ir.Bounds{{Lo: 1, Hi: 4}}, true)
	b := f.NewBlock("entry")
	b.Stmts = append([]ir.Stmt{&ir.AssignStmt{Dst: x, Src: &ir.ConstInt{V: 5}}}, stmts(x, a)...)
	b.Term = &ir.Ret{}
	return p
}

func xPlus(x *ir.Var, k int64) ir.Expr {
	return &ir.Bin{Op: ir.OpAdd, L: &ir.VarRef{Var: x}, R: &ir.ConstInt{V: k}, Typ: ir.Int}
}

// TestCheckTermFaultCount: a runtime error inside a check's terms
// reports the instruction count from before the check began (the
// assignment's 1), not the terms' work.
func TestCheckTermFaultCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		atom func(x *ir.Var, a *ir.Array) ir.Expr
		want error
	}{
		{"subscript", func(x *ir.Var, a *ir.Array) ir.Expr {
			return &ir.Load{Arr: a, Idx: []ir.Expr{xPlus(x, 10)}} // a(15) on a(1:4)
		}, nil},
		{"div", func(x *ir.Var, _ *ir.Array) ir.Expr {
			return &ir.Bin{Op: ir.OpDiv, L: xPlus(x, 1), R: &ir.ConstInt{V: 0}, Typ: ir.Int}
		}, ErrDivZero},
	} {
		p := checkProgram(func(x *ir.Var, a *ir.Array) []ir.Stmt {
			return []ir.Stmt{&ir.CheckStmt{
				Terms: []ir.CheckTerm{{Coef: 1, Atom: xPlus(x, 2)}, {Coef: 1, Atom: tc.atom(x, a)}},
				Const: 100,
				Note:  tc.name,
			}}
		})
		res, err := Run(p, Config{})
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: err = %v, want a runtime error", tc.name, err)
		}
		if res.Instructions != 1 || res.Checks != 1 {
			t.Errorf("%s: faulted at %d instructions, %d checks; want 1, 1", tc.name, res.Instructions, res.Checks)
		}
	}
}

// TestNoPollInsideCheckTerms: a check whose terms cost 3 runs first, at
// the point where the engine's first poll is due, and fails. A
// cancelled context, a past deadline, an armed tree.poll.budget chaos
// site or a budget of 1 must not fire while its terms evaluate: the
// run traps. With a passing check the same configurations stop the run
// at the next charged instruction, which shows each was armed.
func TestNoPollInsideCheckTerms(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name   string
		cfg    Config
		chaos  bool
		want   Resource
		exitAt uint64 // the first poll is due at the first charge
	}{
		{"context", Config{Context: cancelled}, false, ResCancelled, 1},
		{"deadline", Config{Context: expired}, false, ResDeadline, 1},
		{"chaos", Config{}, true, ResInstructions, 1},
		{"budget", Config{MaxInstructions: 1}, false, ResInstructions, 2},
	} {
		for _, fails := range []bool{true, false} {
			k := int64(100)
			if fails {
				k = -1
			}
			p := &ir.Program{}
			f := &ir.Func{Name: "main", IsMain: true}
			p.RegisterFunc(f)
			x := p.NewVar("x", ir.Int, true, false)
			b := f.NewBlock("entry")
			b.Stmts = []ir.Stmt{
				&ir.CheckStmt{Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.Bin{Op: ir.OpMul, L: xPlus(x, 1), R: &ir.VarRef{Var: x}, Typ: ir.Int}}}, Const: k},
				&ir.AssignStmt{Dst: x, Src: &ir.ConstInt{V: 7}},
				&ir.AssignStmt{Dst: x, Src: &ir.ConstInt{V: 8}},
			}
			b.Term = &ir.Ret{}
			if tc.chaos {
				chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTreeBudget})
			}
			res, err := Run(p, tc.cfg)
			chaos.Disable()
			if fails {
				if err != nil || !res.Trapped || res.Instructions != 0 || res.Checks != 1 {
					t.Errorf("%s, failing check: trapped %v at %d instructions, %d checks, err %v; want a trap at 0, 1",
						tc.name, res.Trapped, res.Instructions, res.Checks, err)
				}
				continue
			}
			var re *ResourceError
			if !errors.As(err, &re) || re.Resource != tc.want || res.Instructions != tc.exitAt {
				t.Errorf("%s, passing check: err %v at %d instructions; want %v at %d", tc.name, err, res.Instructions, tc.want, tc.exitAt)
			}
		}
	}
}

// TestCondCheckGuardCharge: a cond-check's guard costs its expression
// (x < 0: a read and a compare) plus 1 for the test, whichever way it
// goes; only a true guard performs the (uncharged) range check.
func TestCondCheckGuardCharge(t *testing.T) {
	for _, guardTrue := range []bool{false, true} {
		op := ir.OpLt
		if guardTrue {
			op = ir.OpGt
		}
		p := checkProgram(func(x *ir.Var, _ *ir.Array) []ir.Stmt {
			return []ir.Stmt{&ir.CheckStmt{
				Terms: []ir.CheckTerm{{Coef: 1, Atom: xPlus(x, 1)}},
				Const: 100,
				Guard: &ir.Bin{Op: op, L: &ir.VarRef{Var: x}, R: &ir.ConstInt{V: 0}, Typ: ir.Bool},
			}}
		})
		res, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// assign 1 + guard (read 1, compare 1, test 1) + return 1.
		wantChecks := uint64(0)
		if guardTrue {
			wantChecks = 1
		}
		if res.Instructions != 5 || res.Checks != wantChecks {
			t.Errorf("guard %v: %d instructions, %d checks; want 5, %d", guardTrue, res.Instructions, res.Checks, wantChecks)
		}
	}
}
