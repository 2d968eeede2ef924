package dataflow_test

import (
	"testing"

	"nascent/internal/dataflow"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
	"nascent/internal/testutil"
)

// findCheck returns the idx-th check in the function (in block order).
func findCheck(f *ir.Func, idx int) (*ir.Block, int, *ir.CheckStmt) {
	n := 0
	for _, b := range f.Blocks {
		for i, s := range b.Stmts {
			if c, ok := s.(*ir.CheckStmt); ok {
				if n == idx {
					return b, i, c
				}
				n++
			}
		}
	}
	return nil, -1, nil
}

func TestAvailabilityStraightLine(t *testing.T) {
	// Two identical accesses: the second pair of checks sees the first
	// pair available.
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  a(i) = 1.0
  a(i) = 2.0
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)

	// Walk the entry block and check availability just before the third
	// check (the second access's lower check).
	b := f.Entry()
	st := availIn.At(b).Clone()
	seen := 0
	for _, s := range b.Stmts {
		if c, ok := s.(*ir.CheckStmt); ok {
			seen++
			if seen == 3 {
				fam := env.FamilyOf(c)
				if st[fam.Index] > c.Const {
					t.Errorf("check %d not available: state %d, const %d", seen, st[fam.Index], c.Const)
				}
			}
		}
		env.TransferForward(st, s)
	}
	if seen < 4 {
		t.Fatalf("only %d checks found", seen)
	}
}

func TestAvailabilityKilledByAssign(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  a(i) = 1.0
  i = i + i
  a(i) = 2.0
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)
	b := f.Entry()
	st := availIn.At(b).Clone()
	seen := 0
	for _, s := range b.Stmts {
		if c, ok := s.(*ir.CheckStmt); ok {
			seen++
			if seen == 3 || seen == 4 {
				fam := env.FamilyOf(c)
				if st[fam.Index] != rangecheck.None {
					t.Errorf("check %d available after non-affine kill (state %d)", seen, st[fam.Index])
				}
			}
		}
		env.TransferForward(st, s)
	}
}

func TestAvailabilityShiftOnIncrement(t *testing.T) {
	// i = i + 1 transfers (i <= 10) to (i <= 11) and (-i <= -1) to
	// (-i <= -2).
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  a(i) = 1.0
  i = i + 1
  j = i
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)
	b := f.Entry()
	st := availIn.At(b).Clone()
	var lowFam, upFam int = -1, -1
	for _, s := range b.Stmts {
		if c, ok := s.(*ir.CheckStmt); ok {
			fam := env.FamilyOf(c)
			if c.Const < 0 {
				lowFam = fam.Index
			} else {
				upFam = fam.Index
			}
		}
		env.TransferForward(st, s)
	}
	if lowFam < 0 || upFam < 0 {
		t.Fatal("families not found")
	}
	// At block end (after increment): lower family -i should hold -2,
	// upper family i should hold 11.
	if st[lowFam] != -2 {
		t.Errorf("lower family after shift = %d, want -2", st[lowFam])
	}
	if st[upFam] != 11 {
		t.Errorf("upper family after shift = %d, want 11", st[upFam])
	}
}

func TestAvailabilityMergeTakesWeakest(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  if (n > 0) then
    a(i) = 1.0
  else
    x = a(i + 4)
  endif
  j = i
end
`, true)
	f := p.Main()
	f.SplitCriticalEdges()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)
	// The join block: family i upper has 10 on then-path, 6 on
	// else-path => merged to 10 (weakest).
	var join *ir.Block
	for _, b := range f.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	// Find the upper family via any check.
	_, _, c := findCheck(f, 1) // i <= 10 (second check of then branch)
	env2 := env
	fam := env2.FamilyOf(c)
	got := availIn.At(join)[fam.Index]
	if got != 10 {
		t.Errorf("merged availability = %d, want 10", got)
	}
}

func TestAnticipatabilityBasics(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  j = i
  a(i) = 1.0
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	antIn := env.Anticipatability(dataflow.In)
	// At entry of the entry block: i is defined by i=n first, which
	// kills anticipatability; so at function entry the checks on i are
	// NOT anticipatable, but just after i=n they are. Walk forward to
	// check the post-assign state.
	b := f.Entry()
	_ = antIn
	st := env.NewState(rangecheck.AllChecks)
	// Recompute backward by hand: start from block-out.
	antOut := env.Anticipatability(dataflow.Out)
	st = antOut.At(b).Clone()
	// process statements in reverse until we pass j = i (position 1)
	var states []dataflow.State
	for i := len(b.Stmts) - 1; i >= 0; i-- {
		env.TransferBackward(st, b.Stmts[i])
		states = append([]dataflow.State{st.Clone()}, states...)
	}
	// states[0] = before stmt 0 (i = n): checks on i killed here.
	_, _, c := findCheck(f, 1) // upper check
	fam := env.FamilyOf(c)
	if states[0][fam.Index] != rangecheck.None {
		t.Errorf("ant before i=n should be None, got %d", states[0][fam.Index])
	}
	// states[1] = after i=n, before j=i: checks anticipatable.
	if states[1][fam.Index] != c.Const {
		t.Errorf("ant after i=n = %d, want %d", states[1][fam.Index], c.Const)
	}
}

func TestAnticipatabilityBranchMax(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  if (n > 0) then
    a(i) = 1.0
  else
    x = a(i + 4)
  endif
end
`, true)
	f := p.Main()
	f.SplitCriticalEdges()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	antOut := env.Anticipatability(dataflow.Out)
	// At exit of the entry block: upper checks (i<=10) and (i<=6) on the
	// two arms anticipate as max = 10 (paper: the weaker of the two).
	entry := f.Entry()
	_, _, c := findCheck(f, 1)
	fam := env.FamilyOf(c)
	if got := antOut.At(entry)[fam.Index]; got != 10 {
		t.Errorf("ant at branch = %d, want 10", got)
	}
}

func TestCallKills(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer n
  n = 3
  a(n) = 1.0
  call f()
  a(n) = 2.0
end
subroutine f()
  n = n * 2
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)
	b := f.Entry()
	st := availIn.At(b).Clone()
	checkIdx := 0
	for _, s := range b.Stmts {
		if c, ok := s.(*ir.CheckStmt); ok {
			checkIdx++
			if checkIdx == 3 { // first check after the call
				fam := env.FamilyOf(c)
				if st[fam.Index] != rangecheck.None {
					t.Errorf("availability survived a call that kills globals")
				}
			}
		}
		env.TransferForward(st, s)
	}
}

func TestStoreKillsLoadFamilies(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  integer b(10)
  real a(10)
  integer i
  i = 2
  x = a(b(i))
  b(1) = 5
  y = a(b(i))
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	availIn := env.Availability(dataflow.In)
	blk := f.Entry()
	st := availIn.At(blk).Clone()
	var afterStore bool
	for _, s := range blk.Stmts {
		if _, ok := s.(*ir.StoreStmt); ok {
			afterStore = true
			env.TransferForward(st, s)
			continue
		}
		if c, ok := s.(*ir.CheckStmt); ok && afterStore {
			// Checks on a(b(i)) after the store to b must not be
			// considered available.
			if len(c.Terms) == 1 {
				if _, isLoad := c.Terms[0].Atom.(*ir.Load); isLoad {
					fam := env.FamilyOf(c)
					if st[fam.Index] != rangecheck.None {
						t.Error("load-atom family survived store")
					}
				}
			}
		}
		env.TransferForward(st, s)
	}
}

func TestGuardedCheckGeneratesNothing(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  integer i, n
  i = n
  j = i
end
`, true)
	f := p.Main()
	// Insert a guarded check manually.
	var iVar *ir.Var
	for _, v := range p.Globals {
		if v.Name == "i" {
			iVar = v
		}
	}
	guard := &ir.Bin{Op: ir.OpLt, L: &ir.ConstInt{V: 0}, R: &ir.ConstInt{V: 1}, Typ: ir.Bool}
	cc := &ir.CheckStmt{
		Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: iVar}}},
		Const: 10,
		Guard: guard,
	}
	f.Entry().InsertStmts(1, cc)
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	st := env.NewState(rangecheck.None)
	env.TransferForward(st, cc)
	fam := env.FamilyOf(cc)
	if st[fam.Index] != rangecheck.None {
		t.Error("cond-check must not generate availability")
	}
	env.TransferBackward(st, cc)
	if st[fam.Index] != rangecheck.None {
		t.Error("cond-check must not generate anticipatability")
	}
}

func TestModeNoneNoShift(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  a(i) = 1.0
  i = i + 1
  j = i
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyNone))
	st := env.NewState(rangecheck.None)
	for _, s := range f.Entry().Stmts {
		env.TransferForward(st, s)
	}
	// After the increment nothing is available under ImplyNone.
	for i, v := range st {
		if v != rangecheck.None {
			t.Errorf("family %d available (%d) under ImplyNone after kill", i, v)
		}
	}
}
