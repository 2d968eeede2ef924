package dataflow_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nascent/internal/dataflow"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
	"nascent/internal/testutil"
)

// randomState builds a random lattice state of width n.
func randomState(r *rand.Rand, n int) dataflow.State {
	s := make(dataflow.State, n)
	for i := range s {
		switch r.Intn(4) {
		case 0:
			s[i] = rangecheck.None
		case 1:
			s[i] = rangecheck.AllChecks
		default:
			s[i] = int64(r.Intn(41) - 20)
		}
	}
	return s
}

// TestMeetLattice checks the must-meet's lattice laws: idempotence,
// commutativity, associativity, and monotonicity toward None.
func TestMeetLattice(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomState(r, n)
		b := randomState(r, n)
		c := randomState(r, n)

		// idempotence: a ⊓ a = a
		x := a.Clone()
		x.MeetInto(a)
		for i := range x {
			if x[i] != a[i] {
				return false
			}
		}
		// commutativity: a ⊓ b = b ⊓ a
		ab := a.Clone()
		ab.MeetInto(b)
		ba := b.Clone()
		ba.MeetInto(a)
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		// associativity: (a ⊓ b) ⊓ c = a ⊓ (b ⊓ c)
		l := a.Clone()
		l.MeetInto(b)
		l.MeetInto(c)
		bc := b.Clone()
		bc.MeetInto(c)
		rr := a.Clone()
		rr.MeetInto(bc)
		for i := range l {
			if l[i] != rr[i] {
				return false
			}
		}
		// meet never strengthens: result >= each input elementwise
		for i := range ab {
			if ab[i] < a[i] || ab[i] < b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTransferMonotone checks that the forward transfer function is
// monotone: a weaker input state yields a weaker (or equal) output.
func TestTransferMonotone(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i, n
  i = n
  a(i) = 1.0
  i = i + 1
  a(i) = 2.0
  call f()
  a(n) = 3.0
end
subroutine f()
  n = n * 2
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))

	var stmts []ir.Stmt
	f.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) { stmts = append(stmts, s) })

	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo := randomState(r, env.NumFamilies())
		hi := lo.Clone()
		// hi is weaker than lo (elementwise >=).
		for i := range hi {
			if r.Intn(2) == 0 && hi[i] != rangecheck.None {
				hi[i] = rangecheck.None
			}
		}
		for _, s := range stmts {
			env.TransferForward(lo, s)
			env.TransferForward(hi, s)
			for i := range lo {
				if hi[i] < lo[i] {
					return false // transfer inverted the ordering
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCheckGenIdempotent transfers the same check twice: the second
// application must not change the state.
func TestCheckGenIdempotent(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(10)
  integer i
  a(i) = 1.0
end
`, true)
	f := p.Main()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	var chk *ir.CheckStmt
	f.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if c, ok := s.(*ir.CheckStmt); ok && chk == nil {
			chk = c
		}
	})
	st := env.NewState(rangecheck.None)
	env.TransferForward(st, chk)
	once := st.Clone()
	env.TransferForward(st, chk)
	for i := range st {
		if st[i] != once[i] {
			t.Fatalf("gen not idempotent at family %d: %d vs %d", i, st[i], once[i])
		}
	}
}

// TestAvailabilityFixpointStable re-running the solver on the same
// function yields identical states (determinism), and applying the block
// transfer to the reported in-state reproduces the reported out-state
// (consistency).
func TestAvailabilityFixpointStable(t *testing.T) {
	p := testutil.BuildIR(t, `program p
  real a(20), b(20)
  integer i, n
  n = 15
  call f()
  do i = 1, n
    a(i) = b(i) + a(i)
    if (i > 3) then
      b(i) = a(i - 1)
    endif
  enddo
end
subroutine f()
  n = n + 0
end
`, true)
	f := p.Main()
	f.SplitCriticalEdges()
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	in1, out1 := env.Availability(dataflow.In), env.Availability(dataflow.Out)
	in2, out2 := env.Availability(dataflow.In), env.Availability(dataflow.Out)
	for _, b := range f.ReversePostorder() {
		for i := range in1.At(b) {
			if in1.At(b)[i] != in2.At(b)[i] || out1.At(b)[i] != out2.At(b)[i] {
				t.Fatalf("solver nondeterministic at block b%d family %d", b.ID, i)
			}
		}
		// Consistency: transfer(in) == out.
		st := in1.At(b).Clone()
		for _, s := range b.Stmts {
			env.TransferForward(st, s)
		}
		for i := range st {
			if st[i] != out1.At(b)[i] {
				t.Fatalf("out inconsistent with transfer at b%d family %d: %d vs %d",
					b.ID, i, st[i], out1.At(b)[i])
			}
		}
	}
}
