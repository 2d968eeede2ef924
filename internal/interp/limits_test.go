package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"nascent/internal/guard"
	"nascent/internal/ir"
	"nascent/internal/irbuild"
	"nascent/internal/parser"
	"nascent/internal/sem"
)

func buildProg(t *testing.T, src string, checks bool) *ir.Program {
	t.Helper()
	f, err := parser.Parse("test.mf", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := irbuild.Build(sp, irbuild.Options{BoundsChecks: checks})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

const spinSrc = `program p
  integer i
  i = 0
  while (i < 2000000000)
    i = i + 1
  endwhile
end
`

func TestInstructionBudgetIsTypedResourceError(t *testing.T) {
	p := buildProg(t, spinSrc, false)
	_, err := Run(p, Config{MaxInstructions: 10000})
	if !errors.Is(err, ErrLimit) {
		t.Errorf("err = %v, want ErrLimit compatibility", err)
	}
	if !errors.Is(err, ErrResourceExhausted) {
		t.Errorf("err = %v, want ErrResourceExhausted", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != ResInstructions {
		t.Errorf("err = %#v, want ResourceError{ResInstructions}", err)
	}
}

func TestDeadlineAbortsRun(t *testing.T) {
	p := buildProg(t, spinSrc, false)
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(30*time.Millisecond))
	defer cancel()
	_, err := Run(p, Config{Context: ctx})
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != ResDeadline {
		t.Fatalf("err = %v, want deadline ResourceError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline enforced after %v, want promptly", elapsed)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	p := buildProg(t, spinSrc, false)
	_, err := Run(p, Config{Context: ctx})
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != ResCancelled {
		t.Fatalf("err = %v, want cancellation ResourceError", err)
	}
	if !errors.Is(err, ErrResourceExhausted) {
		t.Errorf("err = %v, want ErrResourceExhausted", err)
	}
}

func TestMaxArrayCellsRejectsAllocation(t *testing.T) {
	p := buildProg(t, `program p
  real a(1000)
  a(1) = 1.0
end
`, false)
	_, err := Run(p, Config{MaxArrayCells: 100})
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != ResArrayCells {
		t.Fatalf("err = %v, want array cell ResourceError", err)
	}
	// A sufficient budget runs fine.
	if _, err := Run(p, Config{MaxArrayCells: 1000}); err != nil {
		t.Fatalf("exact budget: %v", err)
	}
}

func TestTrapCarriesClassAndPos(t *testing.T) {
	res := run(t, `program p
  real a(10)
  integer i
  i = 11
  a(i) = 1.0
end
`, true)
	if !res.Trapped {
		t.Fatal("expected trap")
	}
	if res.TrapClass != TrapCheck {
		t.Errorf("TrapClass = %q, want %q", res.TrapClass, TrapCheck)
	}
	if !res.TrapPos.IsValid() {
		t.Errorf("TrapPos = %v, want a valid position", res.TrapPos)
	}
}

func TestStaticTrapClass(t *testing.T) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	b := f.NewBlock("entry")
	b.Stmts = []ir.Stmt{&ir.TrapStmt{Note: "always"}}
	b.Term = &ir.Ret{}
	res, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trapped || res.TrapClass != TrapStatic {
		t.Errorf("Trapped=%v TrapClass=%q, want static trap", res.Trapped, res.TrapClass)
	}
}

// TestRunContainsInternalPanics feeds Run IR that violates an internal
// invariant (a load from an array that was never registered with the
// program) and asserts the panic is contained as a stage-tagged
// InternalError instead of crashing the caller.
func TestRunContainsInternalPanics(t *testing.T) {
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	v := p.NewVar("x", ir.Int, false, false)
	ghost := &ir.Array{Name: "ghost", Elem: ir.Int, Dims: []ir.Bounds{{Lo: 1, Hi: 4}}, ID: 7}
	b := f.NewBlock("entry")
	b.Stmts = []ir.Stmt{&ir.AssignStmt{
		Dst: v,
		Src: &ir.Load{Arr: ghost, Idx: []ir.Expr{&ir.ConstInt{V: 2}}},
	}}
	b.Term = &ir.Ret{}
	_, err := Run(p, Config{})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *guard.InternalError
	if !errors.As(err, &ie) || ie.Stage != "run" || ie.Fn != "main" {
		t.Errorf("err = %+v, want stage=run fn=main", ie)
	}
}

func TestRunNilProgram(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil program: expected error")
	}
	if _, err := Run(&ir.Program{}, Config{}); err == nil {
		t.Error("empty program: expected error")
	}
}
