package vm_test

import (
	"runtime"
	"testing"

	"nascent"
	"nascent/internal/ir"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileAllocBudget caps the bytes vm.Compile allocates over the suite
// compiled naive and under LLS. While the kept pass regrew its code and
// pool from nil and both passes captured loop metadata and rendered
// check text, the sweep allocated 1,872,672 bytes (median of three
// runs, go1.24, linux/amd64). Sizing the kept pass from the discarded
// one brought it to about 1,246,000. Compiling both passes in a
// recycled scratch and copying out only the kept sections brought it
// to 238,640 (with the scratch warm); the budget leaves 5% over that.
const compileAllocBudget = 250_572

// compileOptimizedAllocBudget caps the bytes vm.CompileOptimized, the
// pipeline every bytecode engine name runs, allocates over the same
// sweep. Optimizing in the scratch, where the program was compiled,
// keeps it near vm.Compile's figure: it read 265,056. The budget
// leaves 5% over that.
const compileOptimizedAllocBudget = 278_309

// TestCompileAllocBudget is a deterministic allocation gate on the
// bytecode compiler: runtime.MemStats.TotalAlloc growth across
// vm.Compile calls, and separately across vm.CompileOptimized calls
// (the frontend runs outside the window), on a single goroutine. A
// warm-up sweep first grows the recycled compile scratch to the
// largest program, so the window counts what each compile keeps.
func TestCompileAllocBudget(t *testing.T) {
	var progs []*ir.Program
	for _, p := range suite.Programs {
		for _, sch := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
			prog, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, prog.IR)
		}
	}
	for _, p := range progs {
		if _, err := vm.CompileOptimized(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		compile func(*ir.Program) (*vm.Program, error)
		budget  uint64
	}{
		{"vm.Compile", vm.Compile, compileAllocBudget},
		{"vm.CompileOptimized", vm.CompileOptimized, compileOptimizedAllocBudget},
	} {
		var total uint64
		var before, after runtime.MemStats
		for _, p := range progs {
			runtime.ReadMemStats(&before)
			_, err := c.compile(p)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total += after.TotalAlloc - before.TotalAlloc
		}
		t.Logf("%s allocated %d bytes (budget %d)", c.name, total, c.budget)
		if total > c.budget {
			t.Errorf("%s allocated %d bytes over the suite, budget %d", c.name, total, c.budget)
		}
	}
}
