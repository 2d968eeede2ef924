package vm_test

import (
	"runtime"
	"testing"

	"nascent"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileAllocBudget caps the bytes vm.Compile allocates over the suite
// compiled naive and under LLS. While the kept pass regrew its code and
// pool from nil and both passes captured loop metadata and rendered
// check text, the sweep allocated 1,872,672 bytes (median of three
// runs, go1.24, linux/amd64); the budget is 90% of that. Sizing the
// kept pass from the discarded one brought it to about 1,246,000.
const compileAllocBudget = 1_685_404

// TestCompileAllocBudget is a deterministic allocation gate on the
// bytecode compiler: runtime.MemStats.TotalAlloc growth across
// vm.Compile calls only (the frontend runs outside the window), on a
// single goroutine.
func TestCompileAllocBudget(t *testing.T) {
	var total uint64
	var before, after runtime.MemStats
	for _, p := range suite.Programs {
		for _, sch := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
			prog, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			_, err = vm.Compile(prog.IR)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	t.Logf("vm.Compile allocated %d bytes (budget %d)", total, compileAllocBudget)
	if total > compileAllocBudget {
		t.Errorf("vm.Compile allocated %d bytes over the suite, budget %d", total, compileAllocBudget)
	}
}
