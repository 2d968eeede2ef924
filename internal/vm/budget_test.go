package vm_test

import (
	"errors"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// Budget-exit latitude of the bytecode pipeline against the tree
// engine. The optimizer folds the cost of deleted and fused
// instructions into lumps, so at an instruction-budget exit the
// bytecode counter may stand a few instructions away from the tree's.
// The check counter may not move: every check the VM counts it
// evaluates where the tree does.
const (
	budgetSteps      = 200 // budgets at k/200 of the full run, k = 1..199
	minInstrLatitude = -2  // bytecode Instructions - tree Instructions
	maxInstrLatitude = 7
)

// TestBudgetExitLatitude cuts every suite and irregular program,
// under naive, LLS and ALL, at 199 evenly spaced instruction budgets.
// At each budget exit both engines must report the budget error, the
// same Result.Checks, and Result.Instructions within the pinned
// latitude of the tree's.
func TestBudgetExitLatitude(t *testing.T) {
	progs := append(append([]suite.Program(nil), suite.Programs...), suite.Irregular...)
	var (
		mu         sync.Mutex
		exits, off int
		lo, hi     int64
	)
	t.Run("cuts", func(t *testing.T) {
		for _, sp := range progs {
			for _, s := range []nascent.Scheme{nascent.Naive, nascent.LLS, nascent.ALL} {
				t.Run(sp.Name+"/"+s.String(), func(t *testing.T) {
					t.Parallel()
					cp, err := nascent.Compile(sp.Source, nascent.Options{BoundsChecks: true, Scheme: s})
					if err != nil {
						t.Fatal(err)
					}
					vp, err := vm.CompileOptimized(cp.IR)
					if err != nil {
						t.Fatal(err)
					}
					full, _ := interp.Run(cp.IR, interp.Config{})
					for k := uint64(1); k < budgetSteps; k++ {
						cfg := interp.Config{MaxInstructions: k * full.Instructions / budgetSteps}
						ref, refErr := interp.Run(cp.IR, cfg)
						got, gotErr := vp.Run(cfg)
						if !errors.Is(refErr, interp.ErrLimit) || !errors.Is(gotErr, interp.ErrLimit) {
							t.Fatalf("budget %d: want a budget exit from both engines, got tree=%v vm=%v",
								cfg.MaxInstructions, refErr, gotErr)
						}
						if got.Checks != ref.Checks {
							t.Errorf("budget %d: checks = %d, tree has %d",
								cfg.MaxInstructions, got.Checks, ref.Checks)
						}
						d := int64(got.Instructions) - int64(ref.Instructions)
						if d < minInstrLatitude || d > maxInstrLatitude {
							t.Errorf("budget %d: instructions = %d, tree has %d (latitude [%d, %+d])",
								cfg.MaxInstructions, got.Instructions, ref.Instructions,
								minInstrLatitude, maxInstrLatitude)
						}
						mu.Lock()
						exits++
						if d != 0 {
							off++
						}
						lo, hi = min(lo, d), max(hi, d)
						mu.Unlock()
					}
				})
			}
		}
	})
	t.Logf("%d budget exits: instructions differ at %d, by %d to %+d", exits, off, lo, hi)
}
