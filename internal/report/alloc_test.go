package report_test

import (
	"runtime"
	"testing"

	"nascent/internal/report"
)

// regenerationAllocBudget is the ceiling on bytes allocated by one
// Tables 1–3 pass of a fresh report.Runner at one worker: ten parses
// and analyses, the lowerings, 210 optimized compiles and 137 tree
// engine runs. Each job lowered the program afresh, plus an unchecked
// Table 1 job per program, until the pass allocated 47,233,000 bytes
// (go1.24, linux/amd64); lowering each program once per BoundsChecks
// value and optimizing copy-on-write forks brought it to 37,060,000;
// keeping SSA block-exit values only at loop headers and the blocks
// entering them, to 36,302,000; with the budget then at 38,117,000, the
// pass read 36,150,560. Dominators, SSA and induction indexed by ID
// instead of pointer-keyed maps brought it to 30,160,584. Inserting
// statements into a block in place, not through a copied tail, brought
// it to 29,705,168. The ceiling leaves 5% over that.
const regenerationAllocBudget = 31_191_000

// TestRegenerationAllocBudget is a deterministic allocation gate on the
// table path: it measures runtime.MemStats.TotalAlloc growth across one
// Tables 1–3 pass on a single goroutine, after a warm-up pass on
// another Runner has settled process-level lazy state.
func TestRegenerationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	regenerate := func() {
		r := report.New(report.Config{Jobs: 1})
		for n, table := range []func() (string, error){r.Table1, r.Table2, r.Table3} {
			if _, err := table(); err != nil {
				t.Fatalf("table %d: %v", n+1, err)
			}
		}
	}
	regenerate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	regenerate()
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Tables 1–3 regeneration allocated %d bytes (budget %d)", total, regenerationAllocBudget)
	if total > regenerationAllocBudget {
		t.Errorf("one Tables 1–3 regeneration allocated %d bytes, budget %d", total, regenerationAllocBudget)
	}
}
