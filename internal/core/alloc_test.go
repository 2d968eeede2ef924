package core_test

import (
	"runtime"
	"testing"

	"nascent/internal/core"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

// tableConfigs lists the distinct optimizer configurations of Tables
// 2 and 3 (Table 1 runs no optimizer): the seven placement schemes ×
// {PRX, INX} with full implications, plus the primed NI′, SE′ (no
// implications) and LLS′ (cross-family only) rows.
func tableConfigs() []core.Options {
	var out []core.Options
	for _, kind := range []core.CheckKind{core.PRX, core.INX} {
		for _, sch := range core.Schemes {
			out = append(out, core.Options{Scheme: sch, Kind: kind})
		}
		out = append(out,
			core.Options{Scheme: core.NI, Kind: kind, Mode: rangecheck.ImplyNone},
			core.Options{Scheme: core.SE, Kind: kind, Mode: rangecheck.ImplyNone},
			core.Options{Scheme: core.LLS, Kind: kind, Mode: rangecheck.ImplyCross})
	}
	return out
}

// optimizeAllocBudget is the ceiling on bytes allocated by core.Optimize
// over the 10 suite programs × 20 table configurations. Before check
// families were interned to dense ids and the dataflow moved to slabs,
// the optimizer allocated 88,786,176 bytes for this sweep (go1.24,
// linux/amd64); with interning it allocated 45,306,608 bytes, while it
// still built SSA, induction and post-dominators for every scheme, and
// 38,483,216 bytes once it built them only for the schemes that read
// them. Preheader insertion then kept one anticipatability solution per
// function instead of solving once per loop, and the snapshot taken
// before optimizing stopped copying statements: 32,332,224 bytes, and
// 31,578,008 under a ceiling of 34,634,894 (90% of the 38,483,216).
// Dominators, SSA and induction then stored their facts by ID (slices by
// block position, variable and loop, and an IE memo keyed by loop and
// value ID) instead of in pointer-keyed maps: 25,646,936 bytes. The
// ceiling is 105% of that.
const optimizeAllocBudget = 26_930_000

// TestOptimizeAllocBudget is a deterministic allocation gate on the
// range check optimizer: it sums runtime.MemStats.TotalAlloc growth
// across core.Optimize calls only (IR construction is outside the
// measured window), on a single goroutine.
func TestOptimizeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full optimizer sweep in short mode")
	}
	var total uint64
	var before, after runtime.MemStats
	for _, p := range suite.Programs {
		for _, opts := range tableConfigs() {
			prog := testutil.BuildIR(t, p.Source, true)
			total += measureOptimize(t, prog, opts, &before, &after)
		}
	}
	t.Logf("core.Optimize allocated %d bytes (budget %d)", total, optimizeAllocBudget)
	if total > optimizeAllocBudget {
		t.Errorf("core.Optimize allocated %d bytes over the table sweep, budget %d", total, optimizeAllocBudget)
	}
}

func measureOptimize(t *testing.T, p *ir.Program, opts core.Options, before, after *runtime.MemStats) uint64 {
	t.Helper()
	runtime.ReadMemStats(before)
	_, err := core.Optimize(p, opts)
	runtime.ReadMemStats(after)
	if err != nil {
		t.Fatalf("optimize %v: %v", opts, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}
