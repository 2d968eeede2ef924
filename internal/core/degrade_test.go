package core_test

import (
	"errors"
	"strings"
	"testing"

	"nascent/internal/chaos"
	"nascent/internal/core"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

// degradeSrc has three units so one can fail while the others optimize.
const degradeSrc = `program p
  integer i
  real a(10)
  do i = 1, 10
    a(i) = float(i)
  enddo
  call f()
  call g()
  print a(5)
end
subroutine f()
  integer i
  real b(10)
  do i = 1, 10
    b(i) = float(i) * 2.0
  enddo
end
subroutine g()
  integer i
  real c(10)
  do i = 1, 10
    c(i) = float(i) * 3.0
  enddo
end
`

// TestOptimizeDegradesPerFunction injects a panic into the optimization
// of one function and asserts: the compile still succeeds, only that
// function keeps its naive checks, the rest of the program is
// optimized, the counter identity holds, and the program still runs.
func TestOptimizeDegradesPerFunction(t *testing.T) {
	core.FailFuncForTest("f")
	defer core.FailFuncForTest("")

	p := testutil.BuildIR(t, degradeSrc, true)
	fChecksBefore := p.FuncByName("f").CountChecks()
	gChecksBefore := p.FuncByName("g").CountChecks()

	res, err := core.Optimize(p, core.Options{Scheme: core.LLS, Mode: rangecheck.ImplyFull})
	if err != nil {
		t.Fatalf("Optimize returned hard error, want graceful degradation: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != "f" {
		t.Fatalf("Degraded = %v, want [f]", res.Degraded)
	}
	found := false
	for _, d := range res.Diagnostics {
		if strings.Contains(d, "f:") && strings.Contains(d, "naive checks kept") {
			found = true
		}
	}
	if !found {
		t.Errorf("no degradation diagnostic for f in %v", res.Diagnostics)
	}

	if got := p.FuncByName("f").CountChecks(); got != fChecksBefore {
		t.Errorf("degraded f has %d checks, want naive count %d", got, fChecksBefore)
	}
	if got := p.FuncByName("g").CountChecks(); got >= gChecksBefore {
		t.Errorf("g not optimized: %d checks, had %d", got, gChecksBefore)
	}

	want := res.ChecksBefore + res.Inserted - res.EliminatedAvail -
		res.EliminatedCover - res.EliminatedConst - res.TrapsInserted
	if res.ChecksAfter != want {
		t.Errorf("counter identity broken under degradation: after=%d, identity gives %d",
			res.ChecksAfter, want)
	}

	if err := p.Verify(); err != nil {
		t.Fatalf("post-degradation IR invalid: %v", err)
	}
	r, err := interp.Run(p, interp.Config{})
	if err != nil {
		t.Fatalf("run after degradation: %v", err)
	}
	if r.Trapped {
		t.Fatalf("degraded program trapped: %s", r.TrapNote)
	}
	if r.Output != "5\n" {
		t.Errorf("output = %q, want %q", r.Output, "5\n")
	}
}

// TestOptimizeContainsPanicInMain degrades the main unit itself: the
// whole program then runs with naive checks everywhere main is
// concerned, still without a hard error.
func TestOptimizeContainsPanicInMain(t *testing.T) {
	core.FailFuncForTest("p")
	defer core.FailFuncForTest("")

	p := testutil.BuildIR(t, degradeSrc, true)
	mainChecks := p.Main().CountChecks()
	res, err := core.Optimize(p, core.Options{Scheme: core.SE, Mode: rangecheck.ImplyFull})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != "p" {
		t.Fatalf("Degraded = %v, want [p]", res.Degraded)
	}
	if got := p.Main().CountChecks(); got != mainChecks {
		t.Errorf("main has %d checks, want naive %d", got, mainChecks)
	}
	if _, err := interp.Run(p, interp.Config{}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestOptimizeFuncSafeTagsError checks the contained panic surfaces as
// a stage-tagged InternalError in the diagnostics (via errors.Is when
// optimizeFunc fails everywhere — forced by failing every function).
func TestOptimizeFuncSafeTagsError(t *testing.T) {
	core.FailFuncForTest("g")
	defer core.FailFuncForTest("")
	p := testutil.BuildIR(t, degradeSrc, true)
	res, err := core.Optimize(p, core.Options{Scheme: core.NI, Mode: rangecheck.ImplyFull})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	joined := strings.Join(res.Diagnostics, "\n")
	if !strings.Contains(joined, "internal error in optimize (g)") {
		t.Errorf("diagnostics missing stage-tagged internal error: %q", joined)
	}
	// The guard sentinel is matchable on the raw error path too.
	if !errors.Is(&guard.InternalError{Stage: "optimize"}, guard.ErrInternal) {
		t.Error("InternalError does not match ErrInternal")
	}
}

// TestMalformedEveryFunctionRestoresNaive fires the malformed-IR fault
// on every function. It strikes after every pass has run, so each
// function is restored from the snapshot Optimize took first, and that
// snapshot shares its statements and expressions with the body the
// passes transformed. A pass that edited a statement in place instead
// of replacing it would leak into the restored body. So every suite
// program, under every scheme × kind × mode, must come back as the
// naive lowering, fingerprint for fingerprint. The one difference
// allowed is the program's count of allocated variables: the passes
// allocate temporaries (h variables), whose IDs are never reused.
func TestMalformedEveryFunctionRestoresNaive(t *testing.T) {
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteOptMalformed})
	defer chaos.Disable()
	schemes := append([]core.Scheme{core.MCM}, core.Schemes...)
	for _, sp := range suite.Programs {
		for _, sch := range schemes {
			for _, kind := range []core.CheckKind{core.PRX, core.INX} {
				for _, mode := range []rangecheck.Mode{rangecheck.ImplyFull, rangecheck.ImplyNone, rangecheck.ImplyCross} {
					opts := core.Options{Scheme: sch, Kind: kind, Mode: mode}
					p := testutil.BuildIR(t, sp.Source, true)
					res, err := core.Optimize(p, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", sp.Name, opts, err)
					}
					if len(res.Degraded) != len(p.Funcs) {
						t.Fatalf("%s %+v: %d of %d functions degraded", sp.Name, opts, len(res.Degraded), len(p.Funcs))
					}
					naive := testutil.BuildIR(t, sp.Source, true)
					naive.NumVars = p.NumVars
					if p.Fingerprint() != naive.Fingerprint() {
						t.Fatalf("%s %+v: restored program differs from the naive lowering", sp.Name, opts)
					}
				}
			}
		}
	}
}

// TestMalformedForkRestoresOrigin is the same fault on forks of one
// shared lowering per program: Optimize takes no snapshot of a forked
// function and restores it from its origin instead. Each restored fork
// must be the naive lowering, must call only its own functions, and
// must leave the shared lowering as irbuild built it.
func TestMalformedForkRestoresOrigin(t *testing.T) {
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteOptMalformed})
	defer chaos.Disable()
	schemes := append([]core.Scheme{core.MCM}, core.Schemes...)
	for _, sp := range suite.Programs {
		shared := testutil.BuildIR(t, sp.Source, true)
		naive := shared.Fingerprint()
		for _, sch := range schemes {
			for _, kind := range []core.CheckKind{core.PRX, core.INX} {
				opts := core.Options{Scheme: sch, Kind: kind}
				p := shared.Fork()
				res, err := core.Optimize(p, opts)
				if err != nil {
					t.Fatalf("%s %+v: %v", sp.Name, opts, err)
				}
				if len(res.Degraded) != len(p.Funcs) {
					t.Fatalf("%s %+v: %d of %d functions degraded", sp.Name, opts, len(res.Degraded), len(p.Funcs))
				}
				for _, f := range p.Funcs {
					f.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
						if c, ok := s.(*ir.CallStmt); ok && c.Callee != p.Funcs[c.Callee.Index] {
							t.Fatalf("%s %+v: restored %s calls %s outside its fork", sp.Name, opts, f.Name, c.Callee.Name)
						}
					})
				}
				p.NumVars = shared.NumVars
				if p.Fingerprint() != naive {
					t.Fatalf("%s %+v: restored fork differs from the naive lowering", sp.Name, opts)
				}
				if shared.Fingerprint() != naive {
					t.Fatalf("%s %+v: optimizing a fork changed the shared lowering", sp.Name, opts)
				}
			}
		}
	}
}
