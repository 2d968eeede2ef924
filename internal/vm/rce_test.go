package vm_test

import (
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/conformance"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileRCESuite compiles every Table-1 program naive to bytecode and
// runs it through the full vmrce pipeline (RCE then Optimize).
func compileRCESuite(tb testing.TB) []*vm.Program {
	var out []*vm.Program
	for _, p := range suite.Programs {
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			tb.Fatal(err)
		}
		vp, err := vm.CompileRCE(cp.IR)
		if err != nil {
			tb.Fatal(err)
		}
		if !vp.RCEApplied() {
			tb.Fatalf("%s: CompileRCE did not mark the program", p.Name)
		}
		out = append(out, vp)
	}
	return out
}

// TestCorpusVMRCE pins the corpus observables under the guard/deopt
// pipeline: the exact instruction counts, check counts, outputs, and
// trap fields the tree-walker test pins. Guards reroute dispatch and
// bulk-count what they skip, but may never move a counter byte.
func TestCorpusVMRCE(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			cp, err := nascent.Compile(c.Src, nascent.Options{BoundsChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			rp, err := vm.CompileRCE(cp.IR)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rp.Run(interp.Config{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Instructions != c.Instr {
				t.Errorf("instructions = %d, want %d", res.Instructions, c.Instr)
			}
			if res.Checks != c.Checks {
				t.Errorf("checks = %d, want %d", res.Checks, c.Checks)
			}
			if res.Output != c.Output {
				t.Errorf("output = %q, want %q", res.Output, c.Output)
			}
			if res.Trapped != c.Trapped {
				t.Fatalf("trapped = %v, want %v (%s)", res.Trapped, c.Trapped, res.TrapNote)
			}
			if c.Trapped {
				if res.TrapNote != c.TrapNote {
					t.Errorf("trap note = %q, want %q", res.TrapNote, c.TrapNote)
				}
				if string(res.TrapClass) != c.TrapClass {
					t.Errorf("trap class = %q, want %q", res.TrapClass, c.TrapClass)
				}
				if res.TrapPos != c.TrapPos {
					t.Errorf("trap pos = %s, want %s", res.TrapPos, c.TrapPos)
				}
			}
		})
	}
}

// TestSuiteCheckStatsGuard is the deterministic CI pin for the vmrce
// win: across the naive Table-1 suite, the guard/deopt rewrite must
// cut dynamic *executed* check instructions by at least 30% versus
// vmopt (the best checked tier), while every observable — including
// the check *counter* — stays byte-identical. Executed = Counted −
// Eliminated is an exact function of (program, pipeline), so this
// guards the elimination level without wall-clock flakiness.
func TestSuiteCheckStatsGuard(t *testing.T) {
	const maxExecPct = 70 // suite-wide vmrce executed checks <= 70% of vmopt
	opt := compileSuite(t, true)
	rce := compileRCESuite(t)
	var totOpt, totRce uint64
	for i, p := range suite.Programs {
		ores, ocs, err := opt[i].RunCheckStats(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmopt run: %v", p.Name, err)
		}
		rres, rcs, err := rce[i].RunCheckStats(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmrce run: %v", p.Name, err)
		}
		if !reflect.DeepEqual(ores, rres) {
			t.Fatalf("%s: results diverge:\nvmopt: %+v\nvmrce: %+v", p.Name, ores, rres)
		}
		if rcs.Counted != ocs.Counted {
			t.Fatalf("%s: counted checks diverge: vmopt=%d vmrce=%d", p.Name, ocs.Counted, rcs.Counted)
		}
		if rcs.Executed+rcs.Eliminated != rcs.Counted {
			t.Fatalf("%s: CheckStats inconsistent: %+v", p.Name, rcs)
		}
		t.Logf("%-10s counted=%8d  vmopt exec=%8d  vmrce exec=%8d (%.1f%%)",
			p.Name, rcs.Counted, ocs.Executed, rcs.Executed,
			pct(rcs.Executed, ocs.Executed))
		totOpt += ocs.Executed
		totRce += rcs.Executed
	}
	if totRce*100 > totOpt*uint64(maxExecPct) {
		t.Fatalf("check elimination guard: vmrce executed=%d vmopt executed=%d (%.1f%%), want <= %d%%",
			totRce, totOpt, pct(totRce, totOpt), maxExecPct)
	}
	t.Logf("suite executed checks: vmrce=%d vmopt=%d (%.1f%%)", totRce, totOpt, pct(totRce, totOpt))
}

// TestSuiteGuardTermsCeiling pins the guard entries the vmrce rewrite
// evaluates per suite program. Guard synthesis keeps one entry per
// linear form at its minimum constant (onePerForm), so each ceiling
// sits at the deduplicated count. Like
// TestSuiteCheckStatsGuard it is an exact function of (program,
// pipeline): a rise means guard synthesis stopped applying the
// implication.
func TestSuiteGuardTermsCeiling(t *testing.T) {
	// Before onePerForm the same runs evaluated 3,446 / 10,044 /
	// 4,800 / 9,100 / 97,344 / 5,616 / 7,692 / 19,968 / 4,454 / 10,706
	// entries (173,170 in total).
	ceiling := map[string]uint64{
		"vortex": 694, "arc2d": 2292, "bdna": 1078, "dyfesm": 5254, "mdg": 16224,
		"qcd": 1800, "spec77": 3610, "trfd": 8016, "linpackd": 1738, "simple": 1554,
	}
	rce := compileRCESuite(t)
	var total uint64
	for i, p := range suite.Programs {
		_, ds, err := rce[i].RunDispatch(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmrce run: %v", p.Name, err)
		}
		limit, ok := ceiling[p.Name]
		if !ok {
			t.Errorf("%s: no ceiling pinned (guard terms %d)", p.Name, ds.GuardTerms)
		}
		if ds.GuardTerms > limit {
			t.Errorf("%s: guard terms %d, ceiling %d", p.Name, ds.GuardTerms, limit)
		}
		t.Logf("%-10s guard terms=%8d", p.Name, ds.GuardTerms)
		total += ds.GuardTerms
	}
	t.Logf("suite guard terms: %d", total)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// TestRCEChaosGuardFail forces every otherwise-passing range guard to
// take its deopt edge (chaos site vm.rce.guard.fail at rate 1) and
// requires all observables to stay byte-identical to the plain vm run:
// deopt is the original semantics, so a spurious guard failure may
// only cost wall-clock.
func TestRCEChaosGuardFail(t *testing.T) {
	naive := compileSuite(t, false)
	rce := compileRCESuite(t)
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteRCEGuardFail})
	t.Cleanup(chaos.Disable)
	for i, p := range suite.Programs {
		vres, err := naive[i].Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vm run: %v", p.Name, err)
		}
		rres, rcs, err := rce[i].RunCheckStats(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmrce deopt run: %v", p.Name, err)
		}
		if !reflect.DeepEqual(vres, rres) {
			t.Fatalf("%s: deopt path diverges from vm:\nvm:    %+v\nvmrce: %+v", p.Name, vres, rres)
		}
		t.Logf("%-10s deopt ok, eliminated=%d (forced deopt keeps opCheckBlock bulk adds only)",
			p.Name, rcs.Eliminated)
	}
}

// TestRCEBudgetInsideDeopt pins the budget contract on the deopt path:
// with guards chaos-forced to fail and an instruction budget chosen to
// blow mid-loop, vmrce must report the same typed ResourceError and
// the same partial output as the plain vm run — counter folding keeps
// the charge cadence exact even while the original checked blocks run.
func TestRCEBudgetInsideDeopt(t *testing.T) {
	naive := compileSuite(t, false)
	rce := compileRCESuite(t)
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteRCEGuardFail})
	t.Cleanup(chaos.Disable)
	for i, p := range suite.Programs {
		full, err := naive[i].Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vm run: %v", p.Name, err)
		}
		for _, budget := range []uint64{full.Instructions / 2, full.Instructions - 1} {
			if budget == 0 {
				continue
			}
			cfg := interp.Config{MaxInstructions: budget}
			vres, verr := naive[i].Run(cfg)
			rres, rerr := rce[i].Run(cfg)
			if diverged(vres, verr, rres, rerr) {
				t.Fatalf("%s @ budget %d: deopt budget exit diverges:\nvm:    %+v / %v\nvmrce: %+v / %v",
					p.Name, budget, vres, verr, rres, rerr)
			}
		}
	}
}

// diverged compares two budget-exit outcomes under the engine
// contract: identical typed error text, and identical partial
// observables (output, trap state). Instructions and Checks at a
// budget exit are the two fields allowed to differ — cost folding
// charges in lumps, and a coalesced opCkAdd site commits its
// straight-line segment's check counts at the segment head, so the
// values recorded past the (identical) limit depend on lump
// boundaries. The same latitude already exists between vm and vmopt:
// opCheckBlock commits a whole check run's counts at one dispatch,
// and TestBudgetParityVMOpt pins error text only. At every other exit
// — completion, trap, fault — both fields are bit-exact
// (TestRCETrapIdentity, the golden tables).
func diverged(a interp.Result, aerr error, b interp.Result, berr error) bool {
	if (aerr == nil) != (berr == nil) {
		return true
	}
	if aerr != nil && aerr.Error() != berr.Error() {
		return true
	}
	a.Instructions, b.Instructions = 0, 0
	a.Checks, b.Checks = 0, 0
	return !reflect.DeepEqual(a, b)
}

// TestRCEBudgetIdentity is the unforced twin: fast-path runs under
// tight budgets must also match the vm byte-for-byte, since opCkAdd
// carries the replaced check's cost and the guard itself is free.
func TestRCEBudgetIdentity(t *testing.T) {
	naive := compileSuite(t, false)
	rce := compileRCESuite(t)
	for i, p := range suite.Programs {
		full, err := naive[i].Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vm run: %v", p.Name, err)
		}
		for div := uint64(2); div <= 5; div++ {
			budget := full.Instructions / div
			if budget == 0 {
				continue
			}
			cfg := interp.Config{MaxInstructions: budget}
			vres, verr := naive[i].Run(cfg)
			rres, rerr := rce[i].Run(cfg)
			if diverged(vres, verr, rres, rerr) {
				t.Fatalf("%s @ budget %d: budget exit diverges:\nvm:    %+v / %v\nvmrce: %+v / %v",
					p.Name, budget, vres, verr, rres, rerr)
			}
		}
	}
}

// TestRCERefusals pins the pass's input contract: optimized or
// already-rewritten programs are refused, and a program with no loop
// metadata (e.g. decoded from progio) passes through unchanged except
// for the rce mark.
func TestRCERefusals(t *testing.T) {
	cp, err := nascent.Compile(suite.Programs[0].Source, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.Compile(cp.IR)
	if err != nil {
		t.Fatal(err)
	}
	op, err := vm.Optimize(vp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.RCE(op); err == nil {
		t.Error("RCE accepted optimized bytecode")
	}
	rp, err := vm.RCE(vp)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.RCEApplied() {
		t.Error("RCE did not mark its output")
	}
	if _, err := vm.RCE(rp); err == nil {
		t.Error("RCE accepted already-rewritten bytecode")
	}
	if _, err := vm.Optimize(rp); err != nil {
		t.Errorf("Optimize refused rce output: %v", err)
	}
}

// TestRCETrapIdentity runs the conformance trap corpus shape inline: a
// program whose guarded loop actually traps must deopt (the guard
// evaluates the violating endpoint) and report the exact trap note,
// class, position, and partial counters of the naive vm.
func TestRCETrapIdentity(t *testing.T) {
	const src = `program traps
  integer a(10)
  integer i, n
  n = 12
  do i = 1, n
    a(i) = i
  enddo
end
`
	cp, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.Compile(cp.IR)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := vm.CompileRCE(cp.IR)
	if err != nil {
		t.Fatal(err)
	}
	vres, verr := vp.Run(interp.Config{})
	rres, rcs, rerr := rp.RunCheckStats(interp.Config{})
	if !reflect.DeepEqual(vres, rres) || !reflect.DeepEqual(verr, rerr) {
		t.Fatalf("trap diverges:\nvm:    %+v / %v\nvmrce: %+v / %v", vres, verr, rres, rerr)
	}
	if !vres.Trapped {
		t.Fatalf("expected a trap, got %+v", vres)
	}
	if rcs.Eliminated != 0 {
		// The violating loop must have deopted: its checks execute.
		t.Errorf("trapping loop eliminated %d checks; guard failed to deopt", rcs.Eliminated)
	}
}

// TestGuardFailCounts pins DispatchStats.GuardFails, the range-guard
// dispatches that took the deopt edge, next to the guard dispatches
// themselves, for every suite and irregular program on the vmrce
// pipeline, naive and under LLS. Both are exact functions of (program,
// pipeline). histogram's is the only guard that fails: under LLS it
// deopts on its only entry, naive on one of four.
func TestGuardFailCounts(t *testing.T) {
	rangeGuard := -1
	for op := 0; op < vm.KnownOps(); op++ {
		if vm.OpName(uint8(op)) == "rangeguard" {
			rangeGuard = op
		}
	}
	if rangeGuard < 0 {
		t.Fatal("no rangeguard opcode")
	}
	// name → {naive, LLS} × {guard dispatches, guard fails}
	want := map[string][2][2]uint64{
		"vortex": {{179, 0}, {0, 0}}, "arc2d": {{660, 0}, {0, 0}},
		"bdna": {{275, 0}, {6, 0}}, "dyfesm": {{1425, 0}, {0, 0}},
		"mdg": {{2106, 0}, {2, 0}}, "qcd": {{288, 0}, {0, 0}},
		"spec77": {{495, 0}, {4, 0}}, "trfd": {{1068, 0}, {75, 0}},
		"linpackd": {{322, 0}, {24, 0}}, "simple": {{389, 0}, {0, 0}},
		"csr": {{20, 0}, {0, 0}}, "histogram": {{4, 1}, {1, 1}},
		"bfs": {{510, 0}, {0, 0}}, "gather_tail": {{7, 0}, {0, 0}},
	}
	for _, p := range append(append([]suite.Program(nil), suite.Programs...), suite.Irregular...) {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("%s: no guard counts pinned", p.Name)
		}
		for k, s := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
			cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			vp, err := vm.CompileRCE(cp.IR)
			if err != nil {
				t.Fatal(err)
			}
			_, ds, err := vp.RunDispatch(interp.Config{})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, s, err)
			}
			got := [2]uint64{ds.ByOp[rangeGuard], ds.GuardFails}
			if got != w[k] {
				t.Errorf("%s/%v: guards, fails = %v, want %v", p.Name, s, got, w[k])
			}
			t.Logf("%-12s %-5v guards=%d fails=%d", p.Name, s, got[0], got[1])
		}
	}
}
