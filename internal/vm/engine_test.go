package vm_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/conformance"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// TestCompileEngine pins the engine → pipeline map every caller shares:
// vmopt runs the optimizer, vmrce and vmjit the guard/deopt rewrite
// plus the optimizer, and the tree walker has no bytecode at all.
func TestCompileEngine(t *testing.T) {
	cp, err := nascent.Compile(suite.Programs[0].Source, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine         interp.Engine
		optimized, rce bool
	}{
		{interp.EngineVMOpt, true, false},
		{interp.EngineVMRCE, true, true},
		{interp.EngineVMJit, true, true},
	} {
		vp, err := vm.CompileEngine(cp.IR, tc.engine)
		if err != nil {
			t.Fatalf("%v: %v", tc.engine, err)
		}
		if vp.Optimized() != tc.optimized || vp.RCEApplied() != tc.rce {
			t.Errorf("%v: optimized=%v rce=%v, want %v/%v", tc.engine, vp.Optimized(), vp.RCEApplied(), tc.optimized, tc.rce)
		}
	}
	if _, err := vm.CompileEngine(cp.IR, interp.EngineTree); err == nil {
		t.Error("CompileEngine(tree) succeeded")
	}
}

// jitHandle compiles src through the vmjit pipeline and wraps it in a
// fresh handle.
func jitHandle(tb testing.TB, src string) *vm.JitHandle {
	tb.Helper()
	cp, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		tb.Fatal(err)
	}
	vp, err := vm.CompileEngine(cp.IR, interp.EngineVMJit)
	if err != nil {
		tb.Fatal(err)
	}
	return vm.NewJitHandle(vp)
}

// TestJitHandleSuiteIdentity pins the handle's core contract: the
// closure compile happens in NewJitHandle, so a fresh handle already
// reports vmjit with its one promotion, and every run on the jit
// returns observables bit-identical to the vmrce switch VM over the
// same bytecode.
func TestJitHandleSuiteIdentity(t *testing.T) {
	for _, p := range suite.Programs {
		h := jitHandle(t, p.Source)
		if s := h.Snapshot(); s.Tier != "vmjit" || s.Promotions != 1 || s.Runs != 0 {
			t.Fatalf("%s: fresh handle not on vmjit: %+v", p.Name, s)
		}
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			t.Fatal(err)
		}
		vp, err := vm.CompileEngine(cp.IR, interp.EngineVMRCE)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vp.Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := 0; i < 3; i++ {
			got, err := h.Run(interp.Config{})
			if err != nil {
				t.Fatalf("%s run %d: %v", p.Name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d diverged on the jit:\n got %+v\nwant %+v", p.Name, i, got, want)
			}
		}
		if s := h.Snapshot(); s.Tier != "vmjit" || s.Runs != 3 || s.Promotions != 1 || s.Demotions != 0 {
			t.Fatalf("%s: counter mismatch: %+v", p.Name, s)
		}
	}
}

// TestJitHandlePromoteChaosFail pins the tier.promote.fail containment:
// a failed closure compile leaves the handle on vmrce from
// construction, serving identical results, and nothing surfaces to
// callers.
func TestJitHandlePromoteChaosFail(t *testing.T) {
	want, err := jitHandle(t, suite.Programs[0].Source).Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}

	defer chaos.Disable()
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTierPromote})
	h := jitHandle(t, suite.Programs[0].Source)
	if s := h.Snapshot(); s.Tier != "vmrce" || s.Promotions != 0 {
		t.Fatalf("promotion succeeded under tier.promote.fail: %+v", s)
	}
	if chaos.Fired() == 0 {
		t.Fatal("tier.promote.fail never fired")
	}
	for i := 0; i < 3; i++ {
		got, err := h.Run(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged under failed promotion:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if s := h.Snapshot(); s.Tier != "vmrce" || s.Promotions != 0 || s.Runs != 3 {
		t.Fatalf("failed promotion state changed: %+v", s)
	}
}

// TestJitHandleDemotion pins the degrade path: when a jit run dies with
// a contained internal error, the handle tombstones the closure tier
// and replays the run on vmrce, the caller sees exactly the error that
// tier reports, and the handle never re-promotes.
func TestJitHandleDemotion(t *testing.T) {
	h := jitHandle(t, suite.Programs[0].Source)
	if got := h.Snapshot().Tier; got != "vmjit" {
		t.Fatalf("fresh handle not on vmjit: %q", got)
	}

	// vm.poll.panic fires identically in the jit and the switch VM, so
	// the demotion replay hits the same contained panic.
	defer chaos.Disable()
	chaos.Enable(chaos.Spec{Seed: 7, Rate: 1, Site: chaos.SiteVMPanic})
	_, err := h.Run(interp.Config{})
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("expected contained internal error from poll panic, got %v", err)
	}
	if s := h.Snapshot(); s.Demotions != 1 || s.Tier != "vmrce" {
		t.Fatalf("after demotion: %+v, want one demotion on vmrce", s)
	}

	chaos.Disable()
	want, err := h.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-demotion runs diverged:\n got %+v\nwant %+v", got, want)
	}
	if s := h.Snapshot(); s.Tier != "vmrce" || s.Demotions != 1 {
		t.Fatalf("tombstoned jit came back: %+v", s)
	}
}

// TestJitHandleConcurrentRuns pins that one handle — as a cache or memo
// entry shares it between requests — serves concurrent runs with
// identical results and exact counters.
func TestJitHandleConcurrentRuns(t *testing.T) {
	h := jitHandle(t, suite.Programs[0].Source)
	want, err := h.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := h.Run(interp.Config{})
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent run diverged: %+v (%v)", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Tier != "vmjit" || s.Runs != 1+workers*runs || s.Instrs != s.Runs*want.Instructions {
		t.Fatalf("counters after concurrent runs: %+v", s)
	}
}

// TestCorpusTopTiers pins the conformance corpus observables — exact
// instruction counts, check counts, outputs, and trap fields — under
// the closure-compiled jit, both through the engine registry and
// through repeated runs of one JitHandle.
func TestCorpusTopTiers(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			check := func(label string, res nascent.RunResult) {
				t.Helper()
				if res.Instructions != c.Instr {
					t.Errorf("%s: instructions = %d, want %d", label, res.Instructions, c.Instr)
				}
				if res.Checks != c.Checks {
					t.Errorf("%s: checks = %d, want %d", label, res.Checks, c.Checks)
				}
				if res.Output != c.Output {
					t.Errorf("%s: output = %q, want %q", label, res.Output, c.Output)
				}
				if res.Trapped != c.Trapped {
					t.Fatalf("%s: trapped = %v, want %v (%s)", label, res.Trapped, c.Trapped, res.TrapNote)
				}
				if c.Trapped {
					if res.TrapNote != c.TrapNote {
						t.Errorf("%s: trap note = %q, want %q", label, res.TrapNote, c.TrapNote)
					}
					if string(res.TrapClass) != c.TrapClass {
						t.Errorf("%s: trap class = %q, want %q", label, res.TrapClass, c.TrapClass)
					}
					if res.TrapPos != c.TrapPos {
						t.Errorf("%s: trap pos = %s, want %s", label, res.TrapPos, c.TrapPos)
					}
				}
			}

			p, err := nascent.Compile(c.Src, nascent.Options{Filename: c.Name + ".mf", BoundsChecks: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := p.RunWith(nascent.RunConfig{Engine: nascent.EngineVMJit})
			if err != nil {
				t.Fatalf("vmjit run: %v", err)
			}
			check("vmjit", res)

			vp, err := vm.CompileEngine(p.IR, interp.EngineVMJit)
			if err != nil {
				t.Fatal(err)
			}
			h := vm.NewJitHandle(vp)
			for i := 0; i < 3; i++ {
				res, err := h.Run(nascent.RunConfig{})
				if err != nil {
					t.Fatalf("handle run %d: %v", i, err)
				}
				check("handle", res)
			}
			if got := h.Snapshot().Tier; got != "vmjit" {
				t.Fatalf("handle ended at tier %s, want vmjit", got)
			}
		})
	}
}

// TestIrregularIdentity runs the irregular stress programs, naive and
// under LLS, on every bytecode engine and requires Results DeepEqual to
// the tree walker's. These are the programs where vmrce's guards fail
// and deopt for real and most checks still execute; gather_tail must
// trap with the same note everywhere.
func TestIrregularIdentity(t *testing.T) {
	const gatherNote = "check (idx(i) <= 2000) failed (lhs=2005) [x dim 1 upper]"
	for _, p := range suite.Irregular {
		for _, s := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
			t.Run(p.Name+"/"+s.String(), func(t *testing.T) {
				cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: s})
				if err != nil {
					t.Fatal(err)
				}
				want, err := cp.RunWith(nascent.RunConfig{})
				if err != nil {
					t.Fatalf("tree: %v", err)
				}
				if p.Name == "gather_tail" && (!want.Trapped || want.TrapNote != gatherNote) {
					t.Fatalf("tree: trapped=%v note %q, want a trap with %q", want.Trapped, want.TrapNote, gatherNote)
				}
				for _, e := range []nascent.Engine{nascent.EngineVMOpt, nascent.EngineVMRCE, nascent.EngineVMJit} {
					got, err := cp.RunWith(nascent.RunConfig{Engine: e})
					if err != nil {
						t.Fatalf("%v: %v", e, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%v diverges from tree:\n got %+v\nwant %+v", e, got, want)
					}
				}
			})
		}
	}
}
