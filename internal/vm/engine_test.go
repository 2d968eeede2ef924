package vm_test

import (
	"errors"
	"reflect"
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
// vm runs the plain compile, vmopt the optimizer, vmrce and vmjit the
// guard/deopt rewrite plus the optimizer, and the tree walker has no
// bytecode at all.
func TestCompileEngine(t *testing.T) {
	cp, err := nascent.Compile(suite.Programs[0].Source, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine         interp.Engine
		optimized, rce bool
	}{
		{interp.EngineVM, false, false},
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
// fresh warm-up handle.
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

// TestJitHandleSuiteIdentity pins the handle's core contract: the first
// run profiles on the vmrce switch VM, the background closure compile
// lands at Settle, and every later run on the jit returns bit-identical
// observables to the profiled one.
func TestJitHandleSuiteIdentity(t *testing.T) {
	for _, p := range suite.Programs {
		h := jitHandle(t, p.Source)
		if s := h.Snapshot(); s.Tier != "vmrce" || s.Runs != 0 {
			t.Fatalf("%s: fresh handle not cold on vmrce: %+v", p.Name, s)
		}
		want, err := h.Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		h.Settle()
		if s := h.Snapshot(); s.Tier != "vmjit" || s.ProfiledRuns != 1 || s.Promotions != 1 {
			t.Fatalf("%s: no promotion after the profiled run: %+v", p.Name, s)
		}
		for i := 1; i < 4; i++ {
			got, err := h.Run(interp.Config{})
			if err != nil {
				t.Fatalf("%s run %d: %v", p.Name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d diverged on the jit:\n got %+v\nwant %+v", p.Name, i, got, want)
			}
		}
		if s := h.Snapshot(); s.Runs != 4 || s.ProfiledRuns != 1 || s.Demotions != 0 {
			t.Fatalf("%s: counter mismatch: %+v", p.Name, s)
		}
	}
}

// TestJitHandlePromoteChaosFail pins the tier.promote.fail containment:
// a failed background compile tombstones the closure tier, the handle
// keeps serving identical results on vmrce, and nothing surfaces to
// callers.
func TestJitHandlePromoteChaosFail(t *testing.T) {
	defer chaos.Disable()
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTierPromote})

	h := jitHandle(t, suite.Programs[0].Source)
	want, err := h.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.Settle()
		got, err := h.Run(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged under failed promotion:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if s := h.Snapshot(); s.Tier != "vmrce" || s.Promotions != 0 {
		t.Fatalf("promotion succeeded under tier.promote.fail: %+v", s)
	}
}

// TestJitHandleDemotion pins the degrade path: when a jit run dies with
// a contained internal error, the handle tombstones the closure tier
// and replays the run on vmrce, the caller sees exactly the error that
// tier reports, and the handle never re-promotes.
func TestJitHandleDemotion(t *testing.T) {
	h := jitHandle(t, suite.Programs[0].Source)
	if _, err := h.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	h.Settle()
	if got := h.Snapshot().Tier; got != "vmjit" {
		t.Fatalf("warm-up never reached vmjit: %q", got)
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
	h.Settle()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-demotion runs diverged:\n got %+v\nwant %+v", got, want)
	}
	if s := h.Snapshot(); s.Tier != "vmrce" || s.Demotions != 1 {
		t.Fatalf("tombstoned jit came back: %+v", s)
	}
}

// TestCorpusTopTiers pins the conformance corpus observables — exact
// instruction counts, check counts, outputs, and trap fields — under
// the closure-compiled jit, both through the engine registry and
// through a JitHandle across its profiled run and its post-Settle jit
// runs.
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
				h.Settle()
				check("handle", res)
			}
			if got := h.Snapshot().Tier; got != "vmjit" {
				t.Fatalf("handle ended at tier %s, want vmjit", got)
			}
		})
	}
}
