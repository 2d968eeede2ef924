package vm_test

import (
	"reflect"
	"testing"

	"nascent/internal/conformance"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/vm"
)

// optimize compiles and optimizes, failing loudly if either step errors.
// vmopt's pipeline (CompileOptimized) degrades an optimizer failure to
// the plain program; tests must not, or a broken pass would hide behind
// the fallback.
func optimize(t *testing.T, src string, checks bool) *vm.Program {
	t.Helper()
	p := build(t, src, checks)
	vp, err := vm.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ovp, err := vm.Optimize(vp)
	if err != nil {
		var ie *guard.InternalError
		t.Fatalf("optimize: %v (internal: %v)", err, ie)
	}
	if !ovp.Optimized() || vp.Optimized() {
		t.Fatalf("Optimized flags wrong: out=%v in=%v", ovp.Optimized(), vp.Optimized())
	}
	return ovp
}

// TestCorpusVMOpt pins the corpus observables under optimized bytecode:
// the exact instruction counts, check counts, outputs, and trap fields
// the tree-walker test pins. This is the strongest single statement of
// the optimizer's contract — fusion and elimination change dispatch,
// never the counters.
func TestCorpusVMOpt(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			ovp := optimize(t, c.Src, true)
			res, err := ovp.Run(interp.Config{})
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

// runVMOpt runs p on the vmopt engine: its bytecode pipeline, then the
// switch VM.
func runVMOpt(t *testing.T, p *ir.Program, cfg interp.Config) (interp.Result, error) {
	t.Helper()
	vp, err := vm.CompileEngine(p, interp.EngineVMOpt)
	if err != nil {
		t.Fatal(err)
	}
	return vp.Run(cfg)
}

// TestEngineDifferentialVMOpt runs every corpus program, checked and
// unchecked, under tree and vmopt and requires byte-identical Results —
// including error identity when a run faults.
func TestEngineDifferentialVMOpt(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		for _, checked := range []bool{true, false} {
			name := c.Name + "/unchecked"
			if checked {
				name = c.Name + "/checked"
			}
			t.Run(name, func(t *testing.T) {
				p := build(t, c.Src, checked)
				ref, refErr := interp.Run(p, interp.Config{})
				got, gotErr := runVMOpt(t, p, interp.Config{})
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: tree=%v vmopt=%v", refErr, gotErr)
				}
				if refErr != nil {
					if refErr.Error() != gotErr.Error() {
						t.Fatalf("error text mismatch:\ntree:  %v\nvmopt: %v", refErr, gotErr)
					}
					return
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("result mismatch:\ntree:  %+v\nvmopt: %+v", ref, got)
				}
			})
		}
	}
}

// TestBudgetParityVMOpt exercises the instruction budget under fused
// code: the deferred-cost slow path must produce the identical error at
// the identical counter value, for every budget value in a window that
// sweeps the trip point across fused instruction boundaries.
func TestBudgetParityVMOpt(t *testing.T) {
	src := conformance.Corpus[1].Src // doloop
	p := build(t, src, true)
	for budget := uint64(1); budget < 120; budget++ {
		_, treeErr := interp.Run(p, interp.Config{MaxInstructions: budget})
		_, optErr := runVMOpt(t, p, interp.Config{MaxInstructions: budget})
		if (treeErr == nil) != (optErr == nil) {
			t.Fatalf("budget %d: error mismatch: tree=%v vmopt=%v", budget, treeErr, optErr)
		}
		if treeErr != nil && treeErr.Error() != optErr.Error() {
			t.Fatalf("budget %d: error text mismatch: tree=%v vmopt=%v", budget, treeErr, optErr)
		}
	}
}

// TestDispatchDeterminism runs one program twice and requires identical
// DispatchStats: the metric CI pins must be a pure function of
// (program, config).
func TestDispatchDeterminism(t *testing.T) {
	c := conformance.Corpus[2] // triangular
	ovp := optimize(t, c.Src, true)
	_, d1, err := ovp.RunDispatch(interp.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	_, d2, err := ovp.RunDispatch(interp.Config{})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("dispatch stats drifted between runs:\n1: %s\n2: %s", d1.String(), d2.String())
	}
	if d1.Dispatched == 0 || d1.Static == 0 {
		t.Fatalf("empty dispatch stats: %s", d1.String())
	}
}

// TestDispatchGuard pins the optimizer's win as a deterministic ratio:
// summed over the conformance corpus, optimized dispatch must stay at
// or below a fraction of naive dispatch. If a change regresses fusion
// coverage, this fails without any wall-clock flakiness; if it improves
// far past the pin, ratchet maxRatioPct down.
func TestDispatchGuard(t *testing.T) {
	const maxRatioPct = 50 // vmopt dispatch <= 50% of vm dispatch
	var naive, opt uint64
	for _, c := range conformance.Corpus {
		p := build(t, c.Src, true)
		vp, err := vm.Compile(p)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.Name, err)
		}
		ovp, err := vm.Optimize(vp)
		if err != nil {
			t.Fatalf("%s: optimize: %v", c.Name, err)
		}
		vres, vd, err := vp.RunDispatch(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vm run: %v", c.Name, err)
		}
		ores, od, err := ovp.RunDispatch(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmopt run: %v", c.Name, err)
		}
		if !reflect.DeepEqual(vres, ores) {
			t.Fatalf("%s: results diverge:\nvm:    %+v\nvmopt: %+v", c.Name, vres, ores)
		}
		t.Logf("%-14s vm: %s", c.Name, vd.String())
		t.Logf("%-14s opt: %s", c.Name, od.String())
		naive += vd.Dispatched
		opt += od.Dispatched
	}
	if opt*100 > naive*maxRatioPct {
		t.Fatalf("dispatch guard: vmopt=%d vm=%d (%.1f%%), want <= %d%%",
			opt, naive, 100*float64(opt)/float64(naive), maxRatioPct)
	}
	t.Logf("corpus dispatch: vmopt=%d vm=%d (%.1f%%)", opt, naive, 100*float64(opt)/float64(naive))
}
