package vm_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"nascent/internal/conformance"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/irbuild"
	"nascent/internal/parser"
	"nascent/internal/sem"
	"nascent/internal/vm"
)

func build(t *testing.T, src string, checks bool) *ir.Program {
	t.Helper()
	f, err := parser.Parse("test.mf", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := irbuild.Build(sp, irbuild.Options{BoundsChecks: checks})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// runPlain runs p as unoptimized bytecode (vm.Compile, no fusion) on
// the switch loop: the first stage of the bytecode pipeline, checked
// against the tree walker on its own.
func runPlain(p *ir.Program, cfg interp.Config) (interp.Result, error) {
	vp, err := vm.Compile(p)
	if err != nil {
		return interp.Result{}, err
	}
	return vp.Run(cfg)
}

// TestCorpusVM pins the corpus observables under unoptimized bytecode:
// the same exact instruction counts, check counts, outputs, and trap
// fields the tree-walker test pins.
func TestCorpusVM(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			p := build(t, c.Src, true)
			res, err := runPlain(p, interp.Config{})
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

// TestEngineDifferential runs every corpus program, checked and
// unchecked, on the tree walker and as unoptimized bytecode and
// requires byte-identical Results —
// including error identity when a run faults (the unchecked trap
// program faults with the same subscript error text).
func TestEngineDifferential(t *testing.T) {
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
				got, gotErr := runPlain(p, interp.Config{})
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: tree=%v vm=%v", refErr, gotErr)
				}
				if refErr != nil {
					if refErr.Error() != gotErr.Error() {
						t.Fatalf("error text mismatch:\ntree: %v\nvm:   %v", refErr, gotErr)
					}
					return
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("result mismatch:\ntree: %+v\nvm:   %+v", ref, got)
				}
			})
		}
	}
}

// TestBudgetParity exercises the resource budgets on unoptimized
// bytecode: the instruction budget returns the same typed error
// (matching both sentinels), and a past deadline aborts the run.
func TestBudgetParity(t *testing.T) {
	src := conformance.Corpus[1].Src // doloop
	p := build(t, src, true)

	_, treeErr := interp.Run(p, interp.Config{MaxInstructions: 100})
	_, vmErr := runPlain(p, interp.Config{MaxInstructions: 100})
	for _, err := range []error{treeErr, vmErr} {
		if !errors.Is(err, interp.ErrResourceExhausted) || !errors.Is(err, interp.ErrLimit) {
			t.Fatalf("instruction budget error = %v, want resource exhausted", err)
		}
	}
	if treeErr.Error() != vmErr.Error() {
		t.Fatalf("budget error text mismatch: tree=%v vm=%v", treeErr, vmErr)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := runPlain(p, interp.Config{Context: expired})
	var re *interp.ResourceError
	if !errors.As(err, &re) || re.Resource != interp.ResDeadline {
		t.Fatalf("deadline error = %v, want ResDeadline", err)
	}

	_, err = runPlain(p, interp.Config{MaxArrayCells: 3})
	if !errors.As(err, &re) || re.Resource != interp.ResArrayCells {
		t.Fatalf("cell budget error = %v, want ResArrayCells", err)
	}
}

// TestProgramReuse compiles once and runs many machines concurrently:
// compiled Programs are immutable and must race-detector-clean under
// shared use, with every run agreeing with the pinned observables.
func TestProgramReuse(t *testing.T) {
	c := conformance.Corpus[2] // triangular
	p := build(t, c.Src, true)
	vp, err := vm.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := vp.Run(interp.Config{})
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if res.Instructions != c.Instr || res.Checks != c.Checks || res.Output != c.Output {
				t.Errorf("result drifted: %+v", res)
			}
		}()
	}
	wg.Wait()
}

// TestEngineNames pins the flag spellings.
func TestEngineNames(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want interp.Engine
	}{{"tree", interp.EngineTree}, {"vmopt", interp.EngineVMOpt}, {"vmjit", interp.EngineVMJit}} {
		e, err := interp.ParseEngine(tc.s)
		if err != nil || e != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.s, e, err)
		}
	}
	for _, s := range []string{"vm", "jit", "tiered"} {
		if _, err := interp.ParseEngine(s); err == nil {
			t.Errorf("ParseEngine(%s) succeeded", s)
		}
	}
	want := []string{"tree", "vmopt", "vmrce", "vmjit"}
	if got := interp.EngineNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("EngineNames() = %v, want %v", got, want)
	}
	if n := len(interp.AllEngines()); n != len(want) {
		t.Errorf("AllEngines() has %d engines, want %d", n, len(want))
	}
}
