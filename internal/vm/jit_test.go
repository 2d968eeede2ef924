package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileJitInputs compiles every Table-1 program naive (all range
// checks live) through the vmjit engine's bytecode pipeline — the
// guard/deopt-rewritten, optimized stream the closure tier runs.
func compileJitInputs(tb testing.TB) []*vm.Program {
	var out []*vm.Program
	for _, p := range suite.Programs {
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			tb.Fatal(err)
		}
		vp, err := vm.CompileEngine(cp.IR, interp.EngineVMJit)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, vp)
	}
	return out
}

// jitSuite closure-compiles the vmjit engine's input for every suite
// program.
func jitSuite(tb testing.TB, progs []*vm.Program) []*vm.JITProgram {
	var out []*vm.JITProgram
	for _, vp := range progs {
		jp, err := vm.JITCompile(vp, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, jp)
	}
	return out
}

// TestJITSuiteIdentity pins the closure tier's observable contract:
// for every suite program, vmjit must produce bit-identical results to
// the switch VM over the bytecode it was compiled from — the vmjit
// pipeline's output, and plain unoptimized bytecode as the one input
// with every generic opcode still live.
func TestJITSuiteIdentity(t *testing.T) {
	for _, in := range []struct {
		name  string
		progs []*vm.Program
	}{
		{"vmjit", compileJitInputs(t)},
		{"naive", compileSuite(t, false)},
	} {
		for i, jp := range jitSuite(t, in.progs) {
			want, wantErr := in.progs[i].Run(interp.Config{})
			got, gotErr := jp.Run(interp.Config{})
			if !reflect.DeepEqual(got, want) || !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prog %d (%s input) jit diverged:\n got %+v (%v)\nwant %+v (%v)", i, in.name, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestJITBudgetIdentity pins that budget errors and partial counters
// match the switch VM exactly when the instruction budget bites
// mid-run, across a sweep of budgets that land inside fused opcodes'
// deferred charges and check blocks' whole-block fast paths as well as
// central charges.
func TestJITBudgetIdentity(t *testing.T) {
	progs := compileJitInputs(t)
	jits := jitSuite(t, progs)
	for i, vp := range progs {
		for _, budget := range []uint64{1, 7, 100, 5000, 123457} {
			cfg := interp.Config{MaxInstructions: budget}
			want, wantErr := vp.Run(cfg)
			got, gotErr := jits[i].Run(cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prog %d budget %d: result diverged:\n got %+v\nwant %+v", i, budget, got, want)
			}
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("prog %d budget %d: err diverged: got %v want %v", i, budget, gotErr, wantErr)
			}
		}
	}
}

// TestJITSteadyStateAllocs pins the closure tier's machine reuse:
// like the switch VM, repeated runs must stay at ~1 allocation per run
// (the output string).
func TestJITSteadyStateAllocs(t *testing.T) {
	jp := jitSuite(t, compileJitInputs(t)[:1])[0]
	if _, err := jp.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := jp.Run(interp.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("jit steady state allocates %.1f allocs/run, want <= 2", avg)
	}
}

func BenchmarkSuiteVMJit(b *testing.B) {
	jits := jitSuite(b, compileJitInputs(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, jp := range jits {
			if _, err := jp.Run(interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
