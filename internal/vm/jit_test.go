package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"nascent/internal/interp"
	"nascent/internal/vm"
)

// jitSuite closure-compiles the optimized suite with a real profile:
// one RunDispatch pass per program collects the digram matrix the
// fuser selects from — the same flow vm.JitHandle uses when it
// promotes.
func jitSuite(tb testing.TB) []*vm.JITProgram {
	progs := compileSuite(tb, true)
	var out []*vm.JITProgram
	for _, vp := range progs {
		_, ds, err := vp.RunDispatch(interp.Config{})
		if err != nil {
			tb.Fatal(err)
		}
		jp, err := vm.JITCompile(vp, &ds)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, jp)
	}
	return out
}

// TestJITSuiteIdentity pins the closure tier's observable contract:
// for every suite program, vmjit (profiled and cold, over optimized
// and unoptimized bytecode) must produce bit-identical results to the
// switch VM.
func TestJITSuiteIdentity(t *testing.T) {
	for _, opt := range []bool{false, true} {
		progs := compileSuite(t, opt)
		for i, vp := range progs {
			want, wantErr := vp.Run(interp.Config{})

			// Cold jit: no profile, plain chains.
			jp, err := vm.JITCompile(vp, nil)
			if err != nil {
				t.Fatalf("prog %d opt=%v: JITCompile: %v", i, opt, err)
			}
			got, gotErr := jp.Run(interp.Config{})
			if !reflect.DeepEqual(got, want) || !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prog %d opt=%v cold jit diverged:\n got %+v (%v)\nwant %+v (%v)", i, opt, got, gotErr, want, wantErr)
			}

			// Profiled jit: fused superinstructions active.
			_, ds, err := vp.RunDispatch(interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			jp, err = vm.JITCompile(vp, &ds)
			if err != nil {
				t.Fatalf("prog %d opt=%v: JITCompile(prof): %v", i, opt, err)
			}
			got, gotErr = jp.Run(interp.Config{})
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prog %d opt=%v profiled jit diverged:\n got %+v (%v)\nwant %+v (%v)", i, opt, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestJITBudgetIdentity pins that budget errors and partial counters
// match the switch VM exactly when the instruction budget bites
// mid-run, across a sweep of budgets that land inside fused closures'
// deferred charges as well as central ones.
func TestJITBudgetIdentity(t *testing.T) {
	progs := compileSuite(t, true)
	jits := jitSuite(t)
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

// TestJITFusionCoverage pins profile-guided selection: with the
// suite's own profile, the fuser must actually fuse — every hot
// adjacent digram with an available combinator becomes a
// superinstruction, and the dominant loop-latch pattern is among them.
func TestJITFusionCoverage(t *testing.T) {
	jits := jitSuite(t)
	var fused, hot, runs int
	latch := 0
	for _, jp := range jits {
		st := jp.Stats()
		fused += st.FusedDigrams + st.FusedTrigrams + st.FusedRuns
		runs += st.FusedRuns
		hot += st.HotSites
		for name, n := range st.Pairs {
			if name == "movi+incbrlei" {
				latch += n
			}
		}
	}
	if fused == 0 {
		t.Fatal("profiled jit compiled zero superinstructions on the suite")
	}
	if runs == 0 {
		t.Fatal("no straight-line run compiled despite the suite's long hot chains")
	}
	if latch == 0 {
		t.Fatal("movi+incbrlei loop latch not fused despite being the suite's hottest simple digram")
	}
	// Selection coverage: at least half the profile-hot sites must
	// have a combinator. Ratchet up as combinators are added.
	if 2*fused < hot {
		t.Fatalf("fusion coverage too low: %d fused of %d hot sites", fused, hot)
	}
}

// TestJITSteadyStateAllocs pins the closure tier's machine reuse:
// like the switch VM, repeated runs must stay at ~1 allocation per run
// (the output string).
func TestJITSteadyStateAllocs(t *testing.T) {
	jits := jitSuite(t)
	jp := jits[0]
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
	jits := jitSuite(b)
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
