package vm_test

import (
	"bytes"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/interp"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// TestCompileEngine pins the engine → pipeline map every caller shares:
// every bytecode engine runs CompileOptimized, and the tree walker has
// no bytecode at all. vmrce and vmjit are only names for vmopt's
// pipeline: over the suite, the irregular programs and the conformance
// corpus, naive and under LLS and ALL, all three engines compile to
// byte-identical encoded programs.
func TestCompileEngine(t *testing.T) {
	for name, src := range censusSources() {
		for _, s := range []nascent.Scheme{nascent.Naive, nascent.LLS, nascent.ALL} {
			cp, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.CompileEngine(cp.IR, interp.EngineTree); err == nil {
				t.Fatal("CompileEngine(tree) succeeded")
			}
			var want []byte
			for _, e := range []interp.Engine{interp.EngineVMOpt, interp.EngineVMRCE, interp.EngineVMJit} {
				vp, err := vm.CompileEngine(cp.IR, e)
				if err != nil {
					t.Fatalf("%s/%v %v: %v", name, s, e, err)
				}
				if !vp.Optimized() {
					t.Errorf("%s/%v %v: program is not optimized", name, s, e)
				}
				enc := progio.Encode(vp)
				if want == nil {
					want = enc
				} else if !bytes.Equal(enc, want) {
					t.Errorf("%s/%v: %v compiles to a different program than vmopt", name, s, e)
				}
			}
		}
	}
}

// TestCorpusTopTiers pins the conformance corpus observables — exact
// instruction counts, check counts, outputs, and trap fields — on the
// top of the breaker ladder, vmrce and vmjit, both through
// nascent.Program.RunWith and through repeated runs of one compiled
// program, whose runs reuse a cached machine.
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
			for _, e := range []interp.Engine{interp.EngineVMRCE, interp.EngineVMJit} {
				res, err := p.RunWith(nascent.RunConfig{Engine: e})
				if err != nil {
					t.Fatalf("%v run: %v", e, err)
				}
				check(e.String(), res)

				vp, err := vm.CompileEngine(p.IR, e)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					res, err := vp.Run(nascent.RunConfig{})
					if err != nil {
						t.Fatalf("%v reused run %d: %v", e, i, err)
					}
					check(e.String()+" reused", res)
				}
			}
		})
	}
}

// TestIrregularIdentity runs the irregular stress programs, naive and
// under LLS, on every bytecode engine and requires Results DeepEqual to
// the tree walker's. These are the programs where most checks still
// execute; gather_tail must trap with the same note everywhere.
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
