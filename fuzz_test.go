package nascent_test

import (
	"reflect"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/oracle"
	"nascent/internal/suite"
	"nascent/internal/testutil"
	"nascent/internal/vm"
)

// This file implements randomized differential testing of the range
// check optimizer: generate random MF programs and hand each one to the
// oracle (internal/oracle), which runs it naive and under every
// optimizer configuration and asserts the paper's behavior contract
// (§3). Two drivers share the generator: TestDifferentialFuzz sweeps a
// fixed seed range deterministically, and FuzzPipeline lets `go test
// -fuzz` mutate raw source far outside what the generator produces. The
// generator is testutil.Generate; internal/core's tests replay the same
// seeds.

func TestDifferentialFuzz(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 8
	}
	variants := oracle.DefaultVariants()
	trapped, checked := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := testutil.Generate(seed)
		rep, err := oracle.Verify(src, oracle.Config{
			Run: nascent.RunConfig{MaxInstructions: 20e6},
		})
		if err != nil {
			if strings.Contains(err.Error(), "compile") {
				t.Fatalf("seed %d: naive compile: %v\n%s", seed, err, src)
			}
			// Infinite loops in generated code exceed the budget: skip seed.
			continue
		}
		checked++
		if rep.Naive.Trapped {
			trapped++
		}
		if !rep.OK() {
			t.Fatalf("seed %d: %s\n%s", seed, rep.Summary(), src)
		}
	}
	t.Logf("fuzzed %d seeds (%d checked, %d trapping) x %d configurations",
		seeds, checked, trapped, len(variants))
}

// FuzzPipeline is the native fuzz target: arbitrary bytes go through
// the whole pipeline, which must return errors — never panic — and stay
// sound on every input that happens to compile. The seed corpus mixes
// generator output with hand-written edge cases so mutation starts from
// syntactically valid programs.
func FuzzPipeline(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(testutil.Generate(seed))
	}
	f.Add("program p\n  real a(10)\n  a(11) = 1.0\nend\n")
	f.Add("program p\n  integer i\n  do i = 1, 0\n    i = i\n  enddo\nend\n")
	f.Add("program p\nend\n")
	variants := []oracle.Variant{
		{Scheme: nascent.SE},
		{Scheme: nascent.LLS, Kind: nascent.INX},
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Compile must contain every failure as an error.
		if _, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.ALL}); err != nil {
			return
		}
		// The input compiles: the optimizer must be sound on it.
		rep, err := oracle.Verify(src, oracle.Config{
			Variants: variants,
			Run:      nascent.RunConfig{MaxInstructions: 200000},
		})
		if err != nil {
			return // baseline exceeded its budget: nothing to compare
		}
		if !rep.OK() {
			t.Fatalf("%s\nsource:\n%s", rep.Summary(), src)
		}
	})
}

// FuzzEngineIdentity fuzzes the execution-engine contract directly:
// for any input that compiles, every engine — the
// tree-walking reference and the optimized VM under each of its three
// names — and the unoptimized bytecode of vm.Compile, the first stage
// of the bytecode pipeline, must produce
// identical observables — instruction and check counters, output, trap
// note/class/position — or identical error text. The seed corpus is
// the conformance suite, whose cases pin exactly these observables,
// generator output so mutation starts from loop-heavy programs that
// exercise fusion, and the irregular stress programs, whose checks
// mostly still execute.
func FuzzEngineIdentity(f *testing.F) {
	for _, c := range conformance.Corpus {
		f.Add(c.Src)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(testutil.Generate(seed))
	}
	for _, p := range suite.Irregular {
		f.Add(p.Source)
	}
	engines := nascent.AllEngines()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
		if err != nil {
			return
		}
		type run struct {
			name string
			res  nascent.RunResult
			err  error
		}
		runs := make([]run, 0, len(engines)+1)
		for _, e := range engines {
			r := run{name: e.String()}
			r.res, r.err = p.RunWith(nascent.RunConfig{MaxInstructions: 200000, Engine: e})
			runs = append(runs, r)
		}
		vp, err := vm.Compile(p.IR)
		if err != nil {
			t.Fatalf("vm.Compile: %v\nsource:\n%s", err, src)
		}
		plain := run{name: "vm.Compile"}
		plain.res, plain.err = vp.Run(nascent.RunConfig{MaxInstructions: 200000})
		runs = append(runs, plain)
		ref := runs[0]
		for _, got := range runs[1:] {
			if (ref.err == nil) != (got.err == nil) ||
				(ref.err != nil && ref.err.Error() != got.err.Error()) {
				t.Fatalf("%s error mismatch: tree=%v %s=%v\nsource:\n%s",
					got.name, ref.err, got.name, got.err, src)
			}
			if ref.err == nil && !reflect.DeepEqual(ref.res, got.res) {
				t.Fatalf("%s observables diverge:\ntree:  %+v\n%s: %+v\nsource:\n%s",
					got.name, ref.res, got.name, got.res, src)
			}
		}
	})
}
