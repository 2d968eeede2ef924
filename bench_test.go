// Benchmarks regenerating the paper's evaluation (one benchmark family
// per table or figure). Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks report, besides time, custom metrics matching the
// paper's measured quantities:
//
//	checks/op        dynamic range checks executed per program run
//	instr/op         dynamic non-check instructions per run
//	eliminated%      checks removed relative to the naive build
package nascent_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nascent"
	"nascent/internal/report"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

func compileOrFatal(b *testing.B, src string, opts nascent.Options) *nascent.Program {
	b.Helper()
	p, err := nascent.Compile(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func runOrFatal(b *testing.B, p *nascent.Program) nascent.RunResult {
	b.Helper()
	res, err := p.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Trapped {
		b.Fatalf("trapped: %s", res.TrapNote)
	}
	return res
}

// BenchmarkTable1NaiveOverhead measures each suite program executed with
// naive (unoptimized) range checking — the paper's Table 1 dynamic
// columns. checks/op and instr/op reproduce the table's counts.
func BenchmarkTable1NaiveOverhead(b *testing.B) {
	for _, prog := range suite.Programs {
		b.Run(prog.Name, func(b *testing.B) {
			p := compileOrFatal(b, prog.Source, nascent.Options{BoundsChecks: true})
			var res nascent.RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = runOrFatal(b, p)
			}
			b.ReportMetric(float64(res.Checks), "checks/op")
			b.ReportMetric(float64(res.Instructions), "instr/op")
			b.ReportMetric(100*float64(res.Checks)/float64(res.Instructions), "chk/instr-%")
		})
	}
}

// BenchmarkTable2Compile measures the compile-time cost of each placement
// scheme over the whole suite — the paper's Table 2 "Range"/"Nascent"
// columns (relative ordering is the claim: NI cheapest, PRE-based
// schemes most expensive, preheader schemes in between).
func BenchmarkTable2Compile(b *testing.B) {
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, sch := range nascent.OptimizedSchemes {
			b.Run(fmt.Sprintf("%v_%v", kind, sch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, prog := range suite.Programs {
						compileOrFatal(b, prog.Source, nascent.Options{
							BoundsChecks: true, Scheme: sch, Kind: kind,
						})
					}
				}
			})
		}
	}
}

// BenchmarkTable2Eliminated executes each (scheme, kind) over the suite
// and reports the aggregate elimination percentage — the paper's Table 2
// body. Shapes to observe: LLS/ALL ~9x%+, LI between NI and LLS, SE >=
// LNI >= CS >= NI.
func BenchmarkTable2Eliminated(b *testing.B) {
	naive := make(map[string]uint64, len(suite.Programs))
	for _, prog := range suite.Programs {
		p := compileOrFatal(b, prog.Source, nascent.Options{BoundsChecks: true})
		naive[prog.Name] = runOrFatal(b, p).Checks
	}
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, sch := range nascent.OptimizedSchemes {
			b.Run(fmt.Sprintf("%v_%v", kind, sch), func(b *testing.B) {
				var totalN, totalO uint64
				for i := 0; i < b.N; i++ {
					totalN, totalO = 0, 0
					for _, prog := range suite.Programs {
						p := compileOrFatal(b, prog.Source, nascent.Options{
							BoundsChecks: true, Scheme: sch, Kind: kind,
						})
						res := runOrFatal(b, p)
						totalN += naive[prog.Name]
						totalO += res.Checks
					}
				}
				b.ReportMetric(100*(1-float64(totalO)/float64(totalN)), "eliminated-%")
			})
		}
	}
}

// BenchmarkTable3Implications measures the implication-mode ablation —
// the paper's Table 3. The primed variants must eliminate no more checks
// than the full-implication rows; LLS' stays within a few percent of LLS
// (only the preheader->body implications matter).
func BenchmarkTable3Implications(b *testing.B) {
	naive := make(map[string]uint64, len(suite.Programs))
	for _, prog := range suite.Programs {
		p := compileOrFatal(b, prog.Source, nascent.Options{BoundsChecks: true})
		naive[prog.Name] = runOrFatal(b, p).Checks
	}
	variants := []struct {
		label  string
		scheme nascent.Scheme
		impl   nascent.Implications
	}{
		{"NI", nascent.NI, nascent.ImplyFull},
		{"NIprime", nascent.NI, nascent.ImplyNone},
		{"SE", nascent.SE, nascent.ImplyFull},
		{"SEprime", nascent.SE, nascent.ImplyNone},
		{"LLS", nascent.LLS, nascent.ImplyFull},
		{"LLSprime", nascent.LLS, nascent.ImplyCross},
	}
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%v_%s", kind, v.label), func(b *testing.B) {
				var totalN, totalO uint64
				for i := 0; i < b.N; i++ {
					totalN, totalO = 0, 0
					for _, prog := range suite.Programs {
						p := compileOrFatal(b, prog.Source, nascent.Options{
							BoundsChecks: true, Scheme: v.scheme, Kind: kind, Implications: v.impl,
						})
						res := runOrFatal(b, p)
						totalN += naive[prog.Name]
						totalO += res.Checks
					}
				}
				b.ReportMetric(100*(1-float64(totalO)/float64(totalN)), "eliminated-%")
			})
		}
	}
}

// BenchmarkFigure1 exercises the paper's Figure 1 fragment through the
// NI and CS pipelines (static check counts 3 and 2 respectively).
func BenchmarkFigure1(b *testing.B) {
	const src = `program figure1
  integer a(5:10)
  integer n
  n = 3
  a(2*n) = 0
  a(2*n - 1) = 1
end
`
	for _, cfg := range []struct {
		label string
		sch   nascent.Scheme
		want  int
	}{
		{"NI", nascent.NI, 3},
		{"CS", nascent.CS, 2},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			var got int
			for i := 0; i < b.N; i++ {
				p := compileOrFatal(b, src, nascent.Options{BoundsChecks: true, Scheme: cfg.sch})
				got = p.StaticChecks()
			}
			if got != cfg.want {
				b.Fatalf("static checks = %d, want %d", got, cfg.want)
			}
			b.ReportMetric(float64(got), "static-checks")
		})
	}
}

// BenchmarkFigure6 exercises the paper's Figure 6 loop through LLS:
// 48 dynamic checks collapse to the hoisted preheader cond-checks.
func BenchmarkFigure6(b *testing.B) {
	const src = `program figure6
  integer a(1:10)
  integer j, k, n, nn, kk
  nn = 4
  kk = 3
  call init()
  do j = 1, 2*n
    a(k) = a(k) + 1
    a(j) = 2
  enddo
end
subroutine init()
  n = nn
  k = kk
end
`
	for _, cfg := range []struct {
		label string
		sch   nascent.Scheme
	}{
		{"naive", nascent.Naive},
		{"LLS", nascent.LLS},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			p := compileOrFatal(b, src, nascent.Options{BoundsChecks: true, Scheme: cfg.sch})
			var res nascent.RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = runOrFatal(b, p)
			}
			b.ReportMetric(float64(res.Checks), "checks/op")
		})
	}
}

// BenchmarkTableRegeneration measures one full regeneration of Tables
// 1–3 through the parallel evaluation engine at several worker counts —
// the wall-clock claim behind `rangebench -jobs`. Each iteration uses a
// fresh Runner, so the cost includes parsing and lowering every suite
// program once and sharing that front end across the whole job matrix
// (the frontend-compiles/op metric pins the memoization: 10 programs,
// 290 jobs named, 210 evaluated). Output is byte-identical at every worker count (the golden
// tests prove it); only the wall-clock may differ, and on a single-core
// host jobs=4 simply matches jobs=1.
func BenchmarkTableRegeneration(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			var m int
			for i := 0; i < b.N; i++ {
				r := report.New(report.Config{Jobs: jobs})
				for n, f := range []func() (string, error){r.Table1, r.Table2, r.Table3} {
					if _, err := f(); err != nil {
						b.Fatalf("table %d: %v", n+1, err)
					}
				}
				m = r.Metrics().FrontendCompiles
			}
			b.ReportMetric(float64(m), "frontend-compiles/op")
		})
	}
}

// BenchmarkEngines compares the two execution engines on the whole
// benchmark suite, compiled naive (every range check live — the
// heaviest dynamic load either engine faces). Programs are compiled
// once outside the timer, so ns/op and allocs/op are pure execution:
// the substrate cost underneath every table regeneration. jobs=N
// shards the ten programs across N goroutines the way the evaluation
// pool shards the table matrix (on a single-core host jobs=4 simply
// matches jobs=1). Both engines execute identical dynamic instruction
// streams — the conformance suite pins that — so the ns/op ratio is
// the VM's speedup (bench/ records the end-to-end numbers).
func BenchmarkEngines(b *testing.B) {
	progs := make([]*nascent.Program, len(suite.Programs))
	optimized := make([]*vm.Program, len(suite.Programs))
	var instrs uint64
	for i, p := range suite.Programs {
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = cp
		if optimized[i], err = vm.CompileOptimized(cp.IR); err != nil {
			b.Fatal(err)
		}
		instrs += runOrFatal(b, cp).Instructions
	}
	runAll := func(b *testing.B, engine nascent.Engine, jobs int) {
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(progs); k += jobs {
					var err error
					if engine == nascent.EngineVMOpt {
						_, err = optimized[k].Run(nascent.RunConfig{})
					} else {
						_, err = progs[k].RunWith(nascent.RunConfig{})
					}
					if err != nil {
						failed.Store(true)
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			b.Fatal("suite program failed under benchmark")
		}
	}
	for _, engine := range []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt} {
		for _, jobs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%v/jobs=%d", engine, jobs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAll(b, engine, jobs)
				}
				b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// TestEngineSteadyStateAllocs pins the bytecode engines' per-run
// allocation ceiling. Machines recycle register files and array slabs
// through the process-wide machine cache, so a steady-state run
// allocates only its result (~1 alloc). The ceiling is loose enough for
// runtime noise but fails hard if per-run frame allocation regresses.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const ceiling = 8.0
	sp, err := suite.Get("qcd")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := nascent.Compile(sp.Source, nascent.Options{BoundsChecks: true})
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
	for _, e := range []struct {
		name string
		prog *vm.Program
	}{{"unoptimized", vp}, {"vmopt", op}} {
		if _, err := e.prog.Run(nascent.RunConfig{}); err != nil {
			t.Fatalf("%s: warmup: %v", e.name, err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := e.prog.Run(nascent.RunConfig{}); err != nil {
				t.Fatalf("%s: run: %v", e.name, err)
			}
		})
		if n > ceiling {
			t.Errorf("%s: %.1f allocs/run in steady state, want <= %.0f", e.name, n, ceiling)
		}
		t.Logf("%s: %.1f allocs/run", e.name, n)
	}
}

// BenchmarkInterp measures raw interpreter throughput on the largest
// suite program (the substrate cost underlying every table).
func BenchmarkInterp(b *testing.B) {
	prog, err := suite.Get("mdg")
	if err != nil {
		b.Fatal(err)
	}
	p := compileOrFatal(b, prog.Source, nascent.Options{})
	var res nascent.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = runOrFatal(b, p)
	}
	b.ReportMetric(float64(res.Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkAblationMCM compares the paper's §5 future-work suggestion:
// Markstein-Cocke-Markstein restricted hoisting vs. this paper's LLS.
// The paper conjectures the simpler algorithm may be nearly as effective;
// the eliminated-% metrics quantify the gap on the suite.
func BenchmarkAblationMCM(b *testing.B) {
	naive := make(map[string]uint64, len(suite.Programs))
	for _, prog := range suite.Programs {
		p := compileOrFatal(b, prog.Source, nascent.Options{BoundsChecks: true})
		naive[prog.Name] = runOrFatal(b, p).Checks
	}
	for _, sch := range []nascent.Scheme{nascent.MCM, nascent.LI, nascent.LLS} {
		b.Run(sch.String(), func(b *testing.B) {
			var totalN, totalO uint64
			for i := 0; i < b.N; i++ {
				totalN, totalO = 0, 0
				for _, prog := range suite.Programs {
					p := compileOrFatal(b, prog.Source, nascent.Options{BoundsChecks: true, Scheme: sch})
					res := runOrFatal(b, p)
					totalN += naive[prog.Name]
					totalO += res.Checks
				}
			}
			b.ReportMetric(100*(1-float64(totalO)/float64(totalN)), "eliminated-%")
		})
	}
}

// BenchmarkAblationLoopRotation measures the paper's §3.3 remark that
// loop rotation lets safe-earliest placement hoist out of while loops:
// a fixed-point iteration reads invariant-subscript state on every pass,
// and SE can hoist those checks only once the while loop is rotated into
// a guarded repeat loop.
func BenchmarkAblationLoopRotation(b *testing.B) {
	const src = `program relax
  parameter n = 64
  real a(n)
  real w, tol
  integer i, k, lo, hi
  do i = 1, n
    a(i) = float(i)
  enddo
  lo = 2
  hi = n - 1
  call f()
  w = 1.0
  k = 0
  while (w > 0.0001 and k < 400)
    w = w * 0.97
    a(lo) = a(lo) * 0.5 + a(hi) * 0.5
    a(hi) = a(hi) * 0.5 + w
    k = k + 1
  endwhile
  print a(2), a(63)
end
subroutine f()
  lo = lo + 0
  hi = hi + 0
end
`
	for _, rotate := range []bool{false, true} {
		name := "SE"
		if rotate {
			name = "SE+rotate"
		}
		b.Run(name, func(b *testing.B) {
			p := compileOrFatal(b, src, nascent.Options{
				BoundsChecks: true, Scheme: nascent.SE, RotateLoops: rotate,
			})
			var res nascent.RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = runOrFatal(b, p)
			}
			b.ReportMetric(float64(res.Checks), "checks/op")
		})
	}
}
