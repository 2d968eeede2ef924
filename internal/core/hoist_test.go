package core_test

import (
	"fmt"
	"strings"
	"testing"

	"nascent/internal/conformance"
	"nascent/internal/core"
	"nascent/internal/dataflow"
	"nascent/internal/dom"
	"nascent/internal/loops"
	"nascent/internal/rangecheck"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

// hoistSources lists the programs the preheader-insertion tests replay:
// the benchmark suite, the conformance corpus, the irregular programs
// and the FuzzPipeline seed corpus (generator seeds 1-8 plus its
// hand-written edge cases).
func hoistSources() map[string]string {
	out := make(map[string]string)
	for _, p := range suite.Programs {
		out["suite/"+p.Name] = p.Source
	}
	for _, c := range conformance.Corpus {
		out["conformance/"+c.Name] = c.Src
	}
	for _, p := range suite.Irregular {
		out["irregular/"+p.Name] = p.Source
	}
	for seed := int64(1); seed <= 8; seed++ {
		out[fmt.Sprintf("fuzz/%d", seed)] = testutil.Generate(seed)
	}
	out["fuzz/oob"] = "program p\n  real a(10)\n  a(11) = 1.0\nend\n"
	out["fuzz/zerotrip"] = "program p\n  integer i\n  do i = 1, 0\n    i = i\n  enddo\nend\n"
	out["fuzz/empty"] = "program p\nend\n"
	return out
}

// TestKeptAnticipatabilityMatchesFresh checks the incremental upkeep of
// anticipatability in preheader insertion: before every loop's hoist,
// the solution kept since the function's one solve must equal a fresh
// Env's solve of the function as it stands, at every block and for
// every family, under LI, LLS and ALL, both check kinds, full and
// cross-family implications, with and without while-loop rotation.
func TestKeptAnticipatabilityMatchesFresh(t *testing.T) {
	var diffs []string
	compared, restore := core.CompareAnticipationForTest(func(msg string) { diffs = append(diffs, msg) })
	defer restore()
	for name, src := range hoistSources() {
		for _, sch := range []core.Scheme{core.LI, core.LLS, core.ALL} {
			for _, kind := range []core.CheckKind{core.PRX, core.INX} {
				for _, mode := range []rangecheck.Mode{rangecheck.ImplyFull, rangecheck.ImplyCross} {
					for _, rotate := range []bool{false, true} {
						opts := core.Options{Scheme: sch, Kind: kind, Mode: mode, Rotate: rotate}
						p := testutil.BuildIR(t, src, true)
						if _, err := core.Optimize(p, opts); err != nil {
							t.Fatalf("%s %+v: %v", name, opts, err)
						}
						if len(diffs) > 0 {
							t.Fatalf("%s %+v: kept anticipatability differs from a fresh solve:\n%s",
								name, opts, strings.Join(diffs[:min(len(diffs), 10)], "\n"))
						}
					}
				}
			}
		}
	}
	if *compared == 0 {
		t.Fatal("no loop was compared")
	}
	t.Logf("compared %d loops", *compared)
}

// loopSource builds n DO loops in a row, or one nest n deep, each loop
// over i = 1, m and the innermost (or every) body updating a(i).
func loopSource(n int, nested bool) string {
	var b strings.Builder
	b.WriteString("program p\n  integer i, m\n  real a(10)\n  m = 1\n")
	if nested {
		b.WriteString(strings.Repeat("do i = 1, m\n", n))
		b.WriteString("a(i) = a(i) + 1.0\n")
		b.WriteString(strings.Repeat("enddo\n", n))
	} else {
		b.WriteString(strings.Repeat("  do i = 1, m\n    a(i) = a(i) + 1.0\n  enddo\n", n))
	}
	b.WriteString("  print a(1)\nend\n")
	return b.String()
}

// hoistWork returns the work count of the pass under the scheme on src's
// main program, and the block visits of one full anticipatability solve
// of that program as preheader insertion first sees it.
func hoistWork(t *testing.T, src string, sch core.Scheme) (work, solve int) {
	t.Helper()
	work = -1
	restore := core.WorkForTest(func(fn string, w int) { work = w })
	defer restore()
	if _, err := core.Optimize(testutil.BuildIR(t, src, true), core.Options{Scheme: sch}); err != nil {
		t.Fatal(err)
	}
	if work < 0 {
		t.Fatal("the pass reported no work")
	}
	f := testutil.BuildIR(t, src, true).Main()
	f.SplitCriticalEdges()
	loops.Analyze(f, dom.Compute(f))
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
	env.Anticipatability(dataflow.In)
	return work, env.Visits
}

// TestPreheaderWorkScales pins that preheader insertion's work follows
// what each loop's hoist changes. The work is the deterministic count of
// its dataflow block visits plus the blocks its per-loop passes touch.
// On loops in a row it must grow at most 2.2× per doubling of the loop
// count (a solve per loop made it about 4×); on a nest it must stay
// within twice one full anticipatability solve of the function.
func TestPreheaderWorkScales(t *testing.T) {
	for _, sch := range []core.Scheme{core.LLS, core.ALL, core.MCM} {
		prev := 0
		for _, n := range []int{500, 1000, 2000} {
			work, _ := hoistWork(t, loopSource(n, false), sch)
			t.Logf("%v: %d loops in a row: work %d", sch, n, work)
			if prev > 0 && float64(work) > 2.2*float64(prev) {
				t.Errorf("%v: work grew from %d to %d when the loops doubled to %d, want at most 2.2×", sch, prev, work, n)
			}
			prev = work
		}
		for _, d := range []int{250, 500, 1000} {
			work, solve := hoistWork(t, loopSource(d, true), sch)
			t.Logf("%v: nest of depth %d: work %d, one solve %d", sch, d, work, solve)
			if work > 2*solve {
				t.Errorf("%v: nest of depth %d: work %d, more than twice one solve (%d)", sch, d, work, solve)
			}
		}
	}
}
