package evalpool_test

import (
	"fmt"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/ir"
)

// srcN returns a tiny program whose output identifies n, so result
// ordering is observable.
func srcN(n int) string {
	return fmt.Sprintf(`program p%d
  integer a(1:10)
  integer i
  do i = 1, 10
    a(i) = %d
  enddo
  print a(3)
end
`, n, n)
}

func TestEvaluateOrderedResults(t *testing.T) {
	pool := evalpool.New(8)
	var jobs []evalpool.Job
	for n := 0; n < 40; n++ {
		jobs = append(jobs, evalpool.Job{
			Name:     fmt.Sprintf("p%d", n),
			Source:   srcN(n),
			Filename: fmt.Sprintf("p%d.mf", n),
			Opts:     nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
		})
	}
	results := pool.Evaluate(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for n, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", n, r.Err)
		}
		want := fmt.Sprintf("%d\n", n)
		if r.Res.Output != want {
			t.Errorf("result %d out of order: output %q, want %q", n, r.Res.Output, want)
		}
	}
}

func TestFrontendMemoization(t *testing.T) {
	pool := evalpool.New(4)
	src := srcN(7)
	var jobs []evalpool.Job
	for _, sch := range []nascent.Scheme{nascent.Naive, nascent.NI, nascent.SE, nascent.LLS} {
		for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
			jobs = append(jobs, evalpool.Job{
				Name:     fmt.Sprintf("p7/%v/%v", sch, kind),
				Source:   src,
				Filename: "p7.mf",
				Opts:     nascent.Options{BoundsChecks: true, Scheme: sch, Kind: kind},
			})
		}
	}
	results := pool.Evaluate(jobs)
	hits := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != len(jobs)-1 {
		t.Errorf("cache hits = %d, want %d (one compile, rest shared)", hits, len(jobs)-1)
	}
	m := pool.Metrics()
	if m.FrontendCompiles != 1 || m.FrontendHits != len(jobs)-1 {
		t.Errorf("metrics: %d compiles / %d hits, want 1 / %d", m.FrontendCompiles, m.FrontendHits, len(jobs)-1)
	}
	if m.Jobs != len(jobs) || m.Errors != 0 {
		t.Errorf("metrics: jobs=%d errors=%d", m.Jobs, m.Errors)
	}
}

func TestJobFailureIsolation(t *testing.T) {
	pool := evalpool.New(4)
	jobs := []evalpool.Job{
		{Name: "good0", Source: srcN(0), Opts: nascent.Options{BoundsChecks: true}},
		{Name: "bad", Source: "program broken\n  this is not MF\nend\n"},
		{Name: "good1", Source: srcN(1), Opts: nascent.Options{BoundsChecks: true}},
	}
	results := pool.Evaluate(jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad job did not fail")
	}
	if !strings.Contains(results[1].Err.Error(), "bad") {
		t.Errorf("error lacks job name: %v", results[1].Err)
	}
	if m := pool.Metrics(); m.Errors != 1 {
		t.Errorf("metrics.Errors = %d, want 1", m.Errors)
	}
}

func TestSkipRunAndMutate(t *testing.T) {
	pool := evalpool.New(1)
	results := pool.Evaluate([]evalpool.Job{
		{
			Name:   "mutated",
			Source: srcN(3),
			Opts:   nascent.Options{BoundsChecks: true},
			Mutate: func(p *nascent.Program) {
				// Prepend an always-failing trap so the run must observe
				// the mutation.
				entry := p.IR.Main().Blocks[0]
				entry.Stmts = append([]ir.Stmt{&ir.TrapStmt{Note: "injected"}}, entry.Stmts...)
			},
		},
	})
	mut := results[0]
	if mut.Err != nil {
		t.Fatal(mut.Err)
	}
	if !mut.Res.Trapped || !strings.Contains(mut.Res.TrapNote, "injected") {
		t.Errorf("mutation not observed: %+v", mut.Res)
	}
}

func TestTraceEvents(t *testing.T) {
	pool := evalpool.New(4)
	type key struct {
		job   int
		stage string
	}
	seen := map[key]int{}
	pool.SetTrace(func(ev evalpool.Event) { seen[key{ev.Job, ev.Stage}]++ })

	var jobs []evalpool.Job
	for n := 0; n < 6; n++ {
		jobs = append(jobs, evalpool.Job{
			Name:   fmt.Sprintf("p%d", n),
			Source: srcN(n),
			Opts:   nascent.Options{BoundsChecks: true},
		})
	}
	pool.Evaluate(jobs)
	for n := range jobs {
		for _, stage := range []string{evalpool.StageFrontend, evalpool.StageCompile, evalpool.StageRun} {
			if seen[key{n, stage}] != 1 {
				t.Errorf("job %d stage %s: %d events, want 1", n, stage, seen[key{n, stage}])
			}
		}
	}
}

func TestMetricsString(t *testing.T) {
	pool := evalpool.New(1)
	pool.Evaluate([]evalpool.Job{{Name: "p", Source: srcN(1), Opts: nascent.Options{BoundsChecks: true}}})
	s := pool.Metrics().String()
	for _, want := range []string{"1 jobs", "0 errors", "instr", "checks"} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics summary %q missing %q", s, want)
		}
	}
}
