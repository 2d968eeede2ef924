package evalpool_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
)

// loopSrc sums 1..n: n controls how long a run takes.
func loopSrc(n int) string {
	return fmt.Sprintf(`program loop
  integer a(1:10)
  integer i, s
  s = 0
  do i = 1, %d
    a(mod(i, 10) + 1) = i
    s = s + a(mod(i, 10) + 1)
  enddo
  print s
end
`, n)
}

// TestRunMemoSharesIdenticalPrograms pins what a run memo shares: jobs
// whose compiled programs, engine and limits agree. The filename is not
// part of the program, so two filenames of one source share a run;
// another engine, another limit, or a Mutate hook does not.
func TestRunMemoSharesIdenticalPrograms(t *testing.T) {
	memo := evalpool.NewRunMemo()
	src := loopSrc(100)
	job := func(name string) evalpool.Job {
		return evalpool.Job{Name: name, Source: src, Filename: name + ".mf",
			Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, RunMemo: memo}
	}
	other := job("engine")
	other.Run.Engine = nascent.EngineVMOpt
	limited := job("limit")
	limited.Run.MaxInstructions = 1 << 40
	mutated := job("mutated")
	mutated.Mutate = func(*nascent.Program) {}
	unmemoized := job("plain")
	unmemoized.RunMemo = nil

	pool := evalpool.New(1)
	jobs := []evalpool.Job{job("a"), job("b"), other, limited, mutated, unmemoized}
	results := pool.Evaluate(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Name, r.Err)
		}
		if r.Res != results[0].Res {
			t.Errorf("%s: result %+v differs from %+v", jobs[i].Name, r.Res, results[0].Res)
		}
	}
	m := pool.Metrics()
	if m.SharedRuns != 1 {
		t.Errorf("shared runs = %d, want 1 (job b only)", m.SharedRuns)
	}
	if want := uint64(len(jobs)) * results[0].Res.Checks; m.Checks != want {
		t.Errorf("checks total = %d, want %d: a shared run still counts", m.Checks, want)
	}
	// A second pool with the same memo shares too: the memo, not the
	// pool, scopes the sharing.
	again := evalpool.New(1)
	if r := again.Evaluate([]evalpool.Job{job("c")})[0]; r.Err != nil || r.Res != results[0].Res {
		t.Fatalf("memo hit on a second pool: %+v, %v", r.Res, r.Err)
	}
	if got := again.Metrics().SharedRuns; got != 1 {
		t.Errorf("second pool shared runs = %d, want 1", got)
	}
	if s := again.Metrics().String(); !strings.Contains(s, "1 runs shared") {
		t.Errorf("metrics line %q does not report the shared run", s)
	}
}

// TestRunMemoKeepsNoFailure injects a spurious budget exhaustion into
// the first run: the failure must not be stored, so the next identical
// job runs (and succeeds) instead of inheriting it.
func TestRunMemoKeepsNoFailure(t *testing.T) {
	memo := evalpool.NewRunMemo()
	job := evalpool.Job{Name: "loop", Source: loopSrc(20000), Opts: nascent.Options{BoundsChecks: true}, RunMemo: memo}
	pool := evalpool.New(1)

	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTreeBudget})
	failed := pool.Evaluate([]evalpool.Job{job})[0]
	chaos.Disable()
	if !errors.Is(failed.Err, nascent.ErrResourceExhausted) {
		t.Fatalf("injected run: err = %v, want a resource error", failed.Err)
	}

	res := pool.Evaluate([]evalpool.Job{job, job})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("run %d after the fault: %v", i, r.Err)
		}
	}
	if got := pool.Metrics().SharedRuns; got != 1 {
		t.Errorf("shared runs = %d, want 1: the failed run was stored, or the good one was not", got)
	}
}

// TestRunMemoTimeoutDoesNotBlock abandons one run at its job deadline
// while an identical job runs on another pool: the identical job must
// complete on its own, and only its success is stored.
func TestRunMemoTimeoutDoesNotBlock(t *testing.T) {
	memo := evalpool.NewRunMemo()
	job := evalpool.Job{Name: "slow", Source: loopSrc(300000), Opts: nascent.Options{BoundsChecks: true}, RunMemo: memo}
	timed := evalpool.NewSupervised(evalpool.Config{Workers: 1, MaxAttempts: 1, JobTimeout: time.Millisecond})
	free := evalpool.New(1)

	var wg sync.WaitGroup
	var abandoned, finished evalpool.Result
	wg.Add(2)
	go func() { defer wg.Done(); abandoned = timed.Evaluate([]evalpool.Job{job})[0] }()
	go func() { defer wg.Done(); finished = free.Evaluate([]evalpool.Job{job})[0] }()
	wg.Wait()
	if !errors.Is(abandoned.Err, evalpool.ErrPoisoned) {
		t.Fatalf("timed job: err = %v, want a quarantined timeout", abandoned.Err)
	}
	if finished.Err != nil {
		t.Fatalf("identical job next to the abandoned one: %v", finished.Err)
	}
	if got := free.Metrics().SharedRuns; got != 0 {
		t.Fatalf("shared runs = %d, want 0: nothing was stored before the run", got)
	}
	r := free.Evaluate([]evalpool.Job{job})[0]
	if r.Err != nil || r.Res != finished.Res || free.Metrics().SharedRuns != 1 {
		t.Errorf("after the run: %+v, %v, shared %d; want the stored result", r.Res, r.Err, free.Metrics().SharedRuns)
	}
}
