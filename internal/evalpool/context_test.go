package evalpool_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/guard"
	"nascent/internal/interp"
)

// slowSrc runs long enough (~1e8 counted instructions) that a test can
// reliably cancel it mid-flight; if cancellation were broken it would
// still terminate, just slowly, and fail the assertions below.
const slowSrc = `program slow
  integer a(1:10)
  integer i
  integer j
  do i = 1, 10000
    do j = 1, 3000
      a(3) = a(3) + 1
    enddo
  enddo
  print a(3)
end
`

// TestCancelStopsInFlightRun is the context-propagation audit: a
// cancelled EvaluateCtx must stop an in-flight engine run at its next
// poll point — not merely skip queued jobs.
func TestCancelStopsInFlightRun(t *testing.T) {
	for _, engine := range []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt} {
		t.Run(engine.String(), func(t *testing.T) {
			pool := evalpool.New(1)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			t0 := time.Now()
			results := pool.EvaluateCtx(ctx, []evalpool.Job{
				{Name: "inflight", Source: slowSrc, Filename: "slow.mf",
					Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.Naive},
					Run:  nascent.RunConfig{Engine: engine}},
				{Name: "queued", Source: srcN(4), Filename: "queued.mf",
					Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.Naive}},
			})
			elapsed := time.Since(t0)

			// The in-flight run must have stopped at a poll point with a
			// typed cancellation, long before the program could finish.
			var re *interp.ResourceError
			if !errors.As(results[0].Err, &re) || re.Resource != interp.ResCancelled {
				t.Fatalf("in-flight job err = %v, want ResourceError{ResCancelled}", results[0].Err)
			}
			if !errors.Is(results[0].Err, interp.ErrResourceExhausted) {
				t.Errorf("cancellation error must match ErrResourceExhausted")
			}
			if elapsed > 2*time.Second {
				t.Errorf("EvaluateCtx took %s after cancel; in-flight run did not stop at a poll point", elapsed)
			}
			// The queued job never started: typed cancellation, no result.
			if err := results[1].Err; err == nil || !errors.Is(err, context.Canceled) {
				t.Errorf("queued job err = %v, want context.Canceled", err)
			}
			if m := pool.Metrics(); m.Jobs != 2 || m.Errors != 2 {
				t.Errorf("Jobs/Errors = %d/%d, want 2/2", m.Jobs, m.Errors)
			}
		})
	}
}

// TestJobContextStillHonored checks a job-provided Run.Context keeps
// working when the pool has no context of its own.
func TestJobContextStillHonored(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	pool := evalpool.New(1)
	res := pool.Evaluate([]evalpool.Job{{
		Name: "jobctx", Source: slowSrc, Filename: "slow.mf",
		Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.Naive},
		Run:  nascent.RunConfig{Context: ctx},
	}})[0]
	var re *interp.ResourceError
	if !errors.As(res.Err, &re) || re.Resource != interp.ResCancelled {
		t.Fatalf("err = %v, want ResourceError{ResCancelled}", res.Err)
	}
}

// TestMergedContextKeepsDeadline: when both the caller's context and
// the job's own Run.Context can end the run, whichever ends first
// stops it, and a deadline still reads as ResDeadline through the
// merge.
func TestMergedContextKeepsDeadline(t *testing.T) {
	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := evalpool.New(1).SubmitCtx(ctx, evalpool.Job{
		Name: "merged", Source: slowSrc, Filename: "slow.mf",
		Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.Naive},
		Run:  nascent.RunConfig{Engine: nascent.EngineVMOpt, Context: jobCtx},
	})
	var re *interp.ResourceError
	if !errors.As(res.Err, &re) || re.Resource != interp.ResDeadline {
		t.Fatalf("err = %v, want ResourceError{ResDeadline}", res.Err)
	}
}

// TestJobPanicIsInternalError: a panic inside a job is contained as
// that job's typed internal error, after one run. The other jobs of the
// same Evaluate are unaffected.
func TestJobPanicIsInternalError(t *testing.T) {
	calls := 0
	pool := evalpool.New(1)
	results := pool.Evaluate([]evalpool.Job{
		{Name: "doomed", Source: srcN(2), Filename: "doomed.mf",
			Opts:   nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
			Mutate: func(*nascent.Program) { calls++; panic("mutate hook failed") }},
		{Name: "fine", Source: srcN(3), Filename: "fine.mf",
			Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}},
	})
	var ie *guard.InternalError
	if !errors.As(results[0].Err, &ie) || ie.Fn != "doomed" {
		t.Fatalf("err = %v, want a *guard.InternalError for job doomed", results[0].Err)
	}
	if calls != 1 {
		t.Errorf("panicking job ran %d times, want once", calls)
	}
	if results[1].Err != nil || results[1].Res.Output != "3\n" {
		t.Errorf("neighbouring job: %+v, %v", results[1].Res, results[1].Err)
	}
	if m := pool.Metrics(); m.Jobs != 2 || m.Errors != 1 {
		t.Errorf("Jobs/Errors = %d/%d, want 2/1", m.Jobs, m.Errors)
	}
}
