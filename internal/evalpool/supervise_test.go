package evalpool_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
)

// findSeed scans seeds until pred accepts one; chaos decisions are a
// pure function of (seed, site, key), so the found seed is stable
// forever and the test never depends on a magic number staying lucky.
func findSeed(t *testing.T, rate float64, site chaos.Site, pred func(chaos.Spec) bool) chaos.Spec {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		spec := chaos.Spec{Seed: seed, Rate: rate, Site: site}
		if pred(spec) {
			return spec
		}
	}
	t.Fatal("no seed under 10000 satisfies the predicate")
	return chaos.Spec{}
}

func enableChaos(t *testing.T, spec chaos.Spec) {
	t.Helper()
	chaos.Enable(spec)
	t.Cleanup(chaos.Disable)
}

// TestWorkerKillRetry injects a worker death on a job's first attempt
// only and checks the supervisor retries it to success on a fresh
// worker.
func TestWorkerKillRetry(t *testing.T) {
	const name = "victim"
	spec := findSeed(t, 0.5, chaos.SiteWorkerKill, func(s chaos.Spec) bool {
		return chaos.Decide(s, chaos.SiteWorkerKill, chaos.AttemptKey(name, 0)) &&
			!chaos.Decide(s, chaos.SiteWorkerKill, chaos.AttemptKey(name, 1))
	})
	enableChaos(t, spec)

	pool := evalpool.NewSupervised(evalpool.Config{
		Workers: 1, MaxAttempts: 3,
	})
	res := pool.Evaluate([]evalpool.Job{{
		Name: name, Source: srcN(1), Filename: "victim.mf",
		Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
	}})[0]
	if res.Err != nil {
		t.Fatalf("retried job failed: %v", res.Err)
	}
	if res.Res.Output != "1\n" {
		t.Errorf("output = %q, want %q", res.Res.Output, "1\n")
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (one death, one success)", res.Attempts)
	}
	m := pool.Metrics()
	if m.WorkerDeaths != 1 || m.Retries != 1 || m.Quarantined != 0 {
		t.Errorf("metrics = %+v, want 1 worker death, 1 retry, 0 quarantined", m)
	}
}

// TestWorkerKillQuarantine injects a worker death on every attempt and
// checks the job is quarantined behind a typed, replayable error.
func TestWorkerKillQuarantine(t *testing.T) {
	spec := chaos.Spec{Seed: 42, Rate: 1, Site: chaos.SiteWorkerKill}
	enableChaos(t, spec)

	pool := evalpool.NewSupervised(evalpool.Config{
		Workers: 2, MaxAttempts: 3,
	})
	results := pool.Evaluate([]evalpool.Job{
		{Name: "doomed", Source: srcN(2), Filename: "doomed.mf",
			Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}},
	})
	err := results[0].Err
	if !errors.Is(err, evalpool.ErrPoisoned) {
		t.Fatalf("err = %v, want ErrPoisoned", err)
	}
	var pe *evalpool.PoisonedInputError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PoisonedInputError", err)
	}
	if pe.Job != "doomed" || pe.Attempts != 3 {
		t.Errorf("PoisonedInputError = %+v, want job doomed after 3 attempts", pe)
	}
	var wd *evalpool.WorkerDeathError
	if !errors.As(pe.LastErr, &wd) {
		t.Errorf("LastErr = %T, want *WorkerDeathError", pe.LastErr)
	}
	// The quarantine must be replayable: its spec parses back to the
	// exact injection configuration that produced it.
	got, perr := chaos.ParseSpec(pe.ChaosSpec)
	if perr != nil {
		t.Fatalf("ChaosSpec %q does not parse: %v", pe.ChaosSpec, perr)
	}
	if got != spec {
		t.Errorf("ChaosSpec round-trip = %+v, want %+v", got, spec)
	}
	m := pool.Metrics()
	if m.Quarantined != 1 || m.WorkerDeaths != 3 || m.Retries != 2 {
		t.Errorf("metrics = %+v, want 1 quarantined, 3 deaths, 2 retries", m)
	}
	if m.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (quarantine counts as a job error)", m.Errors)
	}
	if !strings.Contains(m.String(), "1 quarantined") {
		t.Errorf("Metrics.String() = %q, want supervision counters appended", m.String())
	}
}

// TestWorkerHangTimeout injects a hang on the first attempt and checks
// the JobTimeout abandons it and the retry completes.
func TestWorkerHangTimeout(t *testing.T) {
	const name = "stuck"
	spec := findSeed(t, 0.5, chaos.SiteWorkerHang, func(s chaos.Spec) bool {
		return chaos.Decide(s, chaos.SiteWorkerHang, chaos.AttemptKey(name, 0)) &&
			!chaos.Decide(s, chaos.SiteWorkerHang, chaos.AttemptKey(name, 1))
	})
	enableChaos(t, spec)

	pool := evalpool.NewSupervised(evalpool.Config{
		Workers: 1, MaxAttempts: 3, JobTimeout: 30 * time.Millisecond,
	})
	res := pool.Evaluate([]evalpool.Job{{
		Name: name, Source: srcN(3), Filename: "stuck.mf",
		Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
	}})[0]
	if res.Err != nil {
		t.Fatalf("retried job failed: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
	if m := pool.Metrics(); m.Timeouts != 1 || m.Retries != 1 {
		t.Errorf("metrics = %+v, want 1 timeout, 1 retry", m)
	}
}

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
// poll point — not merely skip queued jobs. The injected slow-job site
// guarantees the job is mid-run when the cancel lands.
func TestCancelStopsInFlightRun(t *testing.T) {
	for _, engine := range []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt} {
		t.Run(engine.String(), func(t *testing.T) {
			enableChaos(t, chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteWorkerSlow})

			pool := evalpool.NewSupervised(evalpool.Config{Workers: 1})
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
		})
	}
}

// TestJobContextStillHonored checks a job-provided Run.Context keeps
// working through supervision's context rewiring.
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

// TestChaosOffSupervisionInert checks that with injection disabled a
// supervised pool behaves exactly like the plain pool: one attempt per
// job, zero supervision counters.
func TestChaosOffSupervisionInert(t *testing.T) {
	pool := evalpool.NewSupervised(evalpool.Config{
		Workers: 4, MaxAttempts: 3, JobTimeout: 10 * time.Second,
	})
	var jobs []evalpool.Job
	for n := 0; n < 8; n++ {
		jobs = append(jobs, evalpool.Job{
			Name: srcName(n), Source: srcN(n), Filename: "p.mf",
			Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
		})
	}
	for i, r := range pool.Evaluate(jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Attempts != 1 {
			t.Errorf("job %d: Attempts = %d, want 1", i, r.Attempts)
		}
	}
	m := pool.Metrics()
	if m.Retries != 0 || m.WorkerDeaths != 0 || m.Timeouts != 0 || m.Quarantined != 0 {
		t.Errorf("supervision counters nonzero chaos-off: %+v", m)
	}
	if m.Jobs != len(jobs) || m.Errors != 0 {
		t.Errorf("Jobs/Errors = %d/%d, want %d/0", m.Jobs, m.Errors, len(jobs))
	}
	if strings.Contains(m.String(), "retries") {
		t.Errorf("Metrics.String() mentions supervision on the healthy path: %q", m.String())
	}
}

func srcName(n int) string { return "p" + string(rune('0'+n)) }
