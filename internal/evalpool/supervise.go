package evalpool

// Supervision: every job attempt runs on a monitored worker goroutine.
// A worker that dies (panics) or blows its per-attempt deadline is
// abandoned and the job is retried with capped exponential backoff on a
// fresh worker; a job that fails abnormally on every attempt is
// quarantined behind a typed *PoisonedInputError carrying the chaos
// replay spec. Deterministic outcomes — compile errors, traps, resource
// budgets — are never retried: rerunning a deterministic failure cannot
// heal it, and retries must not perturb the byte-identical reduce.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"nascent/internal/chaos"
)

// Config configures a supervised pool. The zero value of every field
// selects a default, so Config{} behaves exactly like New(0).
type Config struct {
	// Workers bounds concurrency (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxAttempts is how many times one job may run before it is
	// quarantined; only abnormal failures (worker death, deadline
	// overrun) consume extra attempts (<= 0 selects 3).
	MaxAttempts int
	// JobTimeout bounds one attempt's wall clock. On expiry the attempt
	// context is cancelled — an in-flight engine run stops at its next
	// poll point — and the job is retried (0 means no deadline).
	JobTimeout time.Duration
}

const (
	defaultMaxAttempts = 3
	// The delay before the first retry is defaultBackoff; it doubles
	// per attempt, capped at defaultMaxBackoff.
	defaultBackoff    = time.Millisecond
	defaultMaxBackoff = 250 * time.Millisecond
	// hangSafety bounds an injected hang when no JobTimeout is armed, so
	// a chaos sweep without supervision deadlines cannot deadlock.
	hangSafety = 2 * time.Second
)

// ErrPoisoned is the sentinel matched by errors.Is for every
// quarantined input.
var ErrPoisoned = errors.New("evalpool: input poisoned")

// PoisonedInputError quarantines a job whose every attempt failed
// abnormally. It carries the chaos spec installed when the job was
// poisoned, so a logged quarantine is replayable from the error text
// alone (`-chaos <spec>` on rangebench or nacc).
type PoisonedInputError struct {
	// Job is the job's label.
	Job string
	// Attempts is how many times the job ran before quarantine.
	Attempts int
	// LastErr is the final attempt's failure.
	LastErr error
	// ChaosSpec is chaos.SpecString() at quarantine time ("" when
	// injection was off — a genuinely sick input or machine).
	ChaosSpec string
}

func (e *PoisonedInputError) Error() string {
	replay := ""
	if e.ChaosSpec != "" {
		replay = fmt.Sprintf(" (replay: -chaos %s)", e.ChaosSpec)
	}
	return fmt.Sprintf("evalpool: input %q poisoned after %d attempts%s: %v",
		e.Job, e.Attempts, replay, e.LastErr)
}

// Is makes errors.Is(err, ErrPoisoned) match any PoisonedInputError.
func (e *PoisonedInputError) Is(target error) bool { return target == ErrPoisoned }

// Unwrap exposes the final attempt's failure.
func (e *PoisonedInputError) Unwrap() error { return e.LastErr }

// WorkerDeathError reports a worker goroutine that panicked mid-job.
// The supervisor retries the job on a fresh worker; this error surfaces
// only inside a PoisonedInputError (every attempt died) or in traces.
type WorkerDeathError struct {
	Job       string
	Attempt   int
	Recovered any
	Stack     []byte
}

func (e *WorkerDeathError) Error() string {
	return fmt.Sprintf("evalpool: worker died on %q (attempt %d): %v", e.Job, e.Attempt, e.Recovered)
}

// JobTimeoutError reports an attempt that exceeded Config.JobTimeout.
type JobTimeoutError struct {
	Job     string
	Attempt int
	Timeout time.Duration
}

func (e *JobTimeoutError) Error() string {
	return fmt.Sprintf("evalpool: job %q exceeded its %s deadline (attempt %d)", e.Job, e.Timeout, e.Attempt)
}

// abnormal reports whether err is a supervision-level failure (worker
// death or deadline overrun) that a retry on a fresh worker might heal.
func abnormal(err error) bool {
	var wd *WorkerDeathError
	var jt *JobTimeoutError
	return errors.As(err, &wd) || errors.As(err, &jt)
}

// superviseJob runs one job under the retry/quarantine policy; memo
// selects whether its front end goes through the memo table.
func (p *Pool) superviseJob(ctx context.Context, i int, job *Job, memo bool) Result {
	maxAttempts := p.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	// The replay spec is captured at the FIRST abnormal failure, not at
	// quarantine time: a scoped drill (chaos.AcquireDrill) can disarm
	// the registry while the last retry is still backing off, and a
	// quarantine error without its spec is not replayable.
	spec := ""
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			p.accountSupervised()
			return Result{Err: fmt.Errorf("%s: pool cancelled: %w", job.Name, err), Attempts: attempt}
		}
		res := p.attempt(ctx, i, job, attempt, memo)
		res.Attempts = attempt + 1
		if !abnormal(res.Err) {
			return res
		}
		if spec == "" {
			spec = chaos.SpecString()
		}
		if attempt+1 >= maxAttempts {
			p.mu.Lock()
			p.metrics.Quarantined++
			p.mu.Unlock()
			p.accountSupervised()
			res.Err = &PoisonedInputError{
				Job:       job.Name,
				Attempts:  attempt + 1,
				LastErr:   res.Err,
				ChaosSpec: spec,
			}
			return res
		}
		p.mu.Lock()
		p.metrics.Retries++
		p.mu.Unlock()
		if !sleepCtx(ctx, backoff(attempt)) {
			p.accountSupervised()
			return Result{Err: fmt.Errorf("%s: pool cancelled: %w", job.Name, ctx.Err()), Attempts: attempt + 1}
		}
	}
}

// backoff returns the capped exponential delay before retry attempt+1.
func backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := defaultBackoff << uint(attempt)
	if d > defaultMaxBackoff {
		d = defaultMaxBackoff
	}
	return d
}

// accountSupervised records a job whose final result was produced by
// the supervisor rather than a completed runJob (quarantine, pool
// cancellation), so Metrics.Jobs/Errors still cover every input job.
func (p *Pool) accountSupervised() {
	p.mu.Lock()
	p.metrics.Jobs++
	p.metrics.Errors++
	p.mu.Unlock()
}

// sleepCtx sleeps d unless ctx is done first; it reports whether the
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt runs one monitored attempt of a job. The job executes on its
// own worker goroutine with panic containment; the supervisor waits for
// completion, the per-attempt deadline, or pool cancellation. Either
// abort path cancels the attempt context, which is threaded into the
// job's RunConfig so an in-flight engine run stops at its next poll
// point rather than running to completion.
func (p *Pool) attempt(ctx context.Context, i int, job *Job, attempt int, memo bool) Result {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := *job
	if jc := j.Run.Context; jc != nil {
		// The job carries its own context: honor it by propagating its
		// cancellation into the attempt context.
		stop := context.AfterFunc(jc, cancel)
		defer stop()
	}
	j.Run.Context = actx

	done := make(chan Result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- Result{Err: &WorkerDeathError{Job: j.Name, Attempt: attempt, Recovered: r, Stack: debug.Stack()}}
			}
		}()
		if chaos.Active() {
			key := chaos.AttemptKey(j.Name, attempt)
			if chaos.Fire(chaos.SiteWorkerKill, key) {
				panic(chaos.PanicValue(chaos.SiteWorkerKill, key))
			}
			if chaos.Fire(chaos.SiteWorkerHang, key) {
				// Simulated hang: block until the supervisor cancels the
				// attempt (deadline, pool shutdown) or the safety cap
				// expires, then report the stall as a typed timeout so
				// the supervisor path that drains us classifies it
				// abnormal even without a configured JobTimeout.
				select {
				case <-actx.Done():
				case <-time.After(hangSafety):
				}
				done <- Result{Err: &JobTimeoutError{Job: j.Name, Attempt: attempt, Timeout: hangSafety}}
				return
			}
			if chaos.Fire(chaos.SiteWorkerSlow, j.Name) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		done <- p.runJob(i, &j, memo)
	}()

	var timeout <-chan time.Time
	if p.cfg.JobTimeout > 0 {
		t := time.NewTimer(p.cfg.JobTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case res := <-done:
		var wd *WorkerDeathError
		if errors.As(res.Err, &wd) {
			p.mu.Lock()
			p.metrics.WorkerDeaths++
			p.mu.Unlock()
		}
		return res
	case <-timeout:
		// Abandon the worker: cancel its engine run (next poll point)
		// and retry on a fresh one. The abandoned goroutine drains into
		// the buffered channel and exits.
		cancel()
		p.mu.Lock()
		p.metrics.Timeouts++
		p.mu.Unlock()
		return Result{Err: &JobTimeoutError{Job: j.Name, Attempt: attempt, Timeout: p.cfg.JobTimeout}}
	case <-ctx.Done():
		// Pool cancelled mid-job: stop the in-flight engine at its next
		// poll point and report what the worker actually observed
		// (usually a typed cancellation ResourceError).
		cancel()
		// A completed result that squeaked in before the cancel is kept:
		// a cancelled pool still returns every finished result.
		return <-done
	}
}
