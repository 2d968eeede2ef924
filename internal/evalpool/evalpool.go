// Package evalpool is the concurrent evaluation engine behind the
// benchmark pipeline: it shards a matrix of independent compile+run
// jobs (program × scheme × check kind × implication mode × rotation)
// across a bounded worker pool and merges the results deterministically.
//
// Three properties make the pool safe for a pipeline whose output IS
// the reproduction claim:
//
//   - Ordered reduce: Evaluate returns results indexed exactly like its
//     input jobs, independent of completion order. Rendering code that
//     iterates the result slice produces byte-identical output at any
//     worker count (the golden-table tests in internal/report pin this).
//
//   - Shared front ends: Evaluate memoizes front ends by (source hash,
//     filename), so the ~20 optimizer variants of one program share a
//     single parse/semantic-analysis and one lowering per BoundsChecks
//     value (nascent.AnalyzeShared). Each job optimizes and runs its
//     own copy-on-write fork of that lowering, so no mutable state
//     crosses jobs. The pool keeps no compiled programs.
//
//   - Observable cost: the pool aggregates per-stage wall-clock and
//     interpreter counters into Metrics, and an optional Trace hook
//     receives one event per completed stage for -trace style output.
//
// Each job runs exactly once, under its caller's context. Every failure
// the pipeline produces is deterministic — compile errors, traps,
// budgets, contained panics — so rerunning a job cannot change its
// outcome, and the caller's context is the job's only deadline.
package evalpool

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"nascent"
	"nascent/internal/guard"
)

// Job is one independent evaluation: compile Source under Opts and
// execute it under Run limits.
type Job struct {
	// Name labels the job in traces and errors (e.g. "mdg/LLS/PRX").
	Name string
	// Source is the MF program text.
	Source string
	// Filename is the diagnostic filename (defaults to "input.mf"); it
	// is part of the memoization key because positions embed it.
	Filename string
	// Opts selects the backend configuration (BoundsChecks, Scheme,
	// Kind, Implications, RotateLoops). Opts.Filename is ignored; use
	// the Filename field.
	Opts nascent.Options
	// Run bounds execution (zero value = interpreter defaults). A
	// Run.Context is honored alongside the caller's context.
	Run nascent.RunConfig
	// Mutate, when non-nil, is applied to the compiled program before
	// it runs. The oracle uses it to inject deliberate miscompilations;
	// it runs on the worker goroutine and must only touch the program
	// it is handed. That program may be a fork sharing its statements
	// with other jobs (see Result.Prog), so Mutate replaces statements
	// rather than editing them.
	Mutate func(*nascent.Program)
	// RunMemo, when non-nil, shares this job's run with every other job
	// carrying the same memo whose compiled program has the same
	// fingerprint, engine and limits (see RunMemo). Jobs with a Mutate
	// hook never consult it. nil means no sharing.
	RunMemo *RunMemo
}

// Result is the outcome of one Job. Exactly one of Err / (Prog, Res)
// is meaningful; Err carries the first failing stage's error.
type Result struct {
	// Prog is the compiled program (nil when compilation failed). It is
	// owned by the caller after Evaluate returns: post-processing that
	// rewires its blocks (e.g. loop analysis inserting preheaders) is
	// safe. Its statements and expressions may be shared with the
	// front end's lowering (an ir.Program.Fork), so they are replaced,
	// never edited in place.
	Prog *nascent.Program
	// Res is the run result (zero on error).
	Res nascent.RunResult
	// Err is the first error of the job's pipeline, wrapped with the
	// job name and, for a run-stage failure, "run".
	Err error
	// Stage timings for this job. Frontend is zero on a cache hit: the
	// shared parse/analyze cost is charged to the job that populated
	// the cache entry (and appears once in Metrics.FrontendTime).
	Frontend, Lower, Optimize, Run time.Duration
	// CacheHit reports that the front end came from the memo table.
	CacheHit bool
}

// Stage names used in trace events.
const (
	StageFrontend = "frontend"
	StageCompile  = "compile"
	StageRun      = "run"
)

// Event is one trace record: a job finished a stage.
type Event struct {
	// Job is the index of the job in the Evaluate slice.
	Job int
	// Name is the job's label.
	Name string
	// Stage is one of StageFrontend, StageCompile, StageRun.
	Stage string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// CacheHit is set on frontend events served from the memo table.
	CacheHit bool
	// Err is the stage's error, if it failed.
	Err error
}

// TraceFunc receives trace events. The pool serializes calls (events
// from concurrent workers never interleave), but their order across
// jobs follows completion, not submission.
type TraceFunc func(Event)

// Metrics aggregates what a pool has done across all Evaluate calls.
type Metrics struct {
	// Jobs is the number of jobs evaluated (including failed ones).
	Jobs int
	// Errors is the number of jobs that returned an error.
	Errors int
	// FrontendCompiles / FrontendHits split the memo table's traffic.
	FrontendCompiles int
	FrontendHits     int
	// Stage wall-clock totals, summed across workers (under full
	// parallelism the sum exceeds elapsed time).
	FrontendTime time.Duration
	CompileTime  time.Duration
	RunTime      time.Duration
	// Instructions / Checks total the interpreter counters of every
	// successfully executed job.
	Instructions uint64
	Checks       uint64
	// SharedRuns counts jobs whose run was served from a Job.RunMemo
	// instead of executing. Their counters still add to Instructions and
	// Checks, so those totals do not depend on sharing.
	SharedRuns int
}

// Pool is a bounded-concurrency evaluation engine with a memoized
// front-end table. The zero value is not usable; call New.
//
// A Pool may be reused across many Evaluate calls: the memo table and
// metrics accumulate. Evaluate itself may be called concurrently.
type Pool struct {
	workers int
	trace   TraceFunc

	mu      sync.Mutex
	memo    map[feKey]*feEntry
	metrics Metrics
}

type feKey struct {
	hash     [sha256.Size]byte
	filename string
}

// feEntry is a once-guarded memo slot: the first job to need a front
// end compiles it, concurrent jobs for the same source block on the
// same entry instead of duplicating work. A failed fill is dropped from
// the table, so only the jobs already waiting on it share the error.
type feEntry struct {
	once sync.Once
	fe   *nascent.Frontend
	err  error
	dur  time.Duration
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		memo:    make(map[feKey]*feEntry),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetTrace installs a trace hook (nil disables tracing). Install it
// before Evaluate; the hook applies to subsequent jobs.
func (p *Pool) SetTrace(f TraceFunc) {
	p.mu.Lock()
	p.trace = f
	p.mu.Unlock()
}

// Metrics returns a snapshot of the pool's aggregate counters.
func (p *Pool) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// Evaluate runs every job and returns results in job order: result i
// belongs to jobs[i] regardless of which worker finished first. Job
// failures are reported per-result, never as a panic or early exit —
// one bad variant must not mask the rest of the matrix.
func (p *Pool) Evaluate(jobs []Job) []Result {
	return p.EvaluateCtx(context.Background(), jobs)
}

// EvaluateCtx is Evaluate under a context. Cancelling ctx stops the
// pool promptly: queued jobs return a cancellation error without
// running, and in-flight engine runs stop at their next poll point (ctx
// is threaded into each job's RunConfig). Results remain ordered and
// complete — a cancelled cell holds a typed error, never a hole.
func (p *Pool) EvaluateCtx(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	n := min(p.workers, len(jobs))
	if n <= 1 {
		for i := range jobs {
			results[i] = p.runJob(ctx, i, &jobs[i])
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.runJob(ctx, i, &jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// frontend returns the front end for a job from the memo table,
// compiled on first use. The duration returned is the compile cost
// when this call ran the analysis, zero on a hit.
func (p *Pool) frontend(job *Job) (*nascent.Frontend, time.Duration, bool, error) {
	key := feKey{hash: sha256.Sum256([]byte(job.Source)), filename: job.Filename}
	p.mu.Lock()
	e := p.memo[key]
	if e == nil {
		e = &feEntry{}
		p.memo[key] = e
	}
	p.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		t0 := time.Now()
		e.fe, e.err = nascent.AnalyzeShared(job.Source, job.Filename)
		e.dur = time.Since(t0)
		if e.err != nil {
			// A failure is not memoized: an injected or transient fault
			// must not outlive the jobs that raced into it.
			p.mu.Lock()
			if p.memo[key] == e {
				delete(p.memo, key)
			}
			p.mu.Unlock()
		}
	})
	if hit {
		return e.fe, 0, true, e.err
	}
	return e.fe, e.dur, false, e.err
}

// execute runs a compiled job under cfg, its Run with the pool's
// context threaded in. A job with a RunMemo and no Mutate hook first
// looks its program up there by fingerprint, engine and limits; a miss
// runs, and a successful run is stored for the next identical program.
func (p *Pool) execute(job *Job, prog *nascent.Program, cfg nascent.RunConfig) (nascent.RunResult, error) {
	if job.RunMemo == nil || job.Mutate != nil {
		return prog.RunWith(cfg)
	}
	rk := runKeyOf(prog, cfg)
	if rr, ok := job.RunMemo.get(rk); ok {
		p.mu.Lock()
		p.metrics.SharedRuns++
		p.mu.Unlock()
		return rr, nil
	}
	rr, err := prog.RunWith(cfg)
	if err == nil {
		job.RunMemo.put(rk, rr)
	}
	return rr, err
}

// runJob evaluates one job, once, on the calling goroutine. A job
// whose ctx is already done returns a cancellation error without
// running. A panic anywhere in the job becomes that job's
// *guard.InternalError, so Evaluate never panics.
func (p *Pool) runJob(ctx context.Context, i int, job *Job) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			ierr := &guard.InternalError{Stage: "job", Fn: job.Name, Recovered: r, Stack: debug.Stack()}
			res = Result{Err: fmt.Errorf("%s: %w", job.Name, ierr)}
			p.accountFailed()
		}
	}()
	if err := ctx.Err(); err != nil {
		p.accountFailed()
		return Result{Err: fmt.Errorf("%s: pool cancelled: %w", job.Name, err)}
	}
	runCfg := job.Run
	var stop context.CancelFunc
	runCfg.Context, stop = runContext(ctx, job.Run.Context)
	defer stop()

	fe, feDur, hit, err := p.frontend(job)
	res.Frontend, res.CacheHit = feDur, hit
	p.emit(Event{Job: i, Name: job.Name, Stage: StageFrontend, Duration: feDur, CacheHit: hit, Err: err})
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", job.Name, err)
		p.account(&res)
		return res
	}

	var st nascent.StageTimes
	prog, err := fe.CompileTimed(job.Opts, &st)
	res.Lower, res.Optimize = st.Lower, st.Optimize
	p.emit(Event{Job: i, Name: job.Name, Stage: StageCompile, Duration: st.Lower + st.Optimize, Err: err})
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", job.Name, err)
		p.account(&res)
		return res
	}
	res.Prog = prog

	if job.Mutate != nil {
		job.Mutate(prog)
	}
	t0 := time.Now()
	rr, err := p.execute(job, prog, runCfg)
	res.Run = time.Since(t0)
	p.emit(Event{Job: i, Name: job.Name, Stage: StageRun, Duration: res.Run, Err: err})
	if err != nil {
		res.Err = fmt.Errorf("%s: run: %w", job.Name, err)
	} else {
		res.Res = rr
	}
	p.account(&res)
	return res
}

// runContext merges the pool's ctx into a job's own run context jc. A
// ctx that can never be done adds nothing, so a job with neither
// context runs without polling. Merging keeps ctx's cause, so a run
// stopped by its caller's deadline still reads as a deadline.
func runContext(ctx, jc context.Context) (context.Context, context.CancelFunc) {
	switch {
	case ctx.Done() == nil:
		return jc, func() {}
	case jc == nil:
		return ctx, func() {}
	}
	merged, cancel := context.WithCancelCause(jc)
	stop := context.AfterFunc(ctx, func() { cancel(context.Cause(ctx)) })
	return merged, func() { stop(); cancel(nil) }
}

// emit delivers a trace event under the pool lock so concurrent
// workers never interleave inside the hook. The unlock is deferred so
// a panicking hook, which runJob recovers, cannot leave the pool
// locked.
func (p *Pool) emit(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trace != nil {
		p.trace(ev)
	}
}

// accountFailed records a job that ended before its pipeline could
// account it (a cancelled pool, a contained panic).
func (p *Pool) accountFailed() {
	p.mu.Lock()
	p.metrics.Jobs++
	p.metrics.Errors++
	p.mu.Unlock()
}

func (p *Pool) account(r *Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := &p.metrics
	m.Jobs++
	if r.Err != nil {
		m.Errors++
	}
	if r.CacheHit {
		m.FrontendHits++
	} else {
		m.FrontendCompiles++
		m.FrontendTime += r.Frontend
	}
	m.CompileTime += r.Lower + r.Optimize
	m.RunTime += r.Run
	m.Instructions += r.Res.Instructions
	m.Checks += r.Res.Checks
}

// String renders the metrics as a one-line summary for -trace output.
func (m Metrics) String() string {
	s := fmt.Sprintf(
		"evalpool: %d jobs (%d errors), frontends %d compiled / %d shared, frontend %s, compile %s, run %s, %d instr, %d checks",
		m.Jobs, m.Errors, m.FrontendCompiles, m.FrontendHits,
		m.FrontendTime.Round(time.Millisecond),
		m.CompileTime.Round(time.Millisecond),
		m.RunTime.Round(time.Millisecond),
		m.Instructions, m.Checks)
	if m.SharedRuns != 0 {
		s += fmt.Sprintf(", %d runs shared", m.SharedRuns)
	}
	return s
}
