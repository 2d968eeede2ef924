// Package report measures the benchmark suite and renders the paper's
// Tables 1–3.
//
// A Runner builds the job matrix for a table, evaluates it on a bounded
// fan-out (guard.Each), and renders the ordered results. Table content
// is deterministic — byte identical at every worker count — because the
// interpreter counters are deterministic and results are indexed by
// job; wall-clock timing columns are therefore opt-in (Config.Timings)
// and excluded from the golden files.
package report

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nascent"
	"nascent/internal/dom"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/suite"
)

// Config configures a Runner.
type Config struct {
	// Jobs is the number of jobs evaluated at once (<= 0 means 1, i.e.
	// fully sequential). Table output is identical at every value; only
	// wall-clock changes.
	Jobs int
	// Timings adds the wall-clock columns (Range/Nascent) to Tables
	// 2–3. They are excluded by default so table output is
	// reproducible byte for byte.
	Timings bool
	// Tree runs every measurement job on the tree-walking reference
	// engine. By default jobs run on the bytecode pipeline (Compile →
	// Optimize on the switch VM), which counts the same instructions
	// and checks: table output is identical under either engine; only
	// wall-clock changes.
	Tree bool
}

// Runner generates tables, evaluating up to Config.Jobs jobs at once.
//
// The tables measure overlapping configurations — Tables 2 and 3
// divide by Table 1's naive checked run, and Table 3's
// full-implication rows are Table 2's — and many configurations of one
// program compile to the same program. So a Runner keeps, per suite
// program, its shared front end (one parse and analysis, one lowering
// per BoundsChecks value), every successful job result by compile
// options, and every successful run by program fingerprint: a job it
// has measured before is not evaluated again, and configurations that
// compile to the same program share one run. Failures are never kept.
type Runner struct {
	workers int
	timings bool
	engine  nascent.Engine
	progs   []program // indexed like suite.Programs

	jobs, errors, frontends, runs atomic.Int64
}

// program is what a Runner keeps of one suite program. No lock is held
// while a job compiles or runs; only the analysis of the front end
// holds mu, so the jobs of one program wait for its first analysis
// instead of repeating it.
type program struct {
	mu      sync.Mutex
	fe      *nascent.Frontend
	results map[nascent.Options]result
	runs    map[[sha256.Size]byte]nascent.RunResult
}

// result is the outcome of one job. Err carries the first failing
// stage's error, prefixed with the job name; Prog is nil when the
// compile failed. Stored results are shared between tables, so their
// programs are never edited (see countLoops).
type result struct {
	Prog *nascent.Program
	Res  nascent.RunResult
	Err  error
	// Stage timings. Frontend is zero unless this job ran the analysis.
	Frontend, Lower, Optimize time.Duration
}

// job is one measurement: suite program prog compiled under opts.
type job struct {
	name string
	prog int
	opts nascent.Options
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	engine := nascent.EngineVMOpt
	if cfg.Tree {
		engine = nascent.EngineTree
	}
	r := &Runner{
		workers: max(cfg.Jobs, 1),
		timings: cfg.Timings,
		engine:  engine,
		progs:   make([]program, len(suite.Programs)),
	}
	for i := range r.progs {
		r.progs[i].results = make(map[nascent.Options]result)
		r.progs[i].runs = make(map[[sha256.Size]byte]nascent.RunResult)
	}
	return r
}

// evaluate returns one result per job, in job order.
func (r *Runner) evaluate(jobs []job) []result {
	results := make([]result, len(jobs))
	errs := guard.Each(len(jobs), r.workers, func(i int) error {
		results[i] = r.measure(jobs[i])
		return nil
	})
	for i, err := range errs {
		if err != nil {
			r.errors.Add(1)
			results[i] = result{Err: fmt.Errorf("%s: %w", jobs[i].name, err)}
		}
	}
	return results
}

// measure returns the stored result of j, or evaluates it: front end,
// compile, run. A successful result is stored for later tables.
func (r *Runner) measure(j job) result {
	st := &r.progs[j.prog]
	st.mu.Lock()
	res, ok := st.results[j.opts]
	st.mu.Unlock()
	if ok {
		return res
	}
	r.jobs.Add(1)
	res = r.compileAndRun(st, j)
	if res.Err != nil {
		r.errors.Add(1)
		res.Err = fmt.Errorf("%s: %w", j.name, res.Err)
		return res
	}
	st.mu.Lock()
	st.results[j.opts] = res
	st.mu.Unlock()
	return res
}

// compileAndRun evaluates j on its program's shared front end. A run
// whose program has the fingerprint of an earlier successful run is
// served from it.
func (r *Runner) compileAndRun(st *program, j job) (res result) {
	fe, d, err := r.frontend(st, j.prog)
	res.Frontend = d
	if err != nil {
		res.Err = err
		return res
	}
	var times nascent.StageTimes
	res.Prog, res.Err = fe.CompileTimed(j.opts, &times)
	res.Lower, res.Optimize = times.Lower, times.Optimize
	if res.Err != nil {
		return res
	}
	key := res.Prog.IR.Fingerprint()
	st.mu.Lock()
	rr, ok := st.runs[key]
	st.mu.Unlock()
	if ok {
		res.Res = rr
		return res
	}
	r.runs.Add(1)
	if res.Res, err = res.Prog.RunWith(nascent.RunConfig{Engine: r.engine}); err != nil {
		res.Err = fmt.Errorf("run: %w", err)
		return res
	}
	st.mu.Lock()
	st.runs[key] = res.Res
	st.mu.Unlock()
	return res
}

// frontend returns suite program i's shared front end, analyzing it on
// first use. The duration is the analysis time, zero when the front end
// was kept from an earlier job. Only a successful analysis is kept.
func (r *Runner) frontend(st *program, i int) (*nascent.Frontend, time.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fe != nil {
		return st.fe, 0, nil
	}
	p := suite.Programs[i]
	t0 := time.Now()
	fe, err := nascent.AnalyzeShared(p.Source, p.Name+".mf")
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	st.fe = fe
	r.frontends.Add(1)
	return fe, d, nil
}

// Metrics counts the work a Runner has done across all its tables.
type Metrics struct {
	// Jobs is the number of jobs evaluated; a job served from a stored
	// result is not counted again. Errors is how many of them failed.
	Jobs, Errors int
	// Frontends is the number of front ends analyzed, and Runs the
	// number of runs executed: jobs whose compiled program matched an
	// earlier successful run did not execute.
	Frontends, Runs int
}

// Metrics returns the Runner's work counts.
func (r *Runner) Metrics() Metrics {
	return Metrics{
		Jobs:      int(r.jobs.Load()),
		Errors:    int(r.errors.Load()),
		Frontends: int(r.frontends.Load()),
		Runs:      int(r.runs.Load()),
	}
}

// String renders the counts as the one line rangebench -trace prints.
func (m Metrics) String() string {
	return fmt.Sprintf("report: %d jobs (%d errors), %d front ends analyzed, %d runs executed",
		m.Jobs, m.Errors, m.Frontends, m.Runs)
}

// Table1Row is one program's characteristics (paper Table 1).
type Table1Row struct {
	Program     string
	Suite       string
	Lines       int
	Subroutines int
	Loops       int
	StaticInstr uint64
	DynInstr    uint64
	StaticChk   int
	DynChk      uint64
	// Ratios in percent: checks vs all other instructions.
	StaticRatio float64
	DynRatio    float64
}

// naiveJob is the naive checked build of one program. It is Table 1's
// only measurement and the denominator of every Table 2 and 3 cell.
func naiveJob(i int) job {
	return job{
		name: suite.Programs[i].Name + "/naive",
		prog: i,
		opts: nascent.Options{BoundsChecks: true},
	}
}

// buildRow1 folds the naive checked measurement of one program into a
// Table 1 row. A range check costs nothing in the instruction counts,
// static or dynamic, and inserting checks adds no loop or subroutine,
// so the instruction columns are the unchecked program's
// (TestCheckedBuildCountsAsPlain pins this).
func buildRow1(p suite.Program, naive result) (Table1Row, error) {
	row := Table1Row{Program: p.Name, Suite: p.Suite, Lines: countLines(p.Source)}
	if naive.Err != nil {
		return row, naive.Err
	}
	prog := naive.Prog.IR
	row.Subroutines = len(prog.Funcs) - 1
	row.StaticInstr = interp.StaticCost(prog)
	row.DynInstr = naive.Res.Instructions
	row.StaticChk = naive.Prog.StaticChecks()
	if naive.Res.Trapped {
		return row, fmt.Errorf("%s: naive run trapped: %s", p.Name, naive.Res.TrapNote)
	}
	row.DynChk = naive.Res.Checks
	row.Loops = countLoops(prog)
	row.StaticRatio = 100 * float64(row.StaticChk) / float64(row.StaticInstr)
	row.DynRatio = 100 * float64(row.DynChk) / float64(row.DynInstr)
	return row, nil
}

// countLoops counts the natural loops of every function of prog. Loop
// analysis inserts preheader blocks, so it runs on snapshots: the
// Runner may hand the same result to a later table.
func countLoops(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		snap := f.Snapshot()
		n += len(loops.Analyze(snap, dom.Compute(snap)).Loops)
	}
	return n
}

func countLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Table2Cell is one (program, scheme, kind) measurement (paper Table 2).
type Table2Cell struct {
	Eliminated float64       // percent of dynamic checks eliminated
	OptTime    time.Duration // range check optimization time ("Range")
	TotalTime  time.Duration // whole compile ("Nascent")
	// Err marks a failed measurement. The cell renders as "ERR!" and
	// the table call returns a *PartialError — one bad cell degrades
	// one cell, never the whole table.
	Err error
}

// optJob is the evaluation of one program under one optimizer
// configuration.
func optJob(i int, scheme nascent.Scheme, kind nascent.CheckKind, impl nascent.Implications) job {
	return job{
		name: fmt.Sprintf("%s/%v/%v", suite.Programs[i].Name, scheme, kind),
		prog: i,
		opts: nascent.Options{
			BoundsChecks: true,
			Scheme:       scheme,
			Kind:         kind,
			Implications: impl,
		},
	}
}

// buildCell folds one optimized evaluation into a Table 2/3 cell. A
// failed measurement comes back as a cell with Err set, never as a
// hard error: the caller renders the rest of the table around it.
func buildCell(name string, res result, naiveChecks uint64) Table2Cell {
	var cell Table2Cell
	if res.Err != nil {
		cell.Err = res.Err
		return cell
	}
	cell.OptTime = res.Optimize
	cell.TotalTime = res.Frontend + res.Lower + res.Optimize
	if res.Res.Trapped {
		cell.Err = fmt.Errorf("%s: optimized run trapped: %s", name, res.Res.TrapNote)
		return cell
	}
	if naiveChecks == 0 {
		cell.Err = fmt.Errorf("%s: naive check count is zero", name)
		return cell
	}
	cell.Eliminated = 100 * (1 - float64(res.Res.Checks)/float64(naiveChecks))
	return cell
}
