// Package report measures the benchmark suite and renders the paper's
// Tables 1–3.
//
// All measurement flows through internal/evalpool: a Runner builds the
// job matrix for a table, evaluates it on a bounded worker pool, and
// renders the ordered results. Table content is deterministic — byte
// identical at every worker count — because the interpreter counters
// are deterministic and the reduce is ordered; wall-clock timing
// columns are therefore opt-in (Config.Timings) and excluded from the
// golden files.
package report

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nascent"
	"nascent/internal/dom"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/suite"
)

// Config configures a Runner.
type Config struct {
	// Jobs is the worker count of the evaluation pool (<= 0 means 1,
	// i.e. fully sequential). Table output is identical at every value;
	// only wall-clock changes.
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
	// Trace, when non-nil, receives one event per completed job stage.
	Trace evalpool.TraceFunc
}

// Runner generates tables on a (possibly concurrent) evaluation pool.
// The pool's front-end memo table is shared across tables: generating
// Tables 1–3 on one Runner parses each suite program exactly once.
//
// The tables also measure overlapping configurations — Tables 2 and 3
// divide by Table 1's naive checked run, and Table 3's full-implication
// rows are Table 2's — so a Runner shares work at two levels, both
// scoped to itself. It keeps every successful job result and evaluates
// only jobs it has not measured before; and it stamps one
// evalpool.RunMemo on its jobs, so configurations that compile to the
// same program share one run. Failures are never kept.
type Runner struct {
	pool    *evalpool.Pool
	timings bool
	engine  nascent.Engine
	runs    *evalpool.RunMemo

	mu   sync.Mutex
	done map[jobKey]evalpool.Result // successful results by job input
}

// jobKey is every input that can change a Runner job's result; the
// engine and run limits are fixed per Runner.
type jobKey struct {
	source, filename string
	opts             nascent.Options
}

func keyOf(job *evalpool.Job) jobKey {
	opts := job.Opts
	opts.Filename = "" // ignored by the pool; the Filename field counts
	return jobKey{source: job.Source, filename: job.Filename, opts: opts}
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	pool := evalpool.New(jobs)
	if cfg.Trace != nil {
		pool.SetTrace(cfg.Trace)
	}
	return NewOnPool(pool, cfg)
}

// NewOnPool returns a Runner that measures on an existing pool instead
// of creating its own. nascentd uses it so report requests share the
// service pool's memoized front ends across requests. Config.Jobs and Config.Trace are ignored — the pool
// owns both.
func NewOnPool(pool *evalpool.Pool, cfg Config) *Runner {
	engine := nascent.EngineVMOpt
	if cfg.Tree {
		engine = nascent.EngineTree
	}
	return &Runner{
		pool:    pool,
		timings: cfg.Timings,
		engine:  engine,
		runs:    evalpool.NewRunMemo(),
		done:    make(map[jobKey]evalpool.Result),
	}
}

// evaluate returns one result per job, in job order. Jobs the Runner
// has measured successfully before reuse that result; the rest go to
// the pool once per distinct key, stamped with the Runner's engine and
// run memo. Stored results are shared, so callers must not mutate them.
func (r *Runner) evaluate(jobs []evalpool.Job) []evalpool.Result {
	results := make([]evalpool.Result, len(jobs))
	slot := make([]int, len(jobs)) // index into todo, or -1 when stored
	first := make(map[jobKey]int)
	var todo []evalpool.Job
	r.mu.Lock()
	for i := range jobs {
		k := keyOf(&jobs[i])
		if res, ok := r.done[k]; ok {
			results[i], slot[i] = res, -1
			continue
		}
		t, ok := first[k]
		if !ok {
			t = len(todo)
			first[k] = t
			job := jobs[i]
			job.Run.Engine = r.engine
			job.RunMemo = r.runs
			todo = append(todo, job)
		}
		slot[i] = t
	}
	r.mu.Unlock()

	evaluated := r.pool.Evaluate(todo)
	r.mu.Lock()
	for k, t := range first {
		if evaluated[t].Err == nil {
			r.done[k] = evaluated[t]
		}
	}
	r.mu.Unlock()
	for i, t := range slot {
		if t >= 0 {
			results[i] = evaluated[t]
		}
	}
	return results
}

// Metrics returns the aggregate counters of the Runner's pool.
func (r *Runner) Metrics() evalpool.Metrics { return r.pool.Metrics() }

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
func naiveJob(p suite.Program) evalpool.Job {
	return evalpool.Job{
		Name:     p.Name + "/naive",
		Source:   p.Source,
		Filename: p.Name + ".mf",
		Opts:     nascent.Options{BoundsChecks: true},
	}
}

// buildRow1 folds the naive checked measurement of one program into a
// Table 1 row. A range check costs nothing in the instruction counts,
// static or dynamic, and inserting checks adds no loop or subroutine,
// so the instruction columns are the unchecked program's
// (TestCheckedBuildCountsAsPlain pins this).
func buildRow1(p suite.Program, naive evalpool.Result) (Table1Row, error) {
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
func optJob(p suite.Program, scheme nascent.Scheme, kind nascent.CheckKind, impl nascent.Implications) evalpool.Job {
	return evalpool.Job{
		Name:     fmt.Sprintf("%s/%v/%v", p.Name, scheme, kind),
		Source:   p.Source,
		Filename: p.Name + ".mf",
		Opts: nascent.Options{
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
func buildCell(name string, res evalpool.Result, naiveChecks uint64) Table2Cell {
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
