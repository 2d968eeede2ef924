// Command rangebench regenerates the evaluation tables of Kolte & Wolfe
// (PLDI 1995) over the built-in benchmark suite.
//
// Usage:
//
//	rangebench [-table N] [-jobs N]
//	           [-engine vmopt|vmrce|vmjit|tree]
//	           [-times] [-trace]
//	           [-chaos seed:rate[:site]]
//	           [-cpuprofile file] [-memprofile file]
//
// With no flags, all three tables are printed. -table 1 prints program
// characteristics (naive check overhead), -table 2 the seven placement
// schemes × {PRX, INX}, -table 3 the implication ablation.
//
// -engine selects the execution substrate: the superinstruction-
// optimized bytecode VM (vmopt, the default; vmrce and vmjit are names
// for the same pipeline) or the tree-walking reference interpreter
// (tree). Table output is byte-identical under every engine — the CI
// pipeline diffs them — so the flag only changes wall-clock.
//
// -cpuprofile / -memprofile write pprof profiles of the whole run, for
// chasing interpreter hot spots (`go tool pprof`).
//
// -jobs N shards the evaluation matrix across N workers (default: all
// CPUs). Table output is byte-identical at every -jobs value — the
// engine merges results in job order and the interpreter counters are
// deterministic — so parallelism only changes wall-clock. The golden
// tests in internal/report pin this.
//
// -times appends the wall-clock columns (Range/Nascent) to Tables 2–3.
// They vary run to run, so they are excluded by default to keep the
// output reproducible.
//
// -trace logs each evaluation job's stages to stderr, followed by the
// pool's aggregate metrics.
//
// -chaos seed:rate[:site] turns on deterministic fault injection (see
// internal/chaos and docs/ROBUSTNESS.md). The same spec replays the
// same faults, so a failure logged by CI or an injected panic's error
// is reproducible with one flag.
//
// Exit codes: 0 all requested tables complete; 1 a table failed
// outright; 2 usage or profile-file errors; 3 every table rendered but
// at least one contains an ERR! cell (partial results — the run must
// not be mistaken for a complete reproduction).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/report"
)

func main() {
	table := flag.Int("table", 0, "table to print (1, 2, or 3; 0 = all)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "number of parallel evaluation workers")
	engineFlag := flag.String("engine", "vmopt", "execution engine: "+strings.Join(nascent.EngineNames(), "|"))
	times := flag.Bool("times", false, "include wall-clock columns (non-reproducible) in tables 2-3")
	trace := flag.Bool("trace", false, "log per-job stage timings to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	chaosFlag := flag.String("chaos", "", "deterministic fault injection spec: seed:rate[:site]")
	flag.Parse()

	engine, err := nascent.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
		os.Exit(2)
	}
	if *chaosFlag != "" {
		spec, err := chaos.ParseSpec(*chaosFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: -chaos: %v\n", err)
			os.Exit(2)
		}
		chaos.Enable(spec)
	}

	// Profiles are flushed before the final os.Exit, so the run body
	// lives in a function whose defers complete first.
	os.Exit(run(*table, *jobs, engine, *times, *trace, *cpuprofile, *memprofile))
}

func run(table, jobs int, engine nascent.Engine, times, trace bool, cpuprofile, memprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if memprofile == "" {
			return
		}
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
		}
	}()

	cfg := report.Config{Jobs: jobs, Timings: times, Tree: engine == nascent.EngineTree}
	if trace {
		cfg.Trace = func(ev evalpool.Event) {
			status := ""
			if ev.CacheHit {
				status = " (cached)"
			}
			if ev.Err != nil {
				status = fmt.Sprintf(" (error: %v)", ev.Err)
			}
			fmt.Fprintf(os.Stderr, "trace: job %3d %-24s %-8s %10s%s\n",
				ev.Job, ev.Name, ev.Stage, ev.Duration, status)
		}
	}
	r := report.New(cfg)

	tables := []struct {
		n int
		f func() (string, error)
	}{
		{1, r.Table1},
		{2, r.Table2},
		{3, r.Table3},
	}
	failed, partialTables := 0, 0
	for _, tb := range tables {
		if table != 0 && table != tb.n {
			continue
		}
		out, err := tb.f()
		switch {
		case errors.Is(err, report.ErrPartial):
			// The table rendered around its failed cells: print it, then
			// flag the run as partial so the exit code can't read as a
			// complete reproduction.
			fmt.Println(out)
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			partialTables++
		case err != nil:
			// The report errors are prefixed with their table number;
			// keep going so one bad table doesn't mask the others.
			fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
			failed++
		default:
			fmt.Println(out)
		}
	}
	if trace {
		fmt.Fprintf(os.Stderr, "%s\n", r.Metrics())
	}
	if failed > 0 || partialTables > 0 {
		// A spurious resource error looks like a genuine one; the replay
		// line ties the failure back to the active injection spec so any
		// ERR! cell is reproducible with a single flag.
		if chaos.Active() {
			fmt.Fprintf(os.Stderr, "rangebench: chaos injection active (replay: -chaos %s)\n", chaos.SpecString())
		}
	}
	if failed > 0 {
		return 1
	}
	if partialTables > 0 {
		return 3
	}
	return 0
}
