// Command nacc is the Nascent-Go compiler driver: it compiles one MF
// source file, optionally optimizes its range checks with a selected
// placement scheme, and runs, verifies, or dumps the result.
//
// Usage:
//
//	nacc [flags] file.mf
//
// Flags:
//
//	-scheme naive|NI|CS|LNI|SE|LI|LLS|ALL|MCM  placement scheme (default naive)
//	-kind   PRX|INX                            check construction (default PRX)
//	-impl   full|none|cross                    implication mode (default full)
//	-engine tree|vmopt|vmrce|vmjit             execution engine (default tree;
//	                                           vmjit is a second name for vmrce);
//	                                           with -verify, any bytecode engine
//	                                           also enables the engine-identity
//	                                           sweep across every engine up to
//	                                           and including the selection
//	-nocheck                                   compile without range checks
//	-dump                                      print the optimized IR, do not run
//	-stats                                     print static/dynamic statistics
//	-run                                       execute the program (default true)
//	-verify                                    cross-check every scheme against
//	                                           naive with the soundness oracle
//	-chaos seed:rate[:site]                    deterministic fault injection
//	                                           (see docs/ROBUSTNESS.md); used to
//	                                           replay CI chaos failures
//	-chaossweep                                sweep seeds 1..8 at rate 0.05
//	                                           through every injection site and
//	                                           assert correct-or-typed-error on
//	                                           all oracle variants; incompatible
//	                                           with -chaos
//
// Exit codes:
//
//	0  success (including a clean -verify pass)
//	1  the program failed at run time: a range trap, or a runtime
//	   fault in a -nocheck build
//	2  usage error (bad flags or arguments)
//	3  compile error (parse, semantic, lowering, or optimizer failure)
//	4  resource exhausted (instruction budget, memory cap, or deadline)
//	5  oracle divergence (-verify found an optimizer soundness
//	   violation, or -chaossweep found a correct-or-typed-error breach)
//
// Example:
//
//	nacc -scheme LLS -stats examples/quickstart/saxpy.mf
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/oracle"
)

// Documented process exit codes. Keep in sync with the package comment
// and docs/ROBUSTNESS.md.
const (
	exitOK         = 0
	exitTrap       = 1
	exitUsage      = 2
	exitCompile    = 3
	exitResource   = 4
	exitDivergence = 5
)

var schemes = map[string]nascent.Scheme{
	"naive": nascent.Naive, "ni": nascent.NI, "cs": nascent.CS,
	"lni": nascent.LNI, "se": nascent.SE, "li": nascent.LI,
	"lls": nascent.LLS, "all": nascent.ALL, "mcm": nascent.MCM,
}

var kinds = map[string]nascent.CheckKind{"prx": nascent.PRX, "inx": nascent.INX}

var impls = map[string]nascent.Implications{
	"full": nascent.ImplyFull, "none": nascent.ImplyNone, "cross": nascent.ImplyCross,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("nacc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemeFlag := fs.String("scheme", "naive", "placement scheme: naive|NI|CS|LNI|SE|LI|LLS|ALL|MCM")
	kindFlag := fs.String("kind", "PRX", "check construction: PRX|INX")
	implFlag := fs.String("impl", "full", "implications: full|none|cross")
	engineFlag := fs.String("engine", "tree", "execution engine: "+strings.Join(nascent.EngineNames(), "|"))
	noCheck := fs.Bool("nocheck", false, "compile without range checks")
	dump := fs.Bool("dump", false, "print the IR instead of running")
	cig := fs.Bool("cig", false, "print the check implication graph instead of running")
	stats := fs.Bool("stats", false, "print static/dynamic statistics")
	doRun := fs.Bool("run", true, "execute the program")
	verify := fs.Bool("verify", false, "cross-check all schemes against naive with the soundness oracle")
	chaosFlag := fs.String("chaos", "", "deterministic fault injection spec: seed:rate[:site]")
	chaosSweep := fs.Bool("chaossweep", false, "sweep chaos seeds 1..8 through the oracle and assert correct-or-typed-error")
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if *chaosFlag != "" && *chaosSweep {
		fmt.Fprintln(stderr, "nacc: -chaos and -chaossweep are mutually exclusive (the sweep owns the injection registry)")
		return exitUsage
	}
	if *chaosFlag != "" {
		spec, err := chaos.ParseSpec(*chaosFlag)
		if err != nil {
			fmt.Fprintf(stderr, "nacc: -chaos: %v\n", err)
			return exitUsage
		}
		chaos.Enable(spec)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: nacc [flags] file.mf")
		fs.Usage()
		return exitUsage
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "nacc: %v\n", err)
		return exitUsage
	}

	scheme, ok := schemes[strings.ToLower(*schemeFlag)]
	if !ok {
		fmt.Fprintf(stderr, "nacc: unknown scheme %q\n", *schemeFlag)
		return exitUsage
	}
	kind, ok := kinds[strings.ToLower(*kindFlag)]
	if !ok {
		fmt.Fprintf(stderr, "nacc: unknown check kind %q\n", *kindFlag)
		return exitUsage
	}
	impl, ok := impls[strings.ToLower(*implFlag)]
	if !ok {
		fmt.Fprintf(stderr, "nacc: unknown implication mode %q\n", *implFlag)
		return exitUsage
	}
	engine, err := nascent.ParseEngine(strings.ToLower(*engineFlag))
	if err != nil {
		fmt.Fprintf(stderr, "nacc: %v\n", err)
		return exitUsage
	}

	if *chaosSweep {
		return runChaosSweep(file, string(src), engine, stdout, stderr)
	}
	if *verify {
		return runVerify(file, string(src), engine, stdout, stderr)
	}

	prog, err := nascent.Compile(string(src), nascent.Options{
		Filename:     file,
		BoundsChecks: !*noCheck,
		Scheme:       scheme,
		Kind:         kind,
		Implications: impl,
	})
	if err != nil {
		fmt.Fprintf(stderr, "nacc: %v\n", err)
		return exitCompile
	}

	if prog.Opt != nil {
		for _, d := range prog.Opt.Diagnostics {
			fmt.Fprintf(stderr, "nacc: warning: %s\n", d)
		}
	}

	if *dump {
		fmt.Fprint(stdout, prog.Dump())
		return exitOK
	}
	if *cig {
		fmt.Fprint(stdout, prog.DumpCIG())
		return exitOK
	}

	if *stats {
		fmt.Fprintf(stdout, "static checks: %d\n", prog.StaticChecks())
		if o := prog.Opt; o != nil {
			fmt.Fprintf(stdout, "before optimization: %d\n", o.ChecksBefore)
			fmt.Fprintf(stdout, "inserted: %d, eliminated: %d avail + %d covered + %d const, traps: %d\n",
				o.Inserted, o.EliminatedAvail, o.EliminatedCover, o.EliminatedConst, o.TrapsInserted)
		}
	}

	if !*doRun {
		return exitOK
	}
	res, err := prog.RunWith(nascent.RunConfig{Engine: engine})
	if err != nil {
		fmt.Fprintf(stderr, "nacc: run: %v\n", err)
		if errors.Is(err, nascent.ErrResourceExhausted) {
			return exitResource
		}
		// Non-resource run failures (e.g. an out-of-range access in a
		// -nocheck build) are runtime faults of the program, like traps.
		return exitTrap
	}
	fmt.Fprint(stdout, res.Output)
	if *stats {
		fmt.Fprintf(stdout, "dynamic instructions: %d\n", res.Instructions)
		fmt.Fprintf(stdout, "dynamic checks: %d\n", res.Checks)
	}
	if res.Trapped {
		fmt.Fprintf(stderr, "nacc: range violation: %s\n", res.TrapNote)
		return exitTrap
	}
	return exitOK
}

// runVerify compiles and executes the source under every optimizing
// variant and compares each against the naive baseline. The sweep is
// sharded across all CPUs; the report is identical to a sequential run.
// Selecting a bytecode engine additionally runs every variant under the
// tree walker and each bytecode engine up to the selected one, asserting
// the engine-identity invariant across all of them.
func runVerify(file, src string, engine nascent.Engine, stdout, stderr *os.File) int {
	cfg := oracle.Config{Jobs: runtime.GOMAXPROCS(0)}
	cfg.Engines = engineSweep(engine)
	rep, err := oracle.Verify(src, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "nacc: verify: %v\n", err)
		if errors.Is(err, nascent.ErrResourceExhausted) {
			return exitResource
		}
		return exitCompile
	}
	fmt.Fprintf(stdout, "%s: %s\n", file, rep.Summary())
	if !rep.OK() {
		for _, d := range rep.Divergences {
			fmt.Fprintf(stderr, "nacc: divergence: %s\n", d)
		}
		return exitDivergence
	}
	return exitOK
}

// engineSweep lists the engines an identity sweep covers for a selected
// engine: the tree walker plus every engine up to and including the
// selection (vmjit, the last in engine order, sweeps all four).
func engineSweep(engine nascent.Engine) []nascent.Engine {
	if engine == nascent.EngineTree {
		return nil
	}
	var out []nascent.Engine
	for _, e := range nascent.AllEngines() {
		if e <= engine {
			out = append(out, e)
		}
	}
	return out
}

// runChaosSweep runs the oracle's fault-injection sweep: seeds 1..8 at
// rate 0.05 with every site armed, asserting each faulted evaluation is
// correct or a typed error. Selecting a bytecode engine sweeps the tree
// walker and each bytecode engine up to it, covering the poll sites of
// both the tree walker and the switch VM.
func runChaosSweep(file, src string, engine nascent.Engine, stdout, stderr *os.File) int {
	cfg := oracle.ChaosConfig{Jobs: runtime.GOMAXPROCS(0)}
	if sweep := engineSweep(engine); sweep != nil {
		cfg.Engines = sweep
	} else {
		cfg.Engines = []nascent.Engine{engine}
	}
	rep, err := oracle.ChaosSweep(src, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "nacc: chaossweep: %v\n", err)
		if errors.Is(err, nascent.ErrResourceExhausted) {
			return exitResource
		}
		return exitCompile
	}
	fmt.Fprintf(stdout, "%s: %s\n", file, rep.Summary())
	if !rep.OK() {
		return exitDivergence
	}
	return exitOK
}
