// Package nascent is the public API of Nascent-Go, a reproduction of
// Kolte & Wolfe, "Elimination of Redundant Array Subscript Range Checks"
// (PLDI 1995).
//
// It compiles MF (mini-Fortran) programs to a CFG IR, optionally inserts
// naive subscript range checks, optimizes them with the paper's
// PRE-based algorithm under a selectable placement scheme, and executes
// the result while counting dynamic instructions and range checks:
//
//	prog, err := nascent.Compile(src, nascent.Options{
//	    BoundsChecks: true,
//	    Scheme:       nascent.LLS,
//	    Kind:         nascent.PRX,
//	})
//	res, err := prog.Run()
//	fmt.Println(res.Instructions, res.Checks)
package nascent

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"nascent/internal/ast"
	"nascent/internal/core"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/irbuild"
	"nascent/internal/parser"
	"nascent/internal/rangecheck"
	"nascent/internal/sem"
	"nascent/internal/vm"
)

// InternalError is a recovered internal invariant violation, tagged with
// the pipeline stage ("parse", "analyze", "lower", "optimize", "run")
// and the function being processed when known. Compile and Run never
// propagate panics: any internal panic surfaces as one of these, so no
// input can crash an embedding process. Match the class with
// errors.Is(err, ErrInternal).
type InternalError = guard.InternalError

// ErrInternal is the sentinel matched by every InternalError.
var ErrInternal = guard.ErrInternal

// ResourceError reports an exhausted execution budget (instructions,
// array cells, deadline, or context cancellation). Match the class with
// errors.Is(err, ErrResourceExhausted).
type ResourceError = interp.ResourceError

// ErrResourceExhausted is the sentinel matched by every ResourceError.
var ErrResourceExhausted = interp.ErrResourceExhausted

// TrapClass classifies how a trapped run trapped (see RunResult).
type TrapClass = interp.TrapClass

// Trap classes.
const (
	// TrapCheck: a range check comparison failed at run time.
	TrapCheck = interp.TrapCheck
	// TrapStatic: a compile-time-detected violation trap executed.
	TrapStatic = interp.TrapStatic
)

// Scheme selects the check placement scheme of paper §3.3 / Table 2.
type Scheme int

// Placement schemes. Naive performs no optimization at all (the
// unoptimized reference the paper measures against); the others run the
// five-step optimizer with the corresponding insertion strategy.
const (
	Naive Scheme = iota
	NI           // redundancy elimination, no insertion
	CS           // check strengthening
	LNI          // latest-not-isolated placement
	SE           // safe-earliest placement
	LI           // preheader insertion of invariant checks
	LLS          // preheader insertion with loop-limit substitution
	ALL          // LLS followed by SE
	MCM          // Markstein-Cocke-Markstein restricted hoisting (paper §5)
)

var schemeNames = [...]string{"naive", "NI", "CS", "LNI", "SE", "LI", "LLS", "ALL", "MCM"}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

var coreSchemes = map[Scheme]core.Scheme{
	NI: core.NI, CS: core.CS, LNI: core.LNI, SE: core.SE,
	LI: core.LI, LLS: core.LLS, ALL: core.ALL, MCM: core.MCM,
}

// OptimizedSchemes lists the seven optimizing schemes in Table 2 order.
var OptimizedSchemes = []Scheme{NI, CS, LNI, SE, LI, LLS, ALL}

// CheckKind selects PRX (program expression) or INX (induction
// expression) check construction (paper §2.3).
type CheckKind int

// Check kinds.
const (
	PRX CheckKind = iota
	INX
)

func (k CheckKind) String() string {
	if k == INX {
		return "INX"
	}
	return "PRX"
}

// Implications selects which check implications the optimizer exploits
// (paper Table 3).
type Implications int

// Implication modes.
const (
	// ImplyFull uses all implications (the default).
	ImplyFull Implications = iota
	// ImplyNone disables implications between distinct checks (the
	// primed NI′/SE′ variants).
	ImplyNone
	// ImplyCross keeps only cross-family implications (the LLS′ variant).
	ImplyCross
)

var implModes = map[Implications]rangecheck.Mode{
	ImplyFull:  rangecheck.ImplyFull,
	ImplyNone:  rangecheck.ImplyNone,
	ImplyCross: rangecheck.ImplyCross,
}

func (m Implications) String() string { return implModes[m].String() }

// Options configure compilation.
type Options struct {
	// Filename is used in diagnostics (default "input.mf").
	Filename string
	// BoundsChecks inserts naive subscript range checks before
	// optimization. Without it the program compiles unchecked (the
	// paper's "instructions without range checking" baseline).
	BoundsChecks bool
	// Scheme selects the optimization scheme (default Naive: keep all
	// checks).
	Scheme Scheme
	// Kind selects PRX or INX check construction.
	Kind CheckKind
	// Implications selects the Table 3 implication ablation mode.
	Implications Implications
	// RotateLoops converts while loops into guarded repeat loops before
	// optimization, letting SE hoist out of them (paper §3.3's
	// loop-rotation remark).
	RotateLoops bool
}

// Program is a compiled (and possibly optimized) MF program.
type Program struct {
	IR *ir.Program
	// Opt reports what the optimizer did (nil for Naive scheme).
	Opt *OptReport
	// AST is the parsed source, for tooling.
	AST *ast.File
}

// OptReport summarizes one optimizer run. The counters satisfy
//
//	ChecksAfter = ChecksBefore + Inserted − EliminatedAvail
//	              − EliminatedCover − EliminatedConst − TrapsInserted
//
// whether or not any function degraded (degraded functions keep their
// naive bodies and contribute nothing to the counters).
type OptReport struct {
	ChecksBefore    int
	ChecksAfter     int
	Inserted        int
	EliminatedAvail int
	EliminatedCover int
	EliminatedConst int
	TrapsInserted   int
	Diagnostics     []string
	// Degraded names functions whose optimization failed and whose
	// naive (fully checked) bodies were kept; the rest of the program
	// is still optimized.
	Degraded []string
}

// RunResult is the outcome of executing a program.
type RunResult = interp.Result

// RunConfig bounds execution. Its Engine field selects the execution
// substrate (EngineTree or one of the bytecode engines); every engine
// produces identical observables.
type RunConfig = interp.Config

// Engine selects the execution substrate of a run. All four engine
// names implement the same observable contract — identical dynamic
// instruction counts, check counts, outputs, traps, and resource
// budgets — so every table and oracle sweep is engine-independent.
type Engine = interp.Engine

// Execution engines.
const (
	// EngineTree is the reference tree-walking evaluator (the default).
	EngineTree = interp.EngineTree
	// EngineVMOpt is the flat-register bytecode VM running
	// post-compile-optimized bytecode (copy propagation, dead-store
	// elimination, superinstruction fusion, frame reuse). Same
	// observables as the other engines, fewer dispatches.
	EngineVMOpt = interp.EngineVMOpt
	// EngineVMRCE and EngineVMJit are names for EngineVMOpt's pipeline:
	// they compile to the same bytecode and run on the same switch VM.
	// They stay parseable for clients that send them.
	EngineVMRCE = interp.EngineVMRCE
	EngineVMJit = interp.EngineVMJit
)

// ParseEngine maps a flag spelling ("tree", "vmopt", "vmrce", or
// "vmjit") to an Engine.
func ParseEngine(s string) (Engine, error) { return interp.ParseEngine(s) }

// EngineNames lists every engine's flag spelling in Engine order.
func EngineNames() []string { return interp.EngineNames() }

// AllEngines lists every engine in Engine order (tree first).
func AllEngines() []Engine { return interp.AllEngines() }

// Frontend holds the parse and semantic-analysis artifacts of one
// source text. The front half of compilation is independent of every
// backend option (bounds checking, scheme, kind, implications,
// rotation), so one Frontend can be reused across all optimizer
// configurations of the same program.
//
// A Frontend from Analyze lowers fresh IR on every Compile call, which
// is all a one-shot compile needs. A Frontend from AnalyzeShared lowers
// the program once per BoundsChecks value, on first use, and hands each
// Compile call a copy-on-write ir.Program.Fork of that lowering to
// optimize; the shared lowering itself is never edited.
//
// A Frontend is immutable after construction apart from that lowering
// memo, and safe for concurrent Compile calls; internal/evalpool
// memoizes shared Frontends keyed by source hash to share the parse,
// analysis and lowering across a job matrix.
type Frontend struct {
	file     *ast.File
	sem      *sem.Program
	filename string
	// lowered is the memo of an AnalyzeShared front end, indexed by
	// BoundsChecks; nil for Analyze.
	lowered *[2]lowering
}

// lowering is one memoized irbuild.Build result. A failed build is not
// kept: the next Compile call tries again.
type lowering struct {
	mu   sync.Mutex
	prog *ir.Program
}

// Analyze runs the parse and semantic-analysis stages once. An empty
// filename defaults to "input.mf". Like Compile, it never panics:
// internal invariant violations surface as stage-tagged *InternalError.
func Analyze(src, filename string) (fe *Frontend, err error) {
	stage := "parse"
	defer func() {
		if r := recover(); r != nil {
			fe = nil
			err = &InternalError{Stage: stage, Recovered: r, Stack: debug.Stack()}
		}
	}()

	if filename == "" {
		filename = "input.mf"
	}
	file, err := parser.Parse(filename, src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	stage = "analyze"
	semProg, err := sem.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return &Frontend{file: file, sem: semProg, filename: filename}, nil
}

// AnalyzeShared is Analyze for a Frontend that will compile many
// configurations: its Compile calls share one lowering per
// BoundsChecks value and each optimize a fork of it (see Frontend).
func AnalyzeShared(src, filename string) (*Frontend, error) {
	fe, err := Analyze(src, filename)
	if err != nil {
		return nil, err
	}
	fe.lowered = new([2]lowering)
	return fe, nil
}

// lower returns the IR one Compile call may optimize: a fresh lowering,
// or a fork of the shared one.
func (fe *Frontend) lower(checks bool) (*ir.Program, error) {
	if fe.lowered == nil {
		return irbuild.Build(fe.sem, irbuild.Options{BoundsChecks: checks})
	}
	l := &fe.lowered[0]
	if checks {
		l = &fe.lowered[1]
	}
	prog, err := l.get(fe, checks)
	if err != nil {
		return nil, err
	}
	return prog.Fork(), nil
}

// get returns the kept lowering, building it on first use.
func (l *lowering) get(fe *Frontend, checks bool) (*ir.Program, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.prog == nil {
		prog, err := irbuild.Build(fe.sem, irbuild.Options{BoundsChecks: checks})
		if err != nil {
			return nil, err
		}
		if sharedLowered != nil {
			sharedLowered(fe, checks, prog)
		}
		l.prog = prog
	}
	return l.prog, nil
}

// sharedLowered, when set by tests (export_test.go), is handed every
// lowering an AnalyzeShared front end keeps.
var sharedLowered func(fe *Frontend, checks bool, prog *ir.Program)

// Filename returns the diagnostic filename the Frontend was built with.
func (fe *Frontend) Filename() string { return fe.filename }

// StageTimes reports the wall-clock cost of the backend stages of one
// Compile call (the paper's "Range" column isolates Optimize).
type StageTimes struct {
	Lower    time.Duration
	Optimize time.Duration
}

// Compile lowers and (per Options) optimizes the analyzed program. The
// Options' Filename field is ignored (the Frontend's filename already
// seeded all positions). Safe for concurrent use: every call optimizes
// IR of its own, a fresh lowering or a fork of the shared one.
func (fe *Frontend) Compile(opts Options) (*Program, error) {
	return fe.CompileTimed(opts, nil)
}

// CompileTimed is Compile with per-stage wall-clock reporting: when st
// is non-nil it receives the lower and optimize durations.
func (fe *Frontend) CompileTimed(opts Options, st *StageTimes) (prog *Program, err error) {
	stage := "lower"
	defer func() {
		if r := recover(); r != nil {
			prog = nil
			err = &InternalError{Stage: stage, Recovered: r, Stack: debug.Stack()}
		}
	}()

	t0 := time.Now()
	irProg, err := fe.lower(opts.BoundsChecks)
	if st != nil {
		st.Lower = time.Since(t0)
	}
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	prog = &Program{IR: irProg, AST: fe.file}
	if opts.Scheme == Naive {
		return prog, nil
	}
	cs, ok := coreSchemes[opts.Scheme]
	if !ok {
		return nil, fmt.Errorf("unknown scheme %v", opts.Scheme)
	}
	stage = "optimize"
	t1 := time.Now()
	res, err := core.Optimize(irProg, core.Options{
		Scheme: cs,
		Kind:   core.CheckKind(opts.Kind),
		Mode:   implModes[opts.Implications],
		Rotate: opts.RotateLoops,
	})
	if st != nil {
		st.Optimize = time.Since(t1)
	}
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	prog.Opt = &OptReport{
		ChecksBefore:    res.ChecksBefore,
		ChecksAfter:     res.ChecksAfter,
		Inserted:        res.Inserted,
		EliminatedAvail: res.EliminatedAvail,
		EliminatedCover: res.EliminatedCover,
		EliminatedConst: res.EliminatedConst,
		TrapsInserted:   res.TrapsInserted,
		Diagnostics:     res.Diagnostics,
		Degraded:        res.Degraded,
	}
	return prog, nil
}

// Compile parses, analyzes, lowers, and (per Options) optimizes an MF
// program.
//
// Compile never panics: an internal invariant violation in any stage is
// recovered and returned as a stage-tagged *InternalError. When the
// optimizer fails on an individual function, that function falls back to
// its naive (fully checked) body, the failure is recorded in
// OptReport.Degraded, and compilation still succeeds.
func Compile(src string, opts Options) (*Program, error) {
	fe, err := Analyze(src, opts.Filename)
	if err != nil {
		return nil, err
	}
	return fe.Compile(opts)
}

// Run executes the program with default limits.
func (p *Program) Run() (RunResult, error) {
	return interp.Run(p.IR, interp.Config{})
}

// RunWith executes the program with explicit limits on the engine
// cfg.Engine names. A bytecode engine compiles the program through its
// pipeline first (vm.CompileEngine), then runs it on the switch VM.
func (p *Program) RunWith(cfg RunConfig) (RunResult, error) {
	if cfg.Engine == EngineTree {
		return interp.Run(p.IR, cfg)
	}
	vp, err := vm.CompileEngine(p.IR, cfg.Engine)
	if err != nil {
		return RunResult{}, err
	}
	return vp.Run(cfg)
}

// StaticChecks returns the number of range check statements currently in
// the program.
func (p *Program) StaticChecks() int { return p.IR.CountChecks() }

// DumpCIG renders the check implication graph of every function (paper
// §3.1, Figures 3–4): families as nodes, weighted cross-family
// implication edges discovered from affine copy relations.
func (p *Program) DumpCIG() string {
	out := ""
	for _, f := range p.IR.Funcs {
		g := core.BuildCIG(f, rangecheck.ImplyFull)
		if len(g.Registry.Families) == 0 {
			continue
		}
		out += fmt.Sprintf("CIG of %s:\n%s", f.Name, g.Dump())
	}
	return out
}

// Dump renders the IR of the whole program.
func (p *Program) Dump() string { return p.IR.Dump() }
