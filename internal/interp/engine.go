package interp

import (
	"fmt"

	"nascent/internal/ir"
)

// Engine selects the execution substrate that runs a program. Every
// engine implements the same observable contract — identical dynamic
// instruction counts, check counts, outputs, trap positions, trap
// classes, and resource budgets — so tables, oracle sweeps, and golden
// files are byte-identical under any of them. The tree-walker is the
// reference implementation; the three bytecode engines (vmopt, vmrce,
// vmjit) live in internal/vm and register themselves here.
type Engine uint8

// Execution engines.
const (
	// EngineTree is the recursive tree-walking evaluator defined in
	// this package (the reference engine, and the zero value).
	EngineTree Engine = iota
	// EngineVMOpt is the flat-register bytecode VM (internal/vm)
	// running optimized bytecode: the post-compile pipeline in
	// internal/vm (copy propagation, dead-store elimination,
	// superinstruction fusion, frame reuse) rewrites the program between
	// vm.Compile and execution. Observables are byte-identical to the
	// other engines; only dispatch count and wall-clock change. The
	// bytecode engines must be linked into the binary to be selectable;
	// importing the nascent package (or internal/vm itself) links them.
	EngineVMOpt
	// EngineVMRCE is the bytecode VM running guard/deopt bytecode: after
	// vm.Compile, the range-check elimination pass (internal/vm rce.go)
	// synthesizes one preheader range guard per eligible loop, clones the
	// loop's function with the proven-redundant checks replaced by bulk
	// counter adds, and keeps the original fully-checked code as the
	// deopt target; the result then runs through the vmopt pipeline.
	// Observables are byte-identical to the other engines — eliminated
	// checks are still counted — only executed check instructions and
	// wall-clock change. Linked together with EngineVMOpt.
	EngineVMRCE
	// EngineVMJit is the closure-compiled top tier: every basic block of
	// the guard/deopt-rewritten, optimized bytecode is compiled into a
	// chain of Go closures (computed-goto-style dispatch, no central
	// switch). Same observables as the other engines. Linked together
	// with EngineVMOpt.
	EngineVMJit

	numEngines = iota
)

var engineNames = [numEngines]string{"tree", "vmopt", "vmrce", "vmjit"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine maps a flag value ("tree", "vmopt", "vmrce", or "vmjit")
// to an Engine.
func ParseEngine(s string) (Engine, error) {
	for i, n := range engineNames {
		if s == n {
			return Engine(i), nil
		}
	}
	return EngineTree, fmt.Errorf("interp: unknown engine %q (want tree, vmopt, vmrce, or vmjit)", s)
}

// EngineNames lists every engine's flag spelling in Engine order. The
// slice is fresh per call; mutating it cannot reach the registry.
func EngineNames() []string {
	return append([]string(nil), engineNames[:]...)
}

// AllEngines lists every engine in registry order (tree first). Tools
// that sweep "all engines" (the oracle's engine-identity mode,
// FuzzEngineIdentity, nacc) iterate this instead of hard-coding the list,
// so a newly registered engine is covered automatically.
func AllEngines() []Engine {
	es := make([]Engine, numEngines)
	for i := range es {
		es[i] = Engine(i)
	}
	return es
}

// engines holds the registered Run implementations. Slot EngineTree is
// never consulted (Run handles it inline); other engines register at
// package init time, so the table is read-only by the time any program
// executes and needs no locking.
var engines [numEngines]func(*ir.Program, Config) (Result, error)

// RegisterEngine installs an alternative execution engine. It is meant
// to be called from an init function (internal/vm registers the bytecode engines);
// registering after programs have started running is a race.
func RegisterEngine(e Engine, run func(*ir.Program, Config) (Result, error)) {
	if int(e) >= numEngines {
		panic(fmt.Sprintf("interp: RegisterEngine(%v): unknown engine", e))
	}
	engines[e] = run
}

// dispatch routes Run to the configured engine, or reports that the
// engine is not linked into this binary.
func dispatch(p *ir.Program, cfg Config) (Result, error) {
	if int(cfg.Engine) >= numEngines {
		return Result{}, fmt.Errorf("interp: unknown engine %v", cfg.Engine)
	}
	run := engines[cfg.Engine]
	if run == nil {
		return Result{}, fmt.Errorf("interp: engine %v not linked (import nascent or nascent/internal/vm)", cfg.Engine)
	}
	return run(p, cfg)
}
