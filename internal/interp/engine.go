package interp

import "fmt"

// Engine selects the execution substrate that runs a program. Every
// engine implements the same observable contract — identical dynamic
// instruction counts, check counts, outputs, trap positions, trap
// classes, and resource budgets — so tables, oracle sweeps, and golden
// files are byte-identical under any of them. The tree-walker is the
// reference implementation and the only engine Run executes; the
// bytecode engine (named vmopt, vmrce or vmjit) lives in internal/vm,
// and the nascent package sends a run to it when Config.Engine names
// one of those. Both share the budget and poll shell in interp.go.
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
	// other engines; only dispatch count and wall-clock change.
	EngineVMOpt
	// EngineVMRCE is a name for EngineVMOpt's pipeline: vm.CompileEngine
	// gives it the same bytecode, run on the same switch VM. It stays
	// parseable, with its own cache key, for clients that send it.
	EngineVMRCE
	// EngineVMJit is another name for EngineVMOpt's pipeline, kept for
	// the same reason.
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
// slice is fresh per call; mutating it cannot reach the engine table.
func EngineNames() []string {
	return append([]string(nil), engineNames[:]...)
}

// AllEngines lists every engine in Engine order (tree first). Tools
// that sweep "all engines" (the oracle's engine-identity mode,
// FuzzEngineIdentity, nacc) iterate this instead of hard-coding the list,
// so a newly added engine is covered automatically.
func AllEngines() []Engine {
	es := make([]Engine, numEngines)
	for i := range es {
		es[i] = Engine(i)
	}
	return es
}
