package vm

// engine.go — the engine → bytecode pipeline map.

import (
	"fmt"

	"nascent/internal/interp"
	"nascent/internal/ir"
)

// CompileEngine compiles p through the bytecode pipeline engine e
// executes: vmopt runs CompileOptimized, and vmrce and vmjit
// CompileRCE. vmjit is a second name for vmrce's pipeline, kept so
// requests that name it still parse; both run on the switch VM. Both
// layers that compile bytecode for an engine — nascent.Program.RunWith
// and the service cache — go through here, so they cannot disagree on
// which program an engine runs. The tree walker has no bytecode
// pipeline.
func CompileEngine(p *ir.Program, e interp.Engine) (*Program, error) {
	switch e {
	case interp.EngineVMOpt:
		return CompileOptimized(p)
	case interp.EngineVMRCE, interp.EngineVMJit:
		return CompileRCE(p)
	}
	return nil, fmt.Errorf("vm: engine %v has no bytecode pipeline", e)
}

// JITProgram and JITCompile keep the benchmark module's vmjit probe
// compiling: the closure jit is gone, and a "jit" program is the
// switch-VM program it was given.
type JITProgram = Program

func JITCompile(vp *Program, _ *DispatchStats) (*JITProgram, error) { return vp, nil }
