package vm

// engine.go — the engine → bytecode pipeline map.

import (
	"fmt"

	"nascent/internal/interp"
	"nascent/internal/ir"
)

// CompileEngine compiles p through the bytecode pipeline engine e
// executes. Every bytecode engine runs CompileOptimized: vmrce and
// vmjit are names for the vmopt pipeline, kept so requests that name
// them still parse. Both layers that compile bytecode for an engine —
// nascent.Program.RunWith and the service cache — go through here, so
// they cannot disagree on which program an engine runs. The tree
// walker has no bytecode pipeline.
func CompileEngine(p *ir.Program, e interp.Engine) (*Program, error) {
	switch e {
	case interp.EngineVMOpt, interp.EngineVMRCE, interp.EngineVMJit:
		return CompileOptimized(p)
	}
	return nil, fmt.Errorf("vm: engine %v has no bytecode pipeline", e)
}

// JITProgram and JITCompile keep the benchmark module's vmjit probe
// compiling: the closure jit is gone, and a "jit" program is the
// switch-VM program it was given.
type JITProgram = Program

func JITCompile(vp *Program, _ *DispatchStats) (*JITProgram, error) { return vp, nil }

// RCE and CompileRCE keep the benchmark module's pipeline probe
// compiling: the bytecode check eliminator is gone, so RCE returns its
// input and CompileRCE is CompileOptimized.
func RCE(vp *Program) (*Program, error) { return vp, nil }

func CompileRCE(p *ir.Program) (*Program, error) { return CompileOptimized(p) }
