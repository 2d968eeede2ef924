package vm

// engine.go — the engine → bytecode pipeline map and the vmjit handle
// every layer runs that engine through.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
)

// CompileEngine compiles p through the bytecode pipeline engine e
// executes: vmopt runs CompileOptimized, and vmrce and vmjit
// CompileRCE (the guard/deopt-rewritten, optimized stream is the jit's
// input). Both layers that compile bytecode for an engine —
// nascent.Program.RunWith and the service cache — go through here, so
// they cannot disagree on which program an engine runs. The tree
// walker has no bytecode pipeline.
func CompileEngine(p *ir.Program, e interp.Engine) (*Program, error) {
	switch e {
	case interp.EngineVMOpt:
		return CompileOptimized(p)
	case interp.EngineVMRCE, interp.EngineVMJit:
		return CompileRCE(p)
	}
	return nil, fmt.Errorf("vm: engine %v has no bytecode pipeline", e)
}

// JitHandle is how every layer runs a vmjit program:
// nascent.Program.RunWith builds one per run, and the service cache
// keeps one per entry.
// The closure compile happens once, in NewJitHandle — inside the
// once-guarded fill of a cache entry — so no run ever profiles, blocks
// on, or races a compile. A failed
// compile (or a tier.promote.fail injection) leaves the handle on the
// optimized switch VM, and a contained jit run failure tombstones the
// closure tier there — never the tree.
type JitHandle struct {
	vp   *Program
	jit  *JITProgram // nil when the closure compile failed
	dead atomic.Bool

	runs      atomic.Uint64
	instrs    atomic.Uint64
	demotions atomic.Uint64
}

// NewJitHandle closure-compiles a rewritten bytecode program. The
// caller is responsible for vp being the jit's defined input — the
// guard/deopt-rewritten, optimized stream (CompileEngine for vmjit).
// The closure compiler accepts plain optimized (or even naive)
// bytecode too, but then a failed compile serves that lower tier.
func NewJitHandle(vp *Program) *JitHandle {
	h := &JitHandle{vp: vp}
	if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, interp.EngineVMJit.String()) {
		return h
	}
	if jp, err := JITCompile(vp, nil); err == nil {
		h.jit = jp
	}
	return h
}

// Run executes one request: on the closure tier unless it failed to
// compile or was tombstoned, else on the optimized switch VM.
func (h *JitHandle) Run(cfg interp.Config) (interp.Result, error) {
	var res interp.Result
	var err error
	if h.jit != nil && !h.dead.Load() {
		res, err = h.jit.Run(cfg)
		var ie *guard.InternalError
		if err != nil && errors.As(err, &ie) {
			// Contained closure-tier failure: tombstone and replay on
			// the optimized switch VM (same observables, lower tier).
			h.dead.Store(true)
			h.demotions.Add(1)
			res, err = h.vp.Run(cfg)
		}
	} else {
		res, err = h.vp.Run(cfg)
	}
	h.runs.Add(1)
	h.instrs.Add(res.Instructions)
	return res, err
}

// Snapshot is a JitHandle's observable state, exported towards evalpool
// metrics and the nascentd /metrics wire form.
type Snapshot struct {
	// Tier is the engine tier the NEXT run will execute on: "vmjit"
	// while the closure tier serves, else the tier of the wrapped
	// program ("vmrce" for the usual CompileRCE input, "vmopt"
	// otherwise).
	Tier string
	// Runs and Instrs count completed runs and their cumulative
	// instructions.
	Runs   uint64
	Instrs uint64
	// Promotions is 1 when the closure compile at construction landed,
	// else 0; Demotions counts jit tombstones after a contained
	// closure-tier run failure.
	Promotions uint64
	Demotions  uint64
}

// Snapshot returns the handle's tier and counters.
func (h *JitHandle) Snapshot() Snapshot {
	t := interp.EngineVMOpt
	if h.vp.RCEApplied() {
		t = interp.EngineVMRCE
	}
	var promotions uint64
	if h.jit != nil {
		promotions = 1
		if !h.dead.Load() {
			t = interp.EngineVMJit
		}
	}
	return Snapshot{
		Tier:       t.String(),
		Runs:       h.runs.Load(),
		Instrs:     h.instrs.Load(),
		Promotions: promotions,
		Demotions:  h.demotions.Load(),
	}
}
