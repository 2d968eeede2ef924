package vm

// engine.go — the engine → bytecode pipeline map, the engine registry
// entries, and the vmjit warm-up handle the service cache and the
// evalpool memo share.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
)

// CompileEngine compiles p through the bytecode pipeline engine e
// executes: vm runs Compile, vmopt CompileOptimized, and vmrce and vmjit
// CompileRCE (the guard/deopt-rewritten, optimized stream is the jit's
// input). Every layer that precompiles bytecode for an engine — the
// registry below, the service cache, the evalpool memo, the fleet
// coordinator — goes through here, so they cannot disagree on which
// program an engine runs. The tree walker has no bytecode pipeline.
func CompileEngine(p *ir.Program, e interp.Engine) (*Program, error) {
	switch e {
	case interp.EngineVM:
		return Compile(p)
	case interp.EngineVMOpt:
		return CompileOptimized(p)
	case interp.EngineVMRCE, interp.EngineVMJit:
		return CompileRCE(p)
	}
	return nil, fmt.Errorf("vm: engine %v has no bytecode pipeline", e)
}

func init() {
	for _, e := range []interp.Engine{interp.EngineVM, interp.EngineVMOpt, interp.EngineVMRCE} {
		e := e
		interp.RegisterEngine(e, func(p *ir.Program, cfg interp.Config) (interp.Result, error) {
			vp, err := CompileEngine(p, e)
			if err != nil {
				return interp.Result{}, err
			}
			return vp.Run(cfg)
		})
	}
	interp.RegisterEngine(interp.EngineVMJit, func(p *ir.Program, cfg interp.Config) (interp.Result, error) {
		vp, err := CompileEngine(p, interp.EngineVMJit)
		if err != nil {
			return interp.Result{}, err
		}
		jp, err := JITCompile(vp, nil)
		if err != nil {
			// Contained jit-compile failure: degrade to the optimized
			// switch VM (the vmrce tier), never to the tree.
			return vp.Run(cfg)
		}
		return jp.Run(cfg)
	})
}

// JitHandle wraps an already-optimized program with the vmjit engine's
// warm-up protocol: the first run executes on the switch VM with
// dispatch accounting and hands the profile to a background
// JITCompile, so superinstruction selection fuses the digrams this
// program actually executes and no run ever blocks on the compile.
// A contained jit failure (compile, a tier.promote.fail injection, or
// run) tombstones the closure tier and the handle keeps serving on the
// optimized switch VM — never the tree. The evalpool bytecode memo and
// the nascentd compile cache share this type for their vmjit entries.
type JitHandle struct {
	vp        *Program
	profiling atomic.Bool
	jit       atomic.Pointer[JITProgram]
	dead      atomic.Bool

	runs       atomic.Uint64
	instrs     atomic.Uint64
	profiled   atomic.Uint64
	promotions atomic.Uint64
	demotions  atomic.Uint64

	wg sync.WaitGroup
}

// NewJitHandle wraps a rewritten bytecode program. The caller is
// responsible for vp being the jit's defined input — the guard/deopt-
// rewritten, optimized stream (CompileEngine for vmjit). The closure
// compiler accepts plain optimized (or even naive) bytecode too, but
// then the handle serves that lower tier while warming.
func NewJitHandle(vp *Program) *JitHandle { return &JitHandle{vp: vp} }

// Run executes one request: on the closure tier once it exists, else
// on the optimized switch VM (the first run doubling as the profiling
// pass).
func (h *JitHandle) Run(cfg interp.Config) (interp.Result, error) {
	if jp := h.jit.Load(); jp != nil && !h.dead.Load() {
		res, err := jp.Run(cfg)
		var ie *guard.InternalError
		if err != nil && errors.As(err, &ie) {
			// Contained closure-tier failure: tombstone and replay on
			// the optimized switch VM (same observables, lower tier).
			h.dead.Store(true)
			h.demotions.Add(1)
			res, err = h.vp.Run(cfg)
		}
		h.record(res)
		return res, err
	}
	if !h.dead.Load() && h.profiling.CompareAndSwap(false, true) {
		res, ds, err := h.vp.RunDispatch(cfg)
		h.profiled.Add(1)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, interp.EngineVMJit.String()) {
				h.dead.Store(true)
				return
			}
			jp, jerr := JITCompile(h.vp, &ds)
			if jerr != nil {
				h.dead.Store(true)
				return
			}
			h.jit.Store(jp)
			h.promotions.Add(1)
		}()
		h.record(res)
		return res, err
	}
	res, err := h.vp.Run(cfg)
	h.record(res)
	return res, err
}

func (h *JitHandle) record(res interp.Result) {
	h.runs.Add(1)
	h.instrs.Add(res.Instructions)
}

// Settle blocks until no background closure compile is in flight.
func (h *JitHandle) Settle() { h.wg.Wait() }

// Snapshot is a JitHandle's observable state, exported towards evalpool
// metrics and the nascentd /metrics wire form.
type Snapshot struct {
	// Tier is the engine tier the NEXT run will execute on: "vmjit" once
	// the closure tier serves, else the tier of the wrapped program
	// ("vmrce" for the usual CompileRCE input, "vmopt" otherwise).
	Tier string
	// Runs and Instrs count completed runs and their cumulative
	// instructions.
	Runs   uint64
	Instrs uint64
	// ProfiledRuns counts the switch-VM runs whose dispatch profile fed
	// the closure compile.
	ProfiledRuns uint64
	// Promotions counts closure compiles that landed; Demotions counts
	// jit tombstones after a contained closure-tier run failure.
	Promotions uint64
	Demotions  uint64
}

// Snapshot returns the handle's tier and counters.
func (h *JitHandle) Snapshot() Snapshot {
	t := interp.EngineVMOpt
	if h.vp.RCEApplied() {
		t = interp.EngineVMRCE
	}
	if h.jit.Load() != nil && !h.dead.Load() {
		t = interp.EngineVMJit
	}
	return Snapshot{
		Tier:         t.String(),
		Runs:         h.runs.Load(),
		Instrs:       h.instrs.Load(),
		ProfiledRuns: h.profiled.Load(),
		Promotions:   h.promotions.Load(),
		Demotions:    h.demotions.Load(),
	}
}
