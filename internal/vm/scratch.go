package vm

// scratch.go — the reusable working memory of the bytecode pipeline.

import "slices"

// scratch is everything one Compile, CompileOptimized or Optimize call
// works in and drops when it returns: both compile passes' sections,
// the compiler's operand stacks and block table, and the optimizer's
// analyses and liveness bitsets. Calls take one from scratches and
// give it back, so a process that compiles many programs allocates
// this memory about once per concurrent caller, and a compile
// allocates only the program it returns. Nothing a returned Program
// holds points into a scratch: keep copies the sections out at their
// final lengths.
type scratch struct {
	c compiler
	o optimizer
}

// scratches recycles scratches (recycle.go).
var scratches recycler[scratch]

// size estimates the bytes the scratch holds from its largest
// buffers, the code, the operand pool and the bitset slab; the rest
// grow with the code.
func (s *scratch) size() int {
	return 24*cap(s.c.prog.code) + 8*(cap(s.c.prog.pool)+cap(s.o.slab))
}

// release drops the scratch's references into the last compile's IR
// and program and gives it back. A call whose compile or optimize
// panicked does not release its scratch: the next call gets a fresh
// one.
func (s *scratch) release() {
	c := &s.c
	c.p, c.curFn, c.checkText = nil, nil, ""
	clear(c.blockAt)
	clear(c.patches[:cap(c.patches)])
	clear(c.prog.checks[:cap(c.prog.checks)])
	clear(c.prog.traps[:cap(c.prog.traps)])
	clear(c.prog.fails[:cap(c.prog.fails)])
	clear(c.prog.funcs)
	c.prog.arrays, c.prog.arrOrder = nil, nil
	s.o.in = nil
	scratches.put(s, s.size())
}

// keep returns the program s.compile left in the scratch as a Program
// of its own, every section copied out at its final length.
func (s *scratch) keep() *Program {
	sp := &s.c.prog
	return &Program{
		code:       slices.Clone(sp.code),
		funcs:      slices.Clone(sp.funcs),
		arrays:     sp.arrays,
		arrOrder:   sp.arrOrder,
		pool:       slices.Clone(sp.pool),
		iconsts:    slices.Clone(sp.iconsts),
		fconsts:    slices.Clone(sp.fconsts),
		checks:     slices.Clone(sp.checks),
		traps:      slices.Clone(sp.traps),
		fails:      slices.Clone(sp.fails),
		nIntRegs:   sp.nIntRegs,
		nFloatRegs: sp.nFloatRegs,
		iCells:     sp.iCells,
		fCells:     sp.fCells,
		numVars:    sp.numVars,
		mainIdx:    sp.mainIdx,
		optimized:  sp.optimized,
	}
}
