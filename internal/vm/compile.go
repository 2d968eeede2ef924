// Package vm is the bytecode execution engine for Nascent-Go IR: a
// compile step lowers an ir.Program into flat, register-addressed
// bytecode, and a dense switch-threaded loop (exec.go) runs it.
//
// The VM preserves the tree-walking reference engine's observable
// contract exactly — identical dynamic instruction counts, dynamic
// check counts, program output, trap notes, trap classes, trap
// positions, and resource budgets — so the paper's tables and the
// soundness oracle are byte-identical under either engine. See
// DESIGN.md ("Bytecode VM") for the opcode table and the
// cost-identity argument.
//
// # Register model
//
// Both value files (int64 and float64) share one layout:
//
//	[0, NumVars)                 program variables, slot = Var.ID
//	[NumVars, NumVars+consts)    pooled constants, materialized once per run
//	[NumVars+consts, end)        expression scratch, stack-disciplined
//
// Variables resolve to frame slots at compile time — there are no map
// lookups at run time. Because MF has no recursion and calls are
// statements (never expressions), no caller scratch is live across a
// call, so a single program-wide scratch area serves every function.
//
// # Cost identity
//
// The reference engine charges the paper's abstract RISC costs per
// expression-tree node. The compiler fuses each leaf operand's cost
// (1 per scalar read, 0 per constant) into the consuming instruction's
// cost field, so the instruction counter advances by exactly the same
// deltas at every statement boundary, trap, and fault as in the
// tree-walker. Work inside a range check's terms is compiled cost-free
// (the check counter, not the instruction counter, accounts for it),
// and a cond-check's guard stays an ordinary charged test.
package vm

import (
	"fmt"
	"math"

	"nascent/internal/guard"
	"nascent/internal/ir"
)

// Opcodes. Operand conventions are noted per opcode; a, b, c are
// instruction fields, "pool" is the shared int64 operand pool.
const (
	opFail uint8 = iota // a=fail message index

	opMovI // a=dst b=src (int regs)
	opMovF // a=dst b=src (float regs)

	opAddI // a=dst b=l c=r
	opSubI
	opMulI
	opDivI // faults on zero divisor
	opNegI // a=dst b=x

	opAddF
	opSubF
	opMulF
	opDivF // IEEE semantics, no fault
	opNegF

	// Comparisons write 0/1 into an int register. The int and float
	// groups are each contiguous in ir.OpEq..ir.OpGe order.
	opEqI // a=dst b=l c=r
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF

	opAndB // a=dst b=l c=r (0/1 values)
	opOrB
	opNotB // a=dst b=x

	opModI // a=dst b=l c=r; faults on zero divisor
	opAbsI // a=dst b=x
	opMinI // a=dst b=pool offset c=argc
	opMaxI
	opModF // math.Mod
	opAbsF
	opSqrtF
	opMinF // math.Min fold
	opMaxF
	opI2F // a=float dst b=int src
	opF2I // a=int dst b=float src (truncate)

	opLoadI // a=dst b=pool offset (index regs) c=array ID
	opLoadF
	opStoreI // a=val reg b=pool offset c=array ID
	opStoreF
	opLoadI1 // 1-D fast path: a=dst b=index reg c=array ID
	opLoadF1
	opStoreI1 // a=val reg b=index reg c=array ID
	opStoreF1

	opCheck    // a=pool offset (coef,reg pairs) b=#terms c=check index, imm=K
	opTrapStmt // a=trap index

	opJmp  // a=target pc
	opBr   // c=cond reg, a=pc if nonzero, b=pc if zero
	opCall // a=callee func index
	opRet
	opPrint // a=pool offset (reg<<1|isFloat entries) b=argc
	opNop   // cost carrier only (a call's 2+params charge precedes its args)

	// Hot-path specializations. These change only the instruction
	// encoding, never the observable contract: each carries the same
	// fused cost the general sequence would, so the counters advance by
	// identical deltas (see "Cost identity" above).

	opCheck1 // 1-term check: a=reg b=coef c=check index, imm=K
	opCheck2 // 2-term check: a=pool offset (2 coef,reg pairs) c=check index, imm=K

	// opCheckPair is two adjacent unguarded 1-term checks on the same
	// register — the lo/hi pair guarding one subscript — in one
	// dispatch: a=reg, b=pool offset (coef0, K0, index0, coef1, K1,
	// index1). The pair preserves sequential semantics: the first
	// check counts and traps before the second runs.
	opCheckPair

	// Fused compare-and-branch (a test feeding an If or a cond-check
	// guard): b=l c=r, a=pc if true, imm=pc if false. Contiguous in
	// ir.OpEq..ir.OpGe order like the plain comparisons.
	opBrEqI
	opBrNeI
	opBrLtI
	opBrLeI
	opBrGtI
	opBrGeI
	opBrEqF
	opBrNeF
	opBrLtF
	opBrLeF
	opBrGtF
	opBrGeF

	// 2-D array fast path: a=dst (or val reg for stores) c=array ID,
	// imm packs the two index registers (row reg <<32 | column reg).
	opLoadI2
	opLoadF2
	opStoreI2
	opStoreF2
)

// Program is a compiled bytecode program. It is immutable after
// Compile and safe for concurrent Run calls: all mutable execution
// state lives in the per-run machine. It holds no references into the
// IR it was compiled from: every field is plain data of the types an
// Image carries, which is what makes it serializable (internal/progio)
// without a copy in either direction.
type Program struct {
	code   []Instr
	funcs  []FuncImage
	arrays []ArrayImage
	// arrOrder lists array IDs in the tree-walker's allocation order
	// (globals first, then per-function), so the cell-budget check
	// aborts on the same array.
	arrOrder []int32
	pool     []int64
	iconsts  []int64
	fconsts  []float64
	checks   []CheckImage
	traps    []TrapImage
	fails    []string

	nIntRegs, nFloatRegs int
	iCells, fCells       int64 // slab sizes (sum of per-type array lengths)
	numVars              int   // register slots reserved for program variables
	mainIdx              int32 // Func.Index of main (execution entry)

	optimized bool // rewritten by Optimize (opt.go)
}

// Instructions returns the flat bytecode length (for tests and stats).
func (p *Program) Instructions() int { return len(p.code) }

// bases fixes the register-file layout for one compile pass.
type bases struct {
	iConst, iScratch int32
	fConst, fScratch int32
}

// Compile lowers an IR program to bytecode. It never panics: internal
// invariant violations surface as a stage-tagged *guard.InternalError,
// and IR constructs the reference engine would only reject at run time
// (malformed expressions, missing terminators) compile to fail
// instructions that reproduce the same runtime fault.
func Compile(p *ir.Program) (*Program, error) {
	s := scratches.get()
	if err := s.compile(p); err != nil {
		return nil, err
	}
	vp := s.keep()
	s.release()
	return vp, nil
}

// compile lowers p into the scratch program s.c.prog. Pass 1 discovers
// the constant pools, scratch depths and section lengths, and renders
// every check's text; its code is discarded. Pass 2 re-emits with the
// final register bases. The traversal is deterministic, so both passes
// agree on every pool offset, jump target, constant index and check
// index. Both passes write into the scratch's sections; the kept
// pass allocates only the array layout, the function table's lists
// and the check text, and keep copies the rest out.
func (s *scratch) compile(p *ir.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.InternalError{Stage: "vm-compile", Recovered: r}
		}
	}()
	if p == nil || len(p.Funcs) == 0 {
		return fmt.Errorf("vm: no program")
	}
	c := &s.c
	nv := int32(p.NumVars)
	c.reset(p, bases{iConst: nv, iScratch: nv, fConst: nv, fScratch: nv}, false)
	c.compileAll()
	b := bases{
		iConst:   nv,
		iScratch: nv + int32(len(c.prog.iconsts)),
		fConst:   nv,
		fScratch: nv + int32(len(c.prog.fconsts)),
	}
	c.reset(p, b, true)
	c.checkText = string(c.text)
	c.layoutArrays()
	c.compileAll()
	out := &c.prog
	out.nIntRegs = int(b.iScratch) + int(c.maxDepthI)
	out.nFloatRegs = int(b.fScratch) + int(c.maxDepthF)
	out.numVars = p.NumVars
	out.mainIdx = int32(p.Main().Index)
	return nil
}

type patch struct {
	instr  int32
	field  byte // 'a', 'b', or 'i' (imm: a fused branch's false target)
	target *ir.Block
}

// compiler is one compile pass's state. It lives in a scratch and is
// reset for each pass; its prog holds the pass's sections.
type compiler struct {
	p    *ir.Program
	prog Program
	bases
	iconstIdx map[int64]int32
	fconstIdx map[uint64]int32

	depthI, maxDepthI int32
	depthF, maxDepthF int32
	costFree          bool // inside check terms: emit with zero cost
	// pairable is the code index of an opCheck1 just emitted for an
	// unguarded check, eligible to absorb the next one (-1 when the
	// previous statement was anything else, or a branch target could
	// land between them).
	pairable int32

	curFn *ir.Func
	// blockPC[id] is the entry pc of the current function's block
	// whose ID is id, when blockAt[id] is that block.
	blockPC []int32
	blockAt []*ir.Block
	patches []patch

	// regs and vals are operand stacks: a statement pushes its
	// operands' registers (or pool entries) above the entries of the
	// statements enclosing it and pops them when it is emitted.
	regs []int32
	vals []int64

	// final marks the kept pass. The sizing pass renders each check's
	// text into text, ending at textEnd; the kept pass slices every
	// check's Str out of checkText, the one string both become.
	final     bool
	text      []byte
	textEnd   []int32
	checkText string
}

// reset readies c for one pass over p with register bases b: the
// sizing pass, or with final set the kept one.
func (c *compiler) reset(p *ir.Program, b bases, final bool) {
	if c.iconstIdx == nil {
		c.iconstIdx = make(map[int64]int32)
		c.fconstIdx = make(map[uint64]int32)
	}
	clear(c.iconstIdx)
	clear(c.fconstIdx)
	pr := &c.prog
	*pr = Program{
		code:    pr.code[:0],
		pool:    pr.pool[:0],
		iconsts: pr.iconsts[:0],
		fconsts: pr.fconsts[:0],
		checks:  pr.checks[:0],
		traps:   pr.traps[:0],
		fails:   pr.fails[:0],
		funcs:   fit(pr.funcs, len(p.Funcs)),
	}
	c.p, c.bases = p, b
	c.depthI, c.maxDepthI, c.depthF, c.maxDepthF = 0, 0, 0, 0
	c.costFree, c.pairable = false, -1
	c.final = final
	if !final {
		c.text, c.textEnd = c.text[:0], c.textEnd[:0]
	}
}

func (c *compiler) compileAll() {
	for _, f := range c.p.Funcs {
		c.prog.funcs[f.Index] = c.fn(f)
	}
}

// layoutArrays precomputes every array's slab base and strides, and the
// tree-walker's allocation order for the run-time cell budget. Only
// the kept pass lays arrays out, into the kept program's own tables.
func (c *compiler) layoutArrays() {
	pr := &c.prog
	pr.arrays = make([]ArrayImage, c.p.NumArrays)
	ordered := append([]*ir.Array(nil), c.p.GlobalArrays...)
	for _, f := range c.p.Funcs {
		ordered = append(ordered, f.Arrays...)
	}
	for _, a := range ordered {
		info := ArrayImage{Name: a.Name, Elem: ElemInt, Length: a.Len()}
		for _, d := range a.Dims {
			info.Dims = append(info.Dims, DimImage{Lo: d.Lo, Hi: d.Hi, Size: d.Size()})
		}
		if a.Elem == ir.Int {
			info.Base = pr.iCells
			if info.Length > 0 {
				pr.iCells += info.Length
			}
		} else {
			info.Elem = ElemFloat
			info.Base = pr.fCells
			if info.Length > 0 {
				pr.fCells += info.Length
			}
		}
		pr.arrays[a.ID] = info
		pr.arrOrder = append(pr.arrOrder, int32(a.ID))
	}
}

func (c *compiler) emit(in Instr) int32 {
	if c.costFree {
		in.Cost = 0
	}
	c.prog.code = append(c.prog.code, in)
	return int32(len(c.prog.code) - 1)
}

func (c *compiler) emitFail(cost uint16, format string, args ...interface{}) {
	idx := int32(len(c.prog.fails))
	msg := ""
	if c.final {
		msg = fmt.Sprintf(format, args...)
	}
	c.prog.fails = append(c.prog.fails, msg)
	c.emit(Instr{Op: opFail, A: idx, Cost: cost})
}

func (c *compiler) iconst(v int64) int32 {
	if idx, ok := c.iconstIdx[v]; ok {
		return c.iConst + idx
	}
	idx := int32(len(c.prog.iconsts))
	c.iconstIdx[v] = idx
	c.prog.iconsts = append(c.prog.iconsts, v)
	return c.iConst + idx
}

func (c *compiler) fconst(v float64) int32 {
	key := math.Float64bits(v)
	if idx, ok := c.fconstIdx[key]; ok {
		return c.fConst + idx
	}
	idx := int32(len(c.prog.fconsts))
	c.fconstIdx[key] = idx
	c.prog.fconsts = append(c.prog.fconsts, v)
	return c.fConst + idx
}

func (c *compiler) pushI() int32 {
	r := c.iScratch + c.depthI
	c.depthI++
	if c.depthI > c.maxDepthI {
		c.maxDepthI = c.depthI
	}
	return r
}

func (c *compiler) pushF() int32 {
	r := c.fScratch + c.depthF
	c.depthF++
	if c.depthF > c.maxDepthF {
		c.maxDepthF = c.depthF
	}
	return r
}

// ---------------------------------------------------------------------------
// Functions, blocks, statements

// fn compiles one function. The kept pass also lists the variables
// and arrays its entry clears.
func (c *compiler) fn(f *ir.Func) FuncImage {
	c.curFn = f
	maxID := -1
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	c.blockPC = fit(c.blockPC, maxID+1)
	c.blockAt = fit(c.blockAt, maxID+1)
	c.patches = c.patches[:0]
	fi := FuncImage{Name: f.Name, Entry: int32(len(c.prog.code)), Params: int32(len(f.Params))}
	for _, b := range f.Blocks {
		c.blockPC[b.ID], c.blockAt[b.ID] = int32(len(c.prog.code)), b
		for _, s := range b.Stmts {
			c.stmt(s)
			c.depthI, c.depthF = 0, 0 // nothing is live across statements
		}
		c.term(b)
		c.depthI, c.depthF = 0, 0
	}
	for _, pt := range c.patches {
		id := pt.target.ID
		if id < 0 || id >= len(c.blockAt) || c.blockAt[id] != pt.target {
			panic(fmt.Sprintf("vm: %s: jump to foreign block b%d", f.Name, pt.target.ID))
		}
		pc := c.blockPC[id]
		switch pt.field {
		case 'a':
			c.prog.code[pt.instr].A = pc
		case 'b':
			c.prog.code[pt.instr].B = pc
		default:
			c.prog.code[pt.instr].Imm = int64(pc)
		}
	}
	if !c.final {
		return fi
	}
	for _, v := range f.Locals {
		if !isParam(f, v) {
			fi.ZeroVars = append(fi.ZeroVars, int32(v.ID))
		}
	}
	for _, a := range f.Arrays {
		fi.ClrArrs = append(fi.ClrArrs, int32(a.ID))
	}
	return fi
}

func isParam(f *ir.Func, v *ir.Var) bool {
	for _, p := range f.Params {
		if p == v {
			return true
		}
	}
	return false
}

func (c *compiler) stmt(s ir.Stmt) {
	wasPairable := c.pairable
	c.pairable = -1
	switch s := s.(type) {
	case *ir.AssignStmt:
		// The assignment itself costs 1, fused into the final
		// instruction of the source expression.
		if s.Dst.Type == ir.Int {
			c.intTo(s.Src, int32(s.Dst.ID), 1)
		} else {
			c.floatTo(s.Src, int32(s.Dst.ID), 1)
		}

	case *ir.StoreStmt:
		// Subscripts evaluate before the value, as in the reference
		// engine's elemOffset-then-value order.
		base := len(c.regs)
		defer c.popRegs(base)
		var cost uint16
		for _, ix := range s.Idx {
			r, f := c.intOperand(ix)
			c.regs = append(c.regs, r)
			cost += f
		}
		var vreg int32
		var vf uint16
		op1, opN := opStoreI1, uint8(opStoreI)
		if s.Arr.Elem == ir.Int {
			vreg, vf = c.intOperand(s.Val)
		} else {
			vreg, vf = c.floatOperand(s.Val)
			op1, opN = opStoreF1, opStoreF
		}
		cost += vf + uint16(1+2*(len(s.Idx)-1))
		regs := c.regs[base:]
		switch len(regs) {
		case 1:
			c.emit(Instr{Op: op1, A: vreg, B: regs[0], C: int32(s.Arr.ID), Cost: cost})
		case 2:
			op2 := uint8(opStoreI2)
			if s.Arr.Elem != ir.Int {
				op2 = opStoreF2
			}
			c.emit(Instr{Op: op2, A: vreg, C: int32(s.Arr.ID), Cost: cost, Imm: packRegs(regs[0], regs[1])})
		default:
			off := c.poolRegs(regs)
			c.emit(Instr{Op: opN, A: vreg, B: off, C: int32(s.Arr.ID), Cost: cost})
		}

	case *ir.CheckStmt:
		var brIdx int32 = -1
		var brField byte
		if s.Guard != nil {
			// The guard of a cond-check is an ordinary charged test; a
			// false guard skips the check entirely.
			brIdx, brField = c.condBr(s.Guard)
			c.prog.code[brIdx].A = brIdx + 1 // true: fall through to the check
		}
		// Term atoms are part of the check: compiled cost-free. Their
		// registers stack up on regs, in term order.
		c.costFree = true
		base := len(c.regs)
		defer c.popRegs(base)
		for _, t := range s.Terms {
			r, _ := c.intOperand(t.Atom)
			c.regs = append(c.regs, r)
		}
		c.costFree = false
		regs := c.regs[base:]
		ci := int32(len(c.prog.checks))
		ck := CheckImage{Note: s.Note, Pos: s.SrcPos}
		if c.final {
			lo := int32(0)
			if ci > 0 {
				lo = c.textEnd[ci-1]
			}
			ck.Str = c.checkText[lo:c.textEnd[ci]]
		} else {
			c.text = s.AppendString(c.text)
			c.textEnd = append(c.textEnd, int32(len(c.text)))
		}
		c.prog.checks = append(c.prog.checks, ck)
		switch {
		case len(regs) == 1 && s.Terms[0].Coef == int64(int32(s.Terms[0].Coef)):
			// The dominant shape: one term with a small coefficient
			// (every PRX check and most INX checks) needs no pool trip.
			// Two such checks in a row on the same register — the lo/hi
			// pair of one subscript — fuse into opCheckPair, absorbing
			// this one into the previous instruction. Only unguarded
			// checks fuse: a guard's false edge targets the instruction
			// after its check, which must stay addressable.
			if s.Guard == nil && wasPairable >= 0 {
				prev := &c.prog.code[wasPairable]
				if prev.Op == opCheck1 && prev.A == regs[0] {
					off := int32(len(c.prog.pool))
					c.prog.pool = append(c.prog.pool,
						int64(prev.B), prev.Imm, int64(prev.C),
						s.Terms[0].Coef, s.Const, int64(ci))
					*prev = Instr{Op: opCheckPair, A: regs[0], B: off}
					break
				}
			}
			idx := c.emit(Instr{Op: opCheck1, A: regs[0], B: int32(s.Terms[0].Coef), C: ci, Imm: s.Const})
			if s.Guard == nil {
				c.pairable = idx
			}
		case len(regs) == 2:
			off := int32(len(c.prog.pool))
			c.prog.pool = append(c.prog.pool,
				s.Terms[0].Coef, int64(regs[0]), s.Terms[1].Coef, int64(regs[1]))
			c.emit(Instr{Op: opCheck2, A: off, C: ci, Imm: s.Const})
		default:
			off := int32(len(c.prog.pool))
			for i, r := range regs {
				c.prog.pool = append(c.prog.pool, s.Terms[i].Coef, int64(r))
			}
			c.emit(Instr{Op: opCheck, A: off, B: int32(len(s.Terms)), C: ci, Imm: s.Const})
		}
		if brIdx >= 0 {
			// false: skip past the check
			if brField == 'i' {
				c.prog.code[brIdx].Imm = int64(len(c.prog.code))
			} else {
				c.prog.code[brIdx].B = int32(len(c.prog.code))
			}
		}

	case *ir.CallStmt:
		// The reference engine charges the call's 2+params before
		// evaluating arguments, so the cost rides a nop ahead of the
		// argument moves (or the call itself when there are none).
		callee := s.Callee
		callCost := uint16(2 + len(callee.Params))
		if len(callee.Params) == 0 {
			c.emit(Instr{Op: opCall, A: int32(callee.Index), Cost: callCost})
			return
		}
		c.emit(Instr{Op: opNop, Cost: callCost})
		for i, prm := range callee.Params {
			if prm.Type == ir.Int {
				c.intTo(s.Args[i], int32(prm.ID), 0)
			} else {
				c.floatTo(s.Args[i], int32(prm.ID), 0)
			}
		}
		c.emit(Instr{Op: opCall, A: int32(callee.Index)})

	case *ir.PrintStmt:
		base := len(c.vals)
		defer func() { c.vals = c.vals[:base] }()
		cost := uint16(1)
		for _, a := range s.Args {
			if a.Type() == ir.Float {
				r, f := c.floatOperand(a)
				cost += f
				c.vals = append(c.vals, int64(r)<<1|1)
			} else {
				r, f := c.intOperand(a)
				cost += f
				c.vals = append(c.vals, int64(r)<<1)
			}
		}
		off := int32(len(c.prog.pool))
		c.prog.pool = append(c.prog.pool, c.vals[base:]...)
		c.emit(Instr{Op: opPrint, A: off, B: int32(len(s.Args)), Cost: cost})

	case *ir.TrapStmt:
		ti := int32(len(c.prog.traps))
		c.prog.traps = append(c.prog.traps, TrapImage{Note: s.Note, Pos: s.SrcPos})
		c.emit(Instr{Op: opTrapStmt, A: ti})

	default:
		c.emitFail(0, "interp: unknown statement %T", s)
	}
}

func (c *compiler) term(b *ir.Block) {
	c.pairable = -1 // the next block's first check is a jump target
	switch t := b.Term.(type) {
	case *ir.Goto:
		idx := c.emit(Instr{Op: opJmp, Cost: 1})
		c.patches = append(c.patches, patch{idx, 'a', t.Target})
	case *ir.If:
		idx, ff := c.condBr(t.Cond)
		c.patches = append(c.patches,
			patch{idx, 'a', t.Then},
			patch{idx, ff, t.Else})
	case *ir.Ret:
		c.emit(Instr{Op: opRet, Cost: 1})
	default:
		c.emitFail(0, "interp: block b%d of %s has no terminator", b.ID, c.curFn.Name)
	}
}

// condBr compiles a conditional branch on cond: the emitted branch
// instruction jumps to its 'a' field when cond holds. The second
// return value names the field carrying the false target: 'i' (imm)
// for a fused compare-and-branch, 'b' for a plain opBr. Comparisons —
// virtually every branch condition — fuse the test into the branch;
// the fused cost is the test's charge plus the branch's 1, so the
// counter advances by the same delta as the two-instruction sequence.
func (c *compiler) condBr(cond ir.Expr) (int32, byte) {
	d0i, d0f := c.depthI, c.depthF
	defer func() { c.depthI, c.depthF = d0i, d0f }()

	if e, ok := cond.(*ir.Bin); ok && e.Op.IsComparison() {
		if e.L.Type() == ir.Float || e.R.Type() == ir.Float {
			l, lf := c.floatOperand(e.L)
			r, rf := c.floatOperand(e.R)
			return c.emit(Instr{Op: opBrEqF + uint8(e.Op-ir.OpEq), B: l, C: r, Cost: lf + rf + 2}), 'i'
		}
		l, lf := c.intOperand(e.L)
		r, rf := c.intOperand(e.R)
		return c.emit(Instr{Op: opBrEqI + uint8(e.Op-ir.OpEq), B: l, C: r, Cost: lf + rf + 2}), 'i'
	}
	g := c.pushI()
	c.boolTo(cond, g, 0)
	return c.emit(Instr{Op: opBr, C: g, Cost: 1}), 'b'
}

// popRegs pops the regs stack back to base.
func (c *compiler) popRegs(base int) { c.regs = c.regs[:base] }

// poolRegs appends a register list to the operand pool and returns its
// offset. Callers must finish compiling sub-operands first: nested
// expressions append their own pool entries.
func (c *compiler) poolRegs(regs []int32) int32 {
	off := int32(len(c.prog.pool))
	for _, r := range regs {
		c.prog.pool = append(c.prog.pool, int64(r))
	}
	return off
}

// ---------------------------------------------------------------------------
// Expressions
//
// intOperand/floatOperand mirror the reference engine's evalInt /
// evalFloat leaf handling: constants and scalar reads are not
// materialized as instructions — the caller fuses their cost (0 and 1
// respectively) into the consuming instruction — while compound
// operands compile to self-charging instructions ending in a scratch
// register.

func (c *compiler) intOperand(e ir.Expr) (reg int32, fuse uint16) {
	switch e := e.(type) {
	case *ir.ConstInt:
		return c.iconst(e.V), 0
	case *ir.VarRef:
		return int32(e.Var.ID), 1
	}
	r := c.pushI()
	c.intTo(e, r, 0)
	return r, 0
}

func (c *compiler) floatOperand(e ir.Expr) (reg int32, fuse uint16) {
	switch e := e.(type) {
	case *ir.ConstFloat:
		return c.fconst(e.V), 0
	case *ir.ConstInt:
		return c.fconst(float64(e.V)), 0
	case *ir.VarRef:
		return int32(e.Var.ID), 1
	}
	r := c.pushF()
	c.floatTo(e, r, 0)
	return r, 0
}

// intTo compiles e, leaving its value in int register dst. extra is
// fused into the final instruction's cost (the +1 of an assignment, or
// an enclosing intrinsic's charge).
func (c *compiler) intTo(e ir.Expr, dst int32, extra uint16) {
	d0i, d0f := c.depthI, c.depthF
	defer func() { c.depthI, c.depthF = d0i, d0f }()

	switch e := e.(type) {
	case *ir.ConstInt:
		c.emit(Instr{Op: opMovI, A: dst, B: c.iconst(e.V), Cost: extra})
	case *ir.VarRef:
		c.emit(Instr{Op: opMovI, A: dst, B: int32(e.Var.ID), Cost: 1 + extra})
	case *ir.Load:
		c.loadTo(e, dst, extra, ir.Int)
	case *ir.Bin:
		var op uint8
		switch e.Op {
		case ir.OpAdd:
			op = opAddI
		case ir.OpSub:
			op = opSubI
		case ir.OpMul:
			op = opMulI
		case ir.OpDiv:
			op = opDivI
		default:
			// The reference engine evaluates both operands and charges
			// the op before discovering the operator is not an int op.
			l, lf := c.intOperand(e.L)
			r, rf := c.intOperand(e.R)
			_, _ = l, r
			c.emitFail(lf+rf+1, "interp: bad int expression %s", ir.ExprString(e))
			return
		}
		l, lf := c.intOperand(e.L)
		r, rf := c.intOperand(e.R)
		c.emit(Instr{Op: op, A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
	case *ir.Un:
		if e.Op == ir.OpNeg {
			x, xf := c.intOperand(e.X)
			c.emit(Instr{Op: opNegI, A: dst, B: x, Cost: xf + 1 + extra})
			return
		}
		c.emitFail(0, "interp: bad int expression %s", ir.ExprString(e))
	case *ir.Call:
		c.intCallTo(e, dst, extra)
	default:
		c.emitFail(0, "interp: bad int expression %s", ir.ExprString(e))
	}
}

func (c *compiler) intCallTo(e *ir.Call, dst int32, extra uint16) {
	// Intrinsics charge 1 before their arguments (evalIntCall order).
	switch e.Fn {
	case ir.IntrMod:
		l, lf := c.intOperand(e.Args[0])
		r, rf := c.intOperand(e.Args[1])
		c.emit(Instr{Op: opModI, A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
	case ir.IntrMin, ir.IntrMax:
		op := uint8(opMinI)
		if e.Fn == ir.IntrMax {
			op = opMaxI
		}
		base := len(c.regs)
		defer c.popRegs(base)
		cost := uint16(1) + extra
		for _, a := range e.Args {
			r, f := c.intOperand(a)
			c.regs = append(c.regs, r)
			cost += f
		}
		off := c.poolRegs(c.regs[base:])
		c.emit(Instr{Op: op, A: dst, B: off, C: int32(len(e.Args)), Cost: cost})
	case ir.IntrAbs:
		x, xf := c.intOperand(e.Args[0])
		c.emit(Instr{Op: opAbsI, A: dst, B: x, Cost: xf + 1 + extra})
	case ir.IntrInt:
		x, xf := c.floatOperand(e.Args[0])
		c.emit(Instr{Op: opF2I, A: dst, B: x, Cost: xf + 1 + extra})
	default:
		c.emitFail(1, "interp: intrinsic %s does not yield int", e.Fn)
	}
}

// floatTo compiles e, leaving its value in float register dst.
func (c *compiler) floatTo(e ir.Expr, dst int32, extra uint16) {
	d0i, d0f := c.depthI, c.depthF
	defer func() { c.depthI, c.depthF = d0i, d0f }()

	switch e := e.(type) {
	case *ir.ConstFloat:
		c.emit(Instr{Op: opMovF, A: dst, B: c.fconst(e.V), Cost: extra})
	case *ir.ConstInt:
		c.emit(Instr{Op: opMovF, A: dst, B: c.fconst(float64(e.V)), Cost: extra})
	case *ir.VarRef:
		c.emit(Instr{Op: opMovF, A: dst, B: int32(e.Var.ID), Cost: 1 + extra})
	case *ir.Load:
		c.loadTo(e, dst, extra, ir.Float)
	case *ir.Bin:
		var op uint8
		switch e.Op {
		case ir.OpAdd:
			op = opAddF
		case ir.OpSub:
			op = opSubF
		case ir.OpMul:
			op = opMulF
		case ir.OpDiv:
			op = opDivF
		default:
			l, lf := c.floatOperand(e.L)
			r, rf := c.floatOperand(e.R)
			_, _ = l, r
			c.emitFail(lf+rf+1, "interp: bad float expression %s", ir.ExprString(e))
			return
		}
		l, lf := c.floatOperand(e.L)
		r, rf := c.floatOperand(e.R)
		c.emit(Instr{Op: op, A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
	case *ir.Un:
		if e.Op == ir.OpNeg {
			x, xf := c.floatOperand(e.X)
			c.emit(Instr{Op: opNegF, A: dst, B: x, Cost: xf + 1 + extra})
			return
		}
		c.emitFail(0, "interp: bad float expression %s", ir.ExprString(e))
	case *ir.Call:
		c.floatCallTo(e, dst, extra)
	default:
		c.emitFail(0, "interp: bad float expression %s", ir.ExprString(e))
	}
}

func (c *compiler) floatCallTo(e *ir.Call, dst int32, extra uint16) {
	switch e.Fn {
	case ir.IntrSqrt:
		x, xf := c.floatOperand(e.Args[0])
		c.emit(Instr{Op: opSqrtF, A: dst, B: x, Cost: xf + 1 + extra})
	case ir.IntrFloat:
		if e.Args[0].Type() == ir.Int {
			x, xf := c.intOperand(e.Args[0])
			c.emit(Instr{Op: opI2F, A: dst, B: x, Cost: xf + 1 + extra})
			return
		}
		// float(x) of a float is the identity with the intrinsic's
		// charge of 1; fold it into the argument's final instruction.
		switch arg := e.Args[0].(type) {
		case *ir.ConstFloat:
			c.emit(Instr{Op: opMovF, A: dst, B: c.fconst(arg.V), Cost: 1 + extra})
		case *ir.VarRef:
			c.emit(Instr{Op: opMovF, A: dst, B: int32(arg.Var.ID), Cost: 2 + extra})
		default:
			c.floatTo(e.Args[0], dst, 1+extra)
		}
	case ir.IntrAbs:
		x, xf := c.floatOperand(e.Args[0])
		c.emit(Instr{Op: opAbsF, A: dst, B: x, Cost: xf + 1 + extra})
	case ir.IntrMin, ir.IntrMax:
		op := uint8(opMinF)
		if e.Fn == ir.IntrMax {
			op = opMaxF
		}
		base := len(c.regs)
		defer c.popRegs(base)
		cost := uint16(1) + extra
		for _, a := range e.Args {
			r, f := c.floatOperand(a)
			c.regs = append(c.regs, r)
			cost += f
		}
		off := c.poolRegs(c.regs[base:])
		c.emit(Instr{Op: op, A: dst, B: off, C: int32(len(e.Args)), Cost: cost})
	case ir.IntrMod:
		l, lf := c.floatOperand(e.Args[0])
		r, rf := c.floatOperand(e.Args[1])
		c.emit(Instr{Op: opModF, A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
	default:
		c.emitFail(1, "interp: intrinsic %s does not yield float", e.Fn)
	}
}

// boolTo compiles a condition, leaving 0/1 in int register dst. Like
// the reference engine, and/or evaluate both operands (no short
// circuit) and comparisons go float when either side is float.
func (c *compiler) boolTo(e ir.Expr, dst int32, extra uint16) {
	d0i, d0f := c.depthI, c.depthF
	defer func() { c.depthI, c.depthF = d0i, d0f }()

	switch e := e.(type) {
	case *ir.Bin:
		switch e.Op {
		case ir.OpAnd, ir.OpOr:
			op := uint8(opAndB)
			if e.Op == ir.OpOr {
				op = opOrB
			}
			l := c.pushI()
			c.boolTo(e.L, l, 0)
			r := c.pushI()
			c.boolTo(e.R, r, 0)
			c.emit(Instr{Op: op, A: dst, B: l, C: r, Cost: 1 + extra})
			return
		}
		if e.Op.IsComparison() {
			if e.L.Type() == ir.Float || e.R.Type() == ir.Float {
				l, lf := c.floatOperand(e.L)
				r, rf := c.floatOperand(e.R)
				c.emit(Instr{Op: opEqF + uint8(e.Op-ir.OpEq), A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
			} else {
				l, lf := c.intOperand(e.L)
				r, rf := c.intOperand(e.R)
				c.emit(Instr{Op: opEqI + uint8(e.Op-ir.OpEq), A: dst, B: l, C: r, Cost: lf + rf + 1 + extra})
			}
			return
		}
	case *ir.Un:
		if e.Op == ir.OpNot {
			x := c.pushI()
			c.boolTo(e.X, x, 0)
			c.emit(Instr{Op: opNotB, A: dst, B: x, Cost: 1 + extra})
			return
		}
	}
	c.emitFail(0, "interp: bad bool expression %s", ir.ExprString(e))
}

// loadTo compiles an array load. want is the evaluation context (the
// reference engine reads the int or float backing store per context,
// not per declaration); a context/declaration mismatch is malformed IR
// and compiles to a fail instruction.
func (c *compiler) loadTo(e *ir.Load, dst int32, extra uint16, want ir.Type) {
	if e.Arr.Elem != want {
		c.emitFail(0, "vm: %s load from %s array %s", want, e.Arr.Elem, e.Arr.Name)
		return
	}
	base := len(c.regs)
	defer c.popRegs(base)
	var cost uint16
	for _, ix := range e.Idx {
		r, f := c.intOperand(ix)
		c.regs = append(c.regs, r)
		cost += f
	}
	regs := c.regs[base:]
	cost += uint16(1+2*(len(e.Idx)-1)) + extra
	op1, op2, opN := opLoadI1, uint8(opLoadI2), uint8(opLoadI)
	if want == ir.Float {
		op1, op2, opN = opLoadF1, opLoadF2, opLoadF
	}
	switch len(regs) {
	case 1:
		c.emit(Instr{Op: op1, A: dst, B: regs[0], C: int32(e.Arr.ID), Cost: cost})
	case 2:
		c.emit(Instr{Op: op2, A: dst, C: int32(e.Arr.ID), Cost: cost, Imm: packRegs(regs[0], regs[1])})
	default:
		off := c.poolRegs(regs)
		c.emit(Instr{Op: opN, A: dst, B: off, C: int32(e.Arr.ID), Cost: cost})
	}
}

// packRegs packs a 2-D access's two index registers into one imm.
func packRegs(r0, r1 int32) int64 {
	return int64(r0)<<32 | int64(uint32(r1))
}
