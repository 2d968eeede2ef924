package vm

// jit.go — the closure-compiled top tier ("vmjit").
//
// JITCompile translates a compiled (usually optimized) Program into a
// chain of Go closures, one entry per pc: computed-goto-style dispatch
// with no central switch. Every closure captures its fully decoded
// operands at compile time — pool tuples become scalars, array
// metadata becomes precomputed base/extent constants — so the run-time
// body is pure arithmetic on the machine state. Straight-line closures
// return their successor to a small trampoline; branch closures return
// one of their captured targets. There is no jit-level fusion: the
// superinstructions it runs are the ones Optimize (fuse.go) already
// fused into the bytecode.
//
// The observable contract is exec.go's, bit for bit: identical
// instruction and check counters (including the deferred-cost charge
// points inside fused opcodes), identical trap notes/classes/positions,
// identical budget errors and poll cadence, identical output. The jit
// runs on exec.go's machine (mach) behind the same prologue, and its
// frame, output, trap and recharge paths call the same mach methods as
// the switch cases. Every other closure body below is a
// transliteration of the corresponding exec.go switch case with the
// decode work hoisted to compile time.

import (
	"fmt"
	"math"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
)

// jop is one compiled closure: execute, then return the successor
// closure (nil stops the trampoline — halt, fault, or trap, told apart
// by the machine's result fields).
type jop func(*mach) jop

// JITProgram is a closure-compiled program. Like Program it is
// immutable after JITCompile and safe for concurrent Run calls; the
// mutable state lives in the source Program's cached machines.
type JITProgram struct {
	vp    *Program
	heads []jop
}

// Source returns the bytecode Program this jit was compiled from.
func (jp *JITProgram) Source() *Program { return jp.vp }

// JITCompile closure-compiles a bytecode program, one closure per pc.
// prof is unused: the parameter is kept so existing callers that pass
// a dispatch profile still compile. Panics during compilation are
// contained as stage "vm-jit" internal errors.
func JITCompile(vp *Program, prof *DispatchStats) (jp *JITProgram, err error) {
	defer func() {
		if r := recover(); r != nil {
			jp = nil
			err = &guard.InternalError{Stage: "vm-jit", Recovered: r}
		}
	}()
	b := &jitBuilder{vp: vp, heads: make([]jop, len(vp.code)+1)}
	// Build backward so every fallthrough successor heads[pc+1] is a
	// value by the time pc is compiled; only backward branch targets
	// need the extra pointer indirection (see target).
	for pc := len(vp.code) - 1; pc >= 0; pc-- {
		b.heads[pc] = b.build1(int32(pc))
	}
	return &JITProgram{vp: vp, heads: b.heads}, nil
}

// Run executes the closure-compiled program from main, on the source
// Program's machines and prologue: exactly the switch VM's contract
// (see Program.Run).
func (jp *JITProgram) Run(cfg interp.Config) (interp.Result, error) {
	return jp.vp.run(cfg, nil, jp.heads)
}

// trampoline runs the closures from main's entry until one returns nil.
func (m *mach) trampoline(heads []jop) (interp.Result, error) {
	for f := heads[m.p.funcs[m.p.mainIdx].entry]; f != nil; f = f(m) {
	}
	return m.result(m.instrs, m.checks, m.err)
}

// charge adds one captured cost lump to the counter and takes the
// recharge slow path when it crosses the threshold; false stops the
// trampoline (budget blown or poll failed, m.err set).
func (m *mach) charge(c uint64) bool {
	m.instrs += c
	if m.instrs > m.costThr {
		return m.chargeSlow()
	}
	return true
}

// chargeSlow stays out of line so that charge fits the inliner's
// budget.
//
//go:noinline
func (m *mach) chargeSlow() bool {
	m.costThr, m.err = m.recharge(m.instrs)
	return m.err == nil
}

// fault records a runtime error and stops the trampoline.
func (m *mach) fault(e error) jop {
	m.err = e
	return nil
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

type jitBuilder struct {
	vp    *Program
	heads []jop
}

// target resolves a branch target for a closure under construction.
// Backward build order means forward targets are already closures;
// backward targets (loop heads) resolve through a pointer into the
// heads slice, which never reallocates.
func (b *jitBuilder) target(t int32) *jop { return &b.heads[t] }

// jdim1 is the captured metadata of one 1-D array access: the bounds
// for the check plus base-lo pre-folded into the slab offset.
type jdim1 struct {
	name    string
	lo, hi  int64
	baseAdj int64 // base - lo: cell = slab[baseAdj+idx]
}

func (b *jitBuilder) arr1(id int32) jdim1 {
	ar := &b.vp.arrays[id]
	d := &ar.dims[0]
	return jdim1{name: ar.name, lo: d.lo, hi: d.hi, baseAdj: ar.base - d.lo}
}

// jdim2 is the captured metadata of one 2-D access: both dimension
// bounds, the row stride, and base - lo0*size1 - lo1 pre-folded so
// cell = slab[baseAdj + i0*size1 + i1].
type jdim2 struct {
	name     string
	lo0, hi0 int64
	lo1, hi1 int64
	size1    int64
	baseAdj  int64
}

func (b *jitBuilder) arr2(id int32) jdim2 {
	ar := &b.vp.arrays[id]
	d0, d1 := &ar.dims[0], &ar.dims[1]
	return jdim2{
		name: ar.name,
		lo0:  d0.lo, hi0: d0.hi,
		lo1: d1.lo, hi1: d1.hi,
		size1:   d1.size,
		baseAdj: ar.base - d0.lo*d1.size - d1.lo,
	}
}

// build1 compiles one instruction into its closure. Every arm is the
// exec.go case for that opcode with operand decoding done here, at
// compile time, instead of per dispatch.
func (b *jitBuilder) build1(pc int32) jop {
	vp := b.vp
	in := &vp.code[pc]
	pool := vp.pool
	cost := uint64(in.cost)
	next := b.heads[pc+1]
	a, bb, c := in.a, in.b, in.c

	switch in.op {
	case opMovI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb]
			return next
		}
	case opMovF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = j.freg[bb]
			return next
		}

	case opAddI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] + j.ireg[c]
			return next
		}
	case opSubI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] - j.ireg[c]
			return next
		}
	case opMulI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] * j.ireg[c]
			return next
		}
	case opDivI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			d := j.ireg[c]
			if d == 0 {
				return j.fault(interp.ErrDivZero)
			}
			j.ireg[a] = j.ireg[bb] / d
			return next
		}
	case opNegI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = -j.ireg[bb]
			return next
		}

	case opAddF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = j.freg[bb] + j.freg[c]
			return next
		}
	case opSubF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = j.freg[bb] - j.freg[c]
			return next
		}
	case opMulF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = j.freg[bb] * j.freg[c]
			return next
		}
	case opDivF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = j.freg[bb] / j.freg[c]
			return next
		}
	case opNegF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = -j.freg[bb]
			return next
		}

	case opEqI, opNeI, opLtI, opLeI, opGtI, opGeI:
		kind := in.op - opEqI
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			l, r := j.ireg[bb], j.ireg[c]
			var t bool
			switch kind {
			case 0:
				t = l == r
			case 1:
				t = l != r
			case 2:
				t = l < r
			case 3:
				t = l <= r
			case 4:
				t = l > r
			default:
				t = l >= r
			}
			j.ireg[a] = b2i(t)
			return next
		}
	case opEqF, opNeF, opLtF, opLeF, opGtF, opGeF:
		kind := in.op - opEqF
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			l, r := j.freg[bb], j.freg[c]
			var t bool
			switch kind {
			case 0:
				t = l == r
			case 1:
				t = l != r
			case 2:
				t = l < r
			case 3:
				t = l <= r
			case 4:
				t = l > r
			default:
				t = l >= r
			}
			j.ireg[a] = b2i(t)
			return next
		}

	case opAndB:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] & j.ireg[c]
			return next
		}
	case opOrB:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] | j.ireg[c]
			return next
		}
	case opNotB:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = j.ireg[bb] ^ 1
			return next
		}

	case opModI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			d := j.ireg[c]
			if d == 0 {
				return j.fault(interp.ErrModZero)
			}
			j.ireg[a] = j.ireg[bb] % d
			return next
		}
	case opAbsI:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v := j.ireg[bb]
			if v < 0 {
				v = -v
			}
			j.ireg[a] = v
			return next
		}
	case opMinI, opMaxI:
		regs := append([]int64(nil), pool[bb:bb+c]...)
		max := in.op == opMaxI
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v := j.ireg[regs[0]]
			for _, r := range regs[1:] {
				w := j.ireg[r]
				if max == (w > v) {
					v = w
				}
			}
			j.ireg[a] = v
			return next
		}
	case opModF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = math.Mod(j.freg[bb], j.freg[c])
			return next
		}
	case opAbsF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = math.Abs(j.freg[bb])
			return next
		}
	case opSqrtF:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = math.Sqrt(j.freg[bb])
			return next
		}
	case opMinF, opMaxF:
		regs := append([]int64(nil), pool[bb:bb+c]...)
		max := in.op == opMaxF
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v := j.freg[regs[0]]
			for _, r := range regs[1:] {
				if max {
					v = math.Max(v, j.freg[r])
				} else {
					v = math.Min(v, j.freg[r])
				}
			}
			j.freg[a] = v
			return next
		}
	case opI2F:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.freg[a] = float64(j.ireg[bb])
			return next
		}
	case opF2I:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[a] = int64(j.freg[bb])
			return next
		}

	case opLoadI1, opLoadF1, opStoreI1, opStoreF1:
		ai := b.arr1(c)
		op := in.op
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v := j.ireg[bb]
			if v < ai.lo || v > ai.hi {
				return j.fault(interp.SubscriptError(v, ai.name, ai.lo, ai.hi, 1))
			}
			switch op {
			case opLoadI1:
				j.ireg[a] = j.icel[ai.baseAdj+v]
			case opLoadF1:
				j.freg[a] = j.fcel[ai.baseAdj+v]
			case opStoreI1:
				j.icel[ai.baseAdj+v] = j.ireg[a]
			default:
				j.fcel[ai.baseAdj+v] = j.freg[a]
			}
			return next
		}

	case opLoadI2, opLoadF2, opStoreI2, opStoreF2:
		ai := b.arr2(c)
		r0 := int32(uint64(in.imm) >> 32)
		r1 := int32(uint32(in.imm))
		op := in.op
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v0 := j.ireg[r0]
			if v0 < ai.lo0 || v0 > ai.hi0 {
				return j.fault(interp.SubscriptError(v0, ai.name, ai.lo0, ai.hi0, 1))
			}
			v1 := j.ireg[r1]
			if v1 < ai.lo1 || v1 > ai.hi1 {
				return j.fault(interp.SubscriptError(v1, ai.name, ai.lo1, ai.hi1, 2))
			}
			cell := ai.baseAdj + v0*ai.size1 + v1
			switch op {
			case opLoadI2:
				j.ireg[a] = j.icel[cell]
			case opLoadF2:
				j.freg[a] = j.fcel[cell]
			case opStoreI2:
				j.icel[cell] = j.ireg[a]
			default:
				j.fcel[cell] = j.freg[a]
			}
			return next
		}

	case opLoadI, opLoadF, opStoreI, opStoreF:
		ar := &vp.arrays[c]
		dims := append([]dimInfo(nil), ar.dims...)
		idxRegs := append([]int64(nil), pool[bb:bb+int32(len(ar.dims))]...)
		name, base := ar.name, ar.base
		op := in.op
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			off := int64(0)
			for k := range dims {
				d := &dims[k]
				v := j.ireg[idxRegs[k]]
				if v < d.lo || v > d.hi {
					return j.fault(interp.SubscriptError(v, name, d.lo, d.hi, k+1))
				}
				off = off*d.size + (v - d.lo)
			}
			cell := base + off
			switch op {
			case opLoadI:
				j.ireg[a] = j.icel[cell]
			case opLoadF:
				j.freg[a] = j.fcel[cell]
			case opStoreI:
				j.icel[cell] = j.ireg[a]
			default:
				j.fcel[cell] = j.freg[a]
			}
			return next
		}

	case opCheck1:
		coef := int64(bb)
		k := in.imm
		cs := vp.checks[c]
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.checks++
			if lhs := coef * j.ireg[a]; lhs > k {
				return j.trap(cs, lhs)
			}
			return next
		}

	case opCheckPair:
		o := b.newCheckPair(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opCheck2:
		t := pool[a : a+4 : a+4]
		c0, r0, c1, r1 := t[0], t[1], t[2], t[3]
		k := in.imm
		cs := vp.checks[c]
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.checks++
			if lhs := c0*j.ireg[r0] + c1*j.ireg[r1]; lhs > k {
				return j.trap(cs, lhs)
			}
			return next
		}

	case opCheck:
		o := b.newCheck(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opRangeGuard:
		// Preheader range guard (rce.go): cost-invisible, same
		// semantics and chaos site as the switch VM's case, including
		// the bulk trip × perIter check commit (c > 0) with
		// deopt-on-overflow.
		phFast, phDeopt := b.target(a), b.target(int32(in.imm))
		perIter := int64(in.c)
		return func(j *mach) jop {
			pass, trip := rangeGuardPass(pool, bb, j.ireg)
			if pass && chaos.Active() && chaos.Fire(chaos.SiteRCEGuardFail, j.p.funcs[j.fn].name) {
				pass = false
			}
			if pass && perIter > 0 {
				var bulk int64
				if bulk, pass = mulOvf(trip, perIter); pass {
					j.checks += uint64(bulk)
				}
			}
			if pass {
				return *phFast
			}
			return *phDeopt
		}

	case opCkAdd:
		// Eliminated-check stand-in: bulk-count a checks, charge the
		// replaced instruction's cost, evaluate nothing.
		n := uint64(a)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.checks += n
			return next
		}

	case opTrapStmt:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.trapStmt(a)
			return nil
		}

	case opJmp:
		ph := b.target(a)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			return *ph
		}
	case opBr:
		phT, phF := b.target(a), b.target(bb)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if j.ireg[c] != 0 {
				return *phT
			}
			return *phF
		}

	case opBrEqI, opBrNeI, opBrLtI, opBrLeI, opBrGtI, opBrGeI:
		kind := in.op - opBrEqI
		phT, phF := b.target(a), b.target(int32(in.imm))
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			l, r := j.ireg[bb], j.ireg[c]
			var t bool
			switch kind {
			case 0:
				t = l == r
			case 1:
				t = l != r
			case 2:
				t = l < r
			case 3:
				t = l <= r
			case 4:
				t = l > r
			default:
				t = l >= r
			}
			if t {
				return *phT
			}
			return *phF
		}
	case opBrEqF, opBrNeF, opBrLtF, opBrLeF, opBrGtF, opBrGeF:
		kind := in.op - opBrEqF
		phT, phF := b.target(a), b.target(int32(in.imm))
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			l, r := j.freg[bb], j.freg[c]
			var t bool
			switch kind {
			case 0:
				t = l == r
			case 1:
				t = l != r
			case 2:
				t = l < r
			case 3:
				t = l <= r
			case 4:
				t = l > r
			default:
				t = l >= r
			}
			if t {
				return *phT
			}
			return *phF
		}

	case opCall:
		retPC := pc + 1
		phEntry := b.target(vp.funcs[a].entry)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if _, err := j.call(a, retPC); err != nil {
				return j.fault(err)
			}
			return *phEntry
		}

	case opRet:
		heads := b.heads
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			ret, ok := j.ret()
			if !ok {
				return nil // main returned
			}
			return heads[ret]
		}

	case opPrint:
		ents := pool[a : a+bb : a+bb]
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.print(ents)
			return next
		}

	case opNop:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			return next
		}

	case opFail:
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			return j.fault(j.fail(a))
		}

	// ---- fused opcodes (emitted only by Optimize) ----

	case opAffLoadI1, opAffLoadF1, opAffStoreI1, opAffStoreF1:
		t := pool[bb : bb+2 : bb+2]
		coef, off := t[0], t[1]
		ai := b.arr1(c)
		vreg := in.imm
		op := in.op
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			idx := coef*j.ireg[vreg] + off
			if idx < ai.lo || idx > ai.hi {
				return j.fault(interp.SubscriptError(idx, ai.name, ai.lo, ai.hi, 1))
			}
			switch op {
			case opAffLoadI1:
				j.ireg[a] = j.icel[ai.baseAdj+idx]
			case opAffLoadF1:
				j.freg[a] = j.fcel[ai.baseAdj+idx]
			case opAffStoreI1:
				j.icel[ai.baseAdj+idx] = j.ireg[a]
			default:
				j.fcel[ai.baseAdj+idx] = j.freg[a]
			}
			return next
		}

	case opCPLoadI1, opCPLoadF1, opCPStoreI1, opCPStoreF1,
		opCP2LoadI1, opCP2LoadF1, opCP2StoreI1, opCP2StoreF1:
		o := b.newChk1Acc(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opCPQLoadI2, opCPQLoadF2, opCPQStoreI2, opCPQStoreF2:
		o := b.newCPQAcc(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opBinStoreI1, opBinStoreF1:
		o := b.newBinStore1(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opCheckBlock:
		o := b.newCheckBlock(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opAddJmp:
		delta := in.imm
		reg := bb
		ph := b.target(a)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			j.ireg[reg] += delta
			return *ph
		}

	case opIncBrEqI, opIncBrNeI, opIncBrLtI, opIncBrLeI, opIncBrGtI, opIncBrGeI:
		kind := in.op - opIncBrEqI
		delta := int64(int32(uint32(in.imm)))
		phT, phF := b.target(a), b.target(int32(uint64(in.imm)>>32))
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			v := j.ireg[bb] + delta
			j.ireg[bb] = v
			w := j.ireg[c]
			var t bool
			switch kind {
			case 0:
				t = v == w
			case 1:
				t = v != w
			case 2:
				t = v < w
			case 3:
				t = v <= w
			case 4:
				t = v > w
			default:
				t = v >= w
			}
			if t {
				return *phT
			}
			return *phF
		}

	case opBinBinF:
		o := b.newBinBinF(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			o.exec(j)
			return next
		}

	case opLoadBinF1:
		o := b.newLoadBinF1(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opLLBinF1:
		o := b.newLLBinF1(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opLoadBinF2:
		o := b.newLoadBinF2(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opAffLoadI2, opAffLoadF2, opAffStoreI2, opAffStoreF2:
		t := pool[bb : bb+4 : bb+4]
		c0, off0, c1, off1 := t[0], t[1], t[2], t[3]
		ai := b.arr2(c)
		r0 := int32(uint64(in.imm) >> 32)
		r1 := int32(uint32(in.imm))
		op := in.op
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			i0 := c0*j.ireg[r0] + off0
			if i0 < ai.lo0 || i0 > ai.hi0 {
				return j.fault(interp.SubscriptError(i0, ai.name, ai.lo0, ai.hi0, 1))
			}
			i1 := c1*j.ireg[r1] + off1
			if i1 < ai.lo1 || i1 > ai.hi1 {
				return j.fault(interp.SubscriptError(i1, ai.name, ai.lo1, ai.hi1, 2))
			}
			cell := ai.baseAdj + i0*ai.size1 + i1
			switch op {
			case opAffLoadI2:
				j.ireg[a] = j.icel[cell]
			case opAffLoadF2:
				j.freg[a] = j.fcel[cell]
			case opAffStoreI2:
				j.icel[cell] = j.ireg[a]
			default:
				j.fcel[cell] = j.freg[a]
			}
			return next
		}

	case opBinStoreF2:
		o := b.newBinStoreF2(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opBinBinStoreF1:
		o := b.newBinBinStoreF1(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	case opBinBinStoreF2:
		o := b.newBinBinStoreF2(in)
		return func(j *mach) jop {
			if cost != 0 && !j.charge(cost) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	default:
		badOp, badPC := in.op, pc
		return func(j *mach) jop {
			return j.fault(fmt.Errorf("vm: bad opcode %d at pc %d", badOp, badPC))
		}
	}
}

// ---------------------------------------------------------------------
// Captured-operand executors for the heavyweight opcodes. Each struct
// holds one instruction's fully decoded operands; exec runs the
// exec.go body against them and returns false when the trampoline must
// stop (fault, trap, or failed deferred charge — j's fields say
// which). Each build1 arm wraps one executor.
// ---------------------------------------------------------------------

// jpair is one lo/hi check pair on a single register: two
// constant-coefficient checks.
type jpair struct {
	c0, k0   int64
	c1, k1   int64
	cs0, cs1 checkInfo
}

func (b *jitBuilder) pairAt(t []int64) jpair {
	return jpair{
		c0: t[0], k0: t[1], cs0: b.vp.checks[t[2]],
		c1: t[3], k1: t[4], cs1: b.vp.checks[t[5]],
	}
}

// jCheckPair is opCheckPair: both checks on one register, first
// counting and trapping before the second runs.
type jCheckPair struct {
	reg int32
	p   jpair
}

func (b *jitBuilder) newCheckPair(in *instr) *jCheckPair {
	return &jCheckPair{reg: in.a, p: b.pairAt(b.vp.pool[in.b : in.b+6 : in.b+6])}
}

func (o *jCheckPair) exec(j *mach) bool {
	v := j.ireg[o.reg]
	j.checks++
	if lhs := o.p.c0 * v; lhs > o.p.k0 {
		j.trap(o.p.cs0, lhs)
		return false
	}
	j.checks++
	if lhs := o.p.c1 * v; lhs > o.p.k1 {
		j.trap(o.p.cs1, lhs)
		return false
	}
	return true
}

// jCheck is the general linear-form check: sum(coef*reg) <= K.
type jCheck struct {
	terms []int64 // coef, reg pairs
	k     int64
	cs    checkInfo
}

func (b *jitBuilder) newCheck(in *instr) *jCheck {
	return &jCheck{
		terms: append([]int64(nil), b.vp.pool[in.a:in.a+2*in.b]...),
		k:     in.imm,
		cs:    b.vp.checks[in.c],
	}
}

func (o *jCheck) exec(j *mach) bool {
	j.checks++
	lhs := int64(0)
	for k := 0; k+1 < len(o.terms); k += 2 {
		lhs += o.terms[k] * j.ireg[o.terms[k+1]]
	}
	if lhs > o.k {
		j.trap(o.cs, lhs)
		return false
	}
	return true
}

// cbEnt is one decoded opCheckBlock entry.
type cbEnt struct {
	dc   uint64
	pre  uint64
	kind int8 // 0 = evaluated pair, 1 = implied lump, 2 = two-register term
	r0   int32
	r1   int32
	p    jpair // kind 2 reuses c0/k0/cs0 as its coefs/K/check
}

// jCheckBlock is opCheckBlock: a run of check pairs with deferred
// per-entry charges and the fuser's implied-pair bookkeeping.
type jCheckBlock struct {
	ents []cbEnt
	// fast is non-nil when every entry is an evaluated pair or an
	// implied lump: a compact mirror of ents that the steady-state
	// exec walks without per-entry branch tests. Any trap or
	// budget/poll boundary falls back to the full loop, which replays
	// from unmodified counters — bit-identical by replay.
	fast []cbFastEnt
	// fast2 is the sum-form fallback for blocks that also carry
	// two-register terms: each entry tests two linear sums
	// (ca*reg[ra]+cb*reg[rb] > ka, and the same for the second sum).
	// An evaluated pair degenerates to cb=cd=0; a two-register term
	// uses the first sum with a never-failing second; a lump zeroes
	// both. Costlier per entry than fast, so only built when fast
	// can't be.
	fast2 []cbFastEnt2
	// totDC/totAdd are the whole-block sums of the per-entry deferred
	// charge and check-counter delta, applied once after every entry
	// passes. Valid because the fast paths commit nothing until the
	// end: any trap or budget crossing replays through slow from
	// untouched counters.
	totDC  uint64
	totAdd uint64
}

// cbFastEnt is the compact steady-state form of a cbEnt: the deferred
// charge, the check-counter delta for a passing entry, the register,
// and the four check constants. An implied lump degenerates to the
// never-failing pair 0*v > 0. Trap detail (checkInfo) lives only in
// the full entry.
type cbFastEnt struct {
	dc     uint64
	add    uint64
	r0     int32
	_      int32
	c0, k0 int64
	c1, k1 int64
}

// cbFastEnt2 is the sum-form steady-state entry: two independent
// two-term linear tests over integer registers. Covers every entry
// kind; trap detail still lives only in the full entry.
type cbFastEnt2 struct {
	dc, add        uint64
	ra, rb, rc, rd int32
	ca, cb, ka     int64
	cc, cd, kb     int64
}

func (b *jitBuilder) newCheckBlock(in *instr) *jCheckBlock {
	t := b.vp.pool[in.b : in.b+9*int32(in.imm)]
	o := &jCheckBlock{}
	for ; len(t) >= 9; t = t[9:] {
		e := cbEnt{dc: uint64(t[0]), pre: uint64(t[1])}
		switch r := t[2]; {
		case r == -1:
			e.kind = 1
		case r == -2:
			e.kind = 2
			e.r0, e.r1 = int32(t[3]), int32(t[4])
			e.p = jpair{c0: t[5], c1: t[6], k0: t[7], cs0: b.vp.checks[t[8]]}
		default:
			e.r0 = int32(r)
			e.p = jpair{
				c0: t[3], k0: t[4], cs0: b.vp.checks[t[5]],
				c1: t[6], k1: t[7], cs1: b.vp.checks[t[8]],
			}
		}
		o.ents = append(o.ents, e)
	}
	// Lump entries carry no register of their own; borrow one from a
	// live pair so the fast loops' unconditional loads stay in range.
	// All-lump blocks keep the full loop only.
	borrow, haveReg := int32(0), false
	twoReg := false
	for i := range o.ents {
		switch o.ents[i].kind {
		case 0, 2:
			if !haveReg {
				borrow, haveReg = o.ents[i].r0, true
			}
		}
		if o.ents[i].kind == 2 {
			twoReg = true
		}
	}
	if !haveReg {
		return o
	}
	if !twoReg {
		fast := make([]cbFastEnt, 0, len(o.ents))
		for i := range o.ents {
			e := &o.ents[i]
			if e.kind == 0 {
				fast = append(fast, cbFastEnt{
					dc: e.dc, add: e.pre + 2, r0: e.r0,
					c0: e.p.c0, k0: e.p.k0, c1: e.p.c1, k1: e.p.k1,
				})
			} else {
				fast = append(fast, cbFastEnt{dc: e.dc, add: e.pre, r0: borrow})
			}
			o.totDC += fast[i].dc
			o.totAdd += fast[i].add
		}
		o.fast = fast
		return o
	}
	fast2 := make([]cbFastEnt2, 0, len(o.ents))
	for i := range o.ents {
		e := &o.ents[i]
		f := cbFastEnt2{dc: e.dc, ra: borrow, rb: borrow, rc: borrow, rd: borrow}
		switch e.kind {
		case 0:
			f.add = e.pre + 2
			f.ra, f.rc = e.r0, e.r0
			f.ca, f.ka = e.p.c0, e.p.k0
			f.cc, f.kb = e.p.c1, e.p.k1
		case 1:
			f.add = e.pre
		default:
			f.add = e.pre + 1
			f.ra, f.rb = e.r0, e.r1
			f.ca, f.cb, f.ka = e.p.c0, e.p.c1, e.p.k0
		}
		fast2 = append(fast2, f)
		o.totDC += f.dc
		o.totAdd += f.add
	}
	o.fast2 = fast2
	return o
}

func (o *jCheckBlock) exec(j *mach) bool {
	if o.fast != nil {
		// Two-entry blocks dominate the compiled suite; unrolling them
		// lets both entries' loads and multiplies overlap instead of
		// serializing behind the loop-carried branch.
		if len(o.fast) == 2 {
			e0, e1 := &o.fast[0], &o.fast[1]
			v0, v1 := j.ireg[e0.r0], j.ireg[e1.r0]
			if e0.c0*v0 > e0.k0 || e0.c1*v0 > e0.k1 ||
				e1.c0*v1 > e1.k0 || e1.c1*v1 > e1.k1 {
				return o.slow(j)
			}
			instrs := j.instrs + o.totDC
			if instrs > j.costThr {
				return o.slow(j)
			}
			j.instrs = instrs
			j.checks += o.totAdd
			return true
		}
		for i := range o.fast {
			e := &o.fast[i]
			v := j.ireg[e.r0]
			if e.c0*v > e.k0 || e.c1*v > e.k1 {
				return o.slow(j)
			}
		}
		// Monotonic sums: any intermediate budget crossing implies the
		// final one, so a single end-of-block test over the precomputed
		// block total suffices — and the slow replay re-applies the
		// charges one by one, hitting the recharge/poll at exactly the
		// pc-accurate point.
		instrs := j.instrs + o.totDC
		if instrs > j.costThr {
			return o.slow(j)
		}
		j.instrs = instrs
		j.checks += o.totAdd
		return true
	}
	if o.fast2 != nil {
		for i := range o.fast2 {
			e := &o.fast2[i]
			if e.ca*j.ireg[e.ra]+e.cb*j.ireg[e.rb] > e.ka ||
				e.cc*j.ireg[e.rc]+e.cd*j.ireg[e.rd] > e.kb {
				return o.slow(j)
			}
		}
		instrs := j.instrs + o.totDC
		if instrs > j.costThr {
			return o.slow(j)
		}
		j.instrs = instrs
		j.checks += o.totAdd
		return true
	}
	return o.slow(j)
}

func (o *jCheckBlock) slow(j *mach) bool {
	for i := range o.ents {
		e := &o.ents[i]
		if e.dc != 0 && !j.charge(e.dc) {
			return false
		}
		j.checks += e.pre
		switch e.kind {
		case 1:
			continue
		case 2:
			j.checks++
			if lhs := e.p.c0*j.ireg[e.r0] + e.p.c1*j.ireg[e.r1]; lhs > e.p.k0 {
				j.trap(e.p.cs0, lhs)
				return false
			}
		default:
			v := j.ireg[e.r0]
			j.checks += 2
			if lhs := e.p.c0 * v; lhs > e.p.k0 {
				j.checks--
				j.trap(e.p.cs0, lhs)
				return false
			}
			if lhs := e.p.c1 * v; lhs > e.p.k1 {
				j.trap(e.p.cs1, lhs)
				return false
			}
		}
	}
	return true
}

// jChk1Acc covers the opCP*/opCP2* families: two or four checks on
// one register, a deferred charge, then an affine 1-D access.
type jChk1Acc struct {
	vreg        int32
	areg        int32
	nchk        int8 // 2 (CP) or 4 (CP2) checks
	acc         uint8io
	p0, p1      jpair
	dc          uint64
	acoef, aoff int64
	ai          jdim1
}

// uint8io tags the access flavor of a checked-access executor.
type uint8io uint8

const (
	jLoadI uint8io = iota
	jLoadF
	jStoreI
	jStoreF
)

// accIO maps a fused opcode's position inside its 4-wide family
// (load-int, load-float, store-int, store-float) to the access tag.
func accIO(op, base uint8) uint8io { return uint8io(op - base) }

func (b *jitBuilder) newChk1Acc(in *instr) *jChk1Acc {
	o := &jChk1Acc{
		vreg: int32(in.imm >> 16),
		dc:   uint64(uint16(in.imm)),
		ai:   b.arr1(in.c),
		areg: in.a,
	}
	pool := b.vp.pool
	if in.op <= opCPStoreF1 {
		t := pool[in.b : in.b+8 : in.b+8]
		o.nchk = 2
		o.p0 = b.pairAt(t)
		o.acoef, o.aoff = t[6], t[7]
		o.acc = accIO(in.op, opCPLoadI1)
	} else { // opCP2*
		t := pool[in.b : in.b+14 : in.b+14]
		o.nchk = 4
		o.p0 = b.pairAt(t)
		o.p1 = b.pairAt(t[6:])
		o.acoef, o.aoff = t[12], t[13]
		o.acc = accIO(in.op, opCP2LoadI1)
	}
	return o
}

func (o *jChk1Acc) exec(j *mach) bool {
	v := j.ireg[o.vreg]
	j.checks++
	if lhs := o.p0.c0 * v; lhs > o.p0.k0 {
		j.trap(o.p0.cs0, lhs)
		return false
	}
	j.checks++
	if lhs := o.p0.c1 * v; lhs > o.p0.k1 {
		j.trap(o.p0.cs1, lhs)
		return false
	}
	if o.nchk == 4 {
		j.checks++
		if lhs := o.p1.c0 * v; lhs > o.p1.k0 {
			j.trap(o.p1.cs0, lhs)
			return false
		}
		j.checks++
		if lhs := o.p1.c1 * v; lhs > o.p1.k1 {
			j.trap(o.p1.cs1, lhs)
			return false
		}
	}
	if o.dc != 0 && !j.charge(o.dc) {
		return false
	}
	idx := o.acoef*v + o.aoff
	if idx < o.ai.lo || idx > o.ai.hi {
		j.fault(interp.SubscriptError(idx, o.ai.name, o.ai.lo, o.ai.hi, 1))
		return false
	}
	cell := o.ai.baseAdj + idx
	switch o.acc {
	case jLoadI:
		j.ireg[o.areg] = j.icel[cell]
	case jLoadF:
		j.freg[o.areg] = j.fcel[cell]
	case jStoreI:
		j.icel[cell] = j.ireg[o.areg]
	default:
		j.fcel[cell] = j.freg[o.areg]
	}
	return true
}

// jCPQAcc is the opCPQ* family: two check pairs guarding the row and
// column roots of an affine 2-D access.
type jCPQAcc struct {
	r0, r1   int32
	areg     int32
	acc      uint8io
	p0, p1   jpair
	dc       uint64
	c0, off0 int64
	c1, off1 int64
	ai       jdim2
}

func (b *jitBuilder) newCPQAcc(in *instr) *jCPQAcc {
	t := b.vp.pool[in.b : in.b+16 : in.b+16]
	return &jCPQAcc{
		r0:   int32(uint64(in.imm)>>24) & 0xffffff,
		r1:   int32(in.imm) & 0xffffff,
		areg: in.a,
		acc:  accIO(in.op, opCPQLoadI2),
		p0:   b.pairAt(t),
		p1:   b.pairAt(t[6:]),
		dc:   uint64(uint16(uint64(in.imm) >> 48)),
		c0:   t[12], off0: t[13],
		c1: t[14], off1: t[15],
		ai: b.arr2(in.c),
	}
}

func (o *jCPQAcc) exec(j *mach) bool {
	v0 := j.ireg[o.r0]
	v1 := j.ireg[o.r1]
	j.checks++
	if lhs := o.p0.c0 * v0; lhs > o.p0.k0 {
		j.trap(o.p0.cs0, lhs)
		return false
	}
	j.checks++
	if lhs := o.p0.c1 * v0; lhs > o.p0.k1 {
		j.trap(o.p0.cs1, lhs)
		return false
	}
	j.checks++
	if lhs := o.p1.c0 * v1; lhs > o.p1.k0 {
		j.trap(o.p1.cs0, lhs)
		return false
	}
	j.checks++
	if lhs := o.p1.c1 * v1; lhs > o.p1.k1 {
		j.trap(o.p1.cs1, lhs)
		return false
	}
	if o.dc != 0 && !j.charge(o.dc) {
		return false
	}
	i0 := o.c0*v0 + o.off0
	i1 := o.c1*v1 + o.off1
	if i0 < o.ai.lo0 || i0 > o.ai.hi0 {
		j.fault(interp.SubscriptError(i0, o.ai.name, o.ai.lo0, o.ai.hi0, 1))
		return false
	}
	if i1 < o.ai.lo1 || i1 > o.ai.hi1 {
		j.fault(interp.SubscriptError(i1, o.ai.name, o.ai.lo1, o.ai.hi1, 2))
		return false
	}
	cell := o.ai.baseAdj + i0*o.ai.size1 + i1
	switch o.acc {
	case jLoadI:
		j.ireg[o.areg] = j.icel[cell]
	case jLoadF:
		j.freg[o.areg] = j.fcel[cell]
	case jStoreI:
		j.icel[cell] = j.ireg[o.areg]
	default:
		j.fcel[cell] = j.freg[o.areg]
	}
	return true
}

// jBinStore1 is opBinStoreI1/opBinStoreF1: binop feeding an unchecked
// affine 1-D store.
type jBinStore1 struct {
	isInt       bool
	kind        int64
	srcL, srcR  int64
	idxReg      int32
	acoef, aoff int64
	ai          jdim1
}

func (b *jitBuilder) newBinStore1(in *instr) *jBinStore1 {
	t := b.vp.pool[in.b : in.b+5 : in.b+5]
	return &jBinStore1{
		isInt: in.op == opBinStoreI1,
		kind:  t[0], srcL: t[1], srcR: t[2],
		idxReg: in.a,
		acoef:  t[3], aoff: t[4],
		ai: b.arr1(in.c),
	}
}

func (o *jBinStore1) exec(j *mach) bool {
	idx := o.acoef*j.ireg[o.idxReg] + o.aoff
	if o.isInt {
		var v int64
		switch o.kind {
		case 0:
			v = j.ireg[o.srcL] + j.ireg[o.srcR]
		case 1:
			v = j.ireg[o.srcL] - j.ireg[o.srcR]
		default:
			v = j.ireg[o.srcL] * j.ireg[o.srcR]
		}
		if idx < o.ai.lo || idx > o.ai.hi {
			j.fault(interp.SubscriptError(idx, o.ai.name, o.ai.lo, o.ai.hi, 1))
			return false
		}
		j.icel[o.ai.baseAdj+idx] = v
	} else {
		var v float64
		switch o.kind {
		case 0:
			v = j.freg[o.srcL] + j.freg[o.srcR]
		case 1:
			v = j.freg[o.srcL] - j.freg[o.srcR]
		default:
			v = j.freg[o.srcL] * j.freg[o.srcR]
		}
		if idx < o.ai.lo || idx > o.ai.hi {
			j.fault(interp.SubscriptError(idx, o.ai.name, o.ai.lo, o.ai.hi, 1))
			return false
		}
		j.fcel[o.ai.baseAdj+idx] = v
	}
	return true
}

// fbin2 applies the folded side+kind code used by the value-chain
// fused opcodes (opBinBinF's second stage and the load+bin families):
// 0-3 v k s, 4-7 s k v, 8-11 v k v.
func fbin2(code int64, v, s float64) float64 {
	switch code {
	case 0:
		return v + s
	case 1:
		return v - s
	case 2:
		return v * s
	case 3:
		return v / s
	case 4:
		return s + v
	case 5:
		return s - v
	case 6:
		return s * v
	case 7:
		return s / v
	case 8:
		return v + v
	case 9:
		return v - v
	case 10:
		return v * v
	default:
		return v / v
	}
}

// fbin1 applies a plain 4-way float binop kind (0 add, 1 sub, 2 mul,
// 3 div).
func fbin1(kind int64, l, r float64) float64 {
	switch kind {
	case 0:
		return l + r
	case 1:
		return l - r
	case 2:
		return l * r
	default:
		return l / r
	}
}

// jBinBinF is opBinBinF: two chained float binops, pure.
type jBinBinF struct {
	dst    int32
	k0     int64
	rL, rR int64
	k1     int64
	rS     int64
}

func (b *jitBuilder) newBinBinF(in *instr) *jBinBinF {
	t := b.vp.pool[in.b : in.b+5 : in.b+5]
	return &jBinBinF{dst: in.a, k0: t[0], rL: t[1], rR: t[2], k1: t[3], rS: t[4]}
}

func (o *jBinBinF) exec(j *mach) {
	u := fbin1(o.k0, j.freg[o.rL], j.freg[o.rR])
	j.freg[o.dst] = fbin2(o.k1, u, j.freg[o.rS])
}

// jLoadBinF1 is opLoadBinF1: affine 1-D float load + binop with the
// binop's charge deferred past the load's fault.
type jLoadBinF1 struct {
	dst         int32
	sreg        int32
	acoef, aoff int64
	ai          jdim1
	dc          uint64
	k           int64
	rS          int64
}

func (b *jitBuilder) newLoadBinF1(in *instr) *jLoadBinF1 {
	t := b.vp.pool[in.b : in.b+4 : in.b+4]
	return &jLoadBinF1{
		dst:   in.a,
		sreg:  int32(uint64(in.imm) >> 32),
		acoef: t[0], aoff: t[1],
		ai: b.arr1(in.c),
		dc: uint64(uint32(in.imm)),
		k:  t[2], rS: t[3],
	}
}

func (o *jLoadBinF1) exec(j *mach) bool {
	idx := o.acoef*j.ireg[o.sreg] + o.aoff
	if idx < o.ai.lo || idx > o.ai.hi {
		j.fault(interp.SubscriptError(idx, o.ai.name, o.ai.lo, o.ai.hi, 1))
		return false
	}
	v := j.fcel[o.ai.baseAdj+idx]
	if o.dc != 0 && !j.charge(o.dc) {
		return false
	}
	j.freg[o.dst] = fbin2(o.k, v, j.freg[o.rS])
	return true
}

// jLLBinF1 is opLLBinF1: two affine 1-D float loads + binop, with the
// deferred charges between the loads' fault points.
type jLLBinF1 struct {
	dst      int32
	r0, r1   int32
	c0, off0 int64
	c1, off1 int64
	ai0, ai1 jdim1
	dc1, dc2 uint64
	k        int64
}

func (b *jitBuilder) newLLBinF1(in *instr) *jLLBinF1 {
	t := b.vp.pool[in.b : in.b+6 : in.b+6]
	u := uint64(in.imm)
	return &jLLBinF1{
		dst: in.a,
		r0:  int32(u >> 48), r1: int32((u >> 32) & 0xffff),
		c0: t[0], off0: t[1],
		c1: t[3], off1: t[4],
		ai0: b.arr1(in.c), ai1: b.arr1(int32(t[2])),
		dc1: (u >> 16) & 0xffff, dc2: u & 0xffff,
		k: t[5],
	}
}

func (o *jLLBinF1) exec(j *mach) bool {
	i0 := o.c0*j.ireg[o.r0] + o.off0
	if i0 < o.ai0.lo || i0 > o.ai0.hi {
		j.fault(interp.SubscriptError(i0, o.ai0.name, o.ai0.lo, o.ai0.hi, 1))
		return false
	}
	x := j.fcel[o.ai0.baseAdj+i0]
	if o.dc1 != 0 && !j.charge(o.dc1) {
		return false
	}
	i1 := o.c1*j.ireg[o.r1] + o.off1
	if i1 < o.ai1.lo || i1 > o.ai1.hi {
		j.fault(interp.SubscriptError(i1, o.ai1.name, o.ai1.lo, o.ai1.hi, 1))
		return false
	}
	y := j.fcel[o.ai1.baseAdj+i1]
	if o.dc2 != 0 && !j.charge(o.dc2) {
		return false
	}
	var r float64
	switch o.k {
	case 0:
		r = x + y
	case 1:
		r = x - y
	case 2:
		r = x * y
	case 3:
		r = x / y
	case 4:
		r = y + x
	case 5:
		r = y - x
	case 6:
		r = y * x
	default:
		r = y / x
	}
	j.freg[o.dst] = r
	return true
}

// jLoadBinF2 is opLoadBinF2: affine 2-D float load + binop.
type jLoadBinF2 struct {
	dst      int32
	r0, r1   int32
	c0, off0 int64
	c1, off1 int64
	ai       jdim2
	dc       uint64
	k        int64
	rS       int64
}

func (b *jitBuilder) newLoadBinF2(in *instr) *jLoadBinF2 {
	t := b.vp.pool[in.b : in.b+6 : in.b+6]
	u := uint64(in.imm)
	return &jLoadBinF2{
		dst: in.a,
		r0:  int32(u >> 48), r1: int32((u >> 32) & 0xffff),
		c0: t[0], off0: t[1],
		c1: t[2], off1: t[3],
		ai: b.arr2(in.c),
		dc: u & 0xffffffff,
		k:  t[4], rS: t[5],
	}
}

func (o *jLoadBinF2) exec(j *mach) bool {
	i0 := o.c0*j.ireg[o.r0] + o.off0
	if i0 < o.ai.lo0 || i0 > o.ai.hi0 {
		j.fault(interp.SubscriptError(i0, o.ai.name, o.ai.lo0, o.ai.hi0, 1))
		return false
	}
	i1 := o.c1*j.ireg[o.r1] + o.off1
	if i1 < o.ai.lo1 || i1 > o.ai.hi1 {
		j.fault(interp.SubscriptError(i1, o.ai.name, o.ai.lo1, o.ai.hi1, 2))
		return false
	}
	v := j.fcel[o.ai.baseAdj+i0*o.ai.size1+i1]
	if o.dc != 0 && !j.charge(o.dc) {
		return false
	}
	j.freg[o.dst] = fbin2(o.k, v, j.freg[o.rS])
	return true
}

// jBinStoreF2 is opBinStoreF2: binop + unchecked affine 2-D store.
type jBinStoreF2 struct {
	kind       int64
	srcL, srcR int64
	r0, r1     int32
	c0, off0   int64
	c1, off1   int64
	ai         jdim2
}

func (b *jitBuilder) newBinStoreF2(in *instr) *jBinStoreF2 {
	t := b.vp.pool[in.b : in.b+7 : in.b+7]
	return &jBinStoreF2{
		kind: t[0], srcL: t[1], srcR: t[2],
		r0: int32(uint64(in.imm) >> 32), r1: int32(uint32(in.imm)),
		c0: t[3], off0: t[4],
		c1: t[5], off1: t[6],
		ai: b.arr2(in.c),
	}
}

func (o *jBinStoreF2) exec(j *mach) bool {
	v := fbin1(o.kind, j.freg[o.srcL], j.freg[o.srcR])
	i0 := o.c0*j.ireg[o.r0] + o.off0
	if i0 < o.ai.lo0 || i0 > o.ai.hi0 {
		j.fault(interp.SubscriptError(i0, o.ai.name, o.ai.lo0, o.ai.hi0, 1))
		return false
	}
	i1 := o.c1*j.ireg[o.r1] + o.off1
	if i1 < o.ai.lo1 || i1 > o.ai.hi1 {
		j.fault(interp.SubscriptError(i1, o.ai.name, o.ai.lo1, o.ai.hi1, 2))
		return false
	}
	j.fcel[o.ai.baseAdj+i0*o.ai.size1+i1] = v
	return true
}

// jBinBinStoreF1 is opBinBinStoreF1: two chained binops + unchecked
// affine 1-D store.
type jBinBinStoreF1 struct {
	k0          int64
	rL, rR      int64
	k1          int64
	rS          int64
	idxReg      int32
	acoef, aoff int64
	ai          jdim1
}

func (b *jitBuilder) newBinBinStoreF1(in *instr) *jBinBinStoreF1 {
	t := b.vp.pool[in.b : in.b+7 : in.b+7]
	return &jBinBinStoreF1{
		k0: t[0], rL: t[1], rR: t[2],
		k1: t[3], rS: t[4],
		idxReg: in.a,
		acoef:  t[5], aoff: t[6],
		ai: b.arr1(in.c),
	}
}

func (o *jBinBinStoreF1) exec(j *mach) bool {
	u := fbin1(o.k0, j.freg[o.rL], j.freg[o.rR])
	v := fbin2(o.k1, u, j.freg[o.rS])
	idx := o.acoef*j.ireg[o.idxReg] + o.aoff
	if idx < o.ai.lo || idx > o.ai.hi {
		j.fault(interp.SubscriptError(idx, o.ai.name, o.ai.lo, o.ai.hi, 1))
		return false
	}
	j.fcel[o.ai.baseAdj+idx] = v
	return true
}

// jBinBinStoreF2 is opBinBinStoreF2: two chained binops + unchecked
// affine 2-D store.
type jBinBinStoreF2 struct {
	k0       int64
	rL, rR   int64
	k1       int64
	rS       int64
	r0, r1   int32
	c0, off0 int64
	c1, off1 int64
	ai       jdim2
}

func (b *jitBuilder) newBinBinStoreF2(in *instr) *jBinBinStoreF2 {
	t := b.vp.pool[in.b : in.b+9 : in.b+9]
	return &jBinBinStoreF2{
		k0: t[0], rL: t[1], rR: t[2],
		k1: t[3], rS: t[4],
		r0: int32(uint64(in.imm) >> 32), r1: int32(uint32(in.imm)),
		c0: t[5], off0: t[6],
		c1: t[7], off1: t[8],
		ai: b.arr2(in.c),
	}
}

func (o *jBinBinStoreF2) exec(j *mach) bool {
	u := fbin1(o.k0, j.freg[o.rL], j.freg[o.rR])
	v := fbin2(o.k1, u, j.freg[o.rS])
	i0 := o.c0*j.ireg[o.r0] + o.off0
	if i0 < o.ai.lo0 || i0 > o.ai.hi0 {
		j.fault(interp.SubscriptError(i0, o.ai.name, o.ai.lo0, o.ai.hi0, 1))
		return false
	}
	i1 := o.c1*j.ireg[o.r1] + o.off1
	if i1 < o.ai.lo1 || i1 > o.ai.hi1 {
		j.fault(interp.SubscriptError(i1, o.ai.name, o.ai.lo1, o.ai.hi1, 2))
		return false
	}
	j.fcel[o.ai.baseAdj+i0*o.ai.size1+i1] = v
	return true
}
