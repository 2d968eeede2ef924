// Bytecode optimizer: a post-compile pipeline that rewrites the flat
// register bytecode produced by Compile into fewer, fatter
// instructions. Every bytecode engine name (vmopt, vmrce, vmjit)
// selects it, and it must preserve the reference engine's observable
// contract bit for bit — identical dynamic instruction and check
// counters at every exit (including traps and faults), identical trap
// notes/classes/positions, identical output, and identical budget/poll
// cadence wherever that cadence is observable.
//
// Passes, in order (see DESIGN.md "Bytecode optimizer"):
//
//  1. Copy propagation + constant folding over the flat register file
//     (per basic block; invalidated at leaders and calls).
//  2. Dead-register/dead-store elimination from one backward liveness
//     sweep per function. A removed instruction's cost folds forward
//     into the next surviving instruction so the counter advances by
//     the same deltas; folding never crosses a branch target.
//  3. Superinstruction fusion (fuse.go): check+access, check runs,
//     2-D addressing chains, float value chains, and
//     increment+branch, visited in loop-nest-weighted order so the
//     hottest blocks fuse first.
//  4. Physical compaction with pc remapping.
//
// Frame reuse (the machine cache in exec.go) is the fourth
// layer of the ISSUE's pipeline; it lives with the executor because it
// also serves unoptimized programs.
package vm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
)

// DispatchStats is the wall-clock-free proxy for the optimizer's win:
// static code size plus the number of dispatch-loop iterations one run
// performed, per opcode. Both are deterministic functions of (program,
// config), so CI can pin "optimized dispatch <= fraction of naive
// dispatch" without timing flakiness.
type DispatchStats struct {
	Static     int            // instructions in the compiled program
	Dispatched uint64         // dynamic dispatch-loop iterations
	ByOp       [numOps]uint64 // Dispatched, split by opcode
}

func (s *DispatchStats) count(op uint8) {
	s.Dispatched++
	s.ByOp[op]++
}

// CheckStats is a shim kept for the benchmark module: the VM evaluates
// every check it counts, so Executed always equals Counted.
type CheckStats struct {
	Counted  uint64 // dynamic checks the observable counter recorded
	Executed uint64 // checks evaluated at run time; equals Counted
}

// RunCheckStats is a shim kept for the benchmark module: Run, with the
// check counter reported as CheckStats.
func (p *Program) RunCheckStats(cfg interp.Config) (interp.Result, CheckStats, error) {
	res, err := p.Run(cfg)
	return res, CheckStats{Counted: res.Checks, Executed: res.Checks}, err
}

// String renders the totals and the hottest opcodes, for -trace style
// debugging and EXPERIMENTS.md tables.
func (s *DispatchStats) String() string {
	type kv struct {
		op uint8
		n  uint64
	}
	var hot []kv
	for op, n := range s.ByOp {
		if n > 0 {
			hot = append(hot, kv{uint8(op), n})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].op < hot[j].op
	})
	var b strings.Builder
	fmt.Fprintf(&b, "static=%d dispatched=%d", s.Static, s.Dispatched)
	for i, e := range hot {
		if i == 8 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " %s=%d", OpName(e.op), e.n)
	}
	return b.String()
}

// CompileOptimized is Compile followed by Optimize. An optimizer
// failure (a contained panic surfacing as *guard.InternalError)
// degrades to the unoptimized program rather than failing the run —
// the same degrade-don't-fail posture as the IR optimizer — so a vmopt
// run never fails where the plain Compile output would run. Optimizer
// correctness is pinned directly by opt_test.go, which calls Optimize
// and fails loudly.
//
// The program is optimized where it was compiled, in the scratch, so
// only the optimized program is ever allocated. A failed optimization
// leaves it half rewritten; it is compiled again and kept unoptimized.
func CompileOptimized(p *ir.Program) (*Program, error) {
	s := scratches.get()
	if err := s.compile(p); err != nil {
		return nil, err
	}
	if s.o.optimize(&s.c.prog) != nil {
		if err := s.compile(p); err != nil {
			return nil, err
		}
	}
	vp := s.keep()
	s.release()
	return vp, nil
}

// Optimize rewrites a freshly compiled program (it must not already be
// optimized) into an equivalent one with fewer dispatches. The input
// is not modified; the two programs share the immutable IR, check, and
// trap tables. Like Compile, it never panics: internal invariant
// violations surface as a stage-tagged *guard.InternalError.
func Optimize(vp *Program) (*Program, error) {
	if vp == nil {
		return nil, fmt.Errorf("vm: no program")
	}
	if vp.optimized {
		return nil, fmt.Errorf("vm: program already optimized")
	}
	s := scratches.get()
	// The optimizer rewrites code, pool and function entries in place:
	// code and pool are copied into the scratch's buffers, the function
	// table into the output's own.
	work := *vp
	work.code = append(s.c.prog.code[:0], vp.code...)
	work.pool = append(s.c.prog.pool[:0], vp.pool...)
	work.funcs = slices.Clone(vp.funcs)
	if err := s.o.optimize(&work); err != nil {
		return nil, err
	}
	out := work
	out.code = slices.Clone(work.code)
	out.pool = slices.Clone(work.pool)
	s.c.prog.code, s.c.prog.pool = work.code[:0], work.pool[:0]
	s.release()
	return &out, nil
}

// optimizer is the optimizer's working state. It lives in a scratch:
// every table below is resliced for each program and reused.
type optimizer struct {
	in *Program // the program being optimized, rewritten in place

	code []Instr // in.code, rewritten in place
	pool []int64 // in.pool; fusion appends tuples

	leader []bool  // pc starts a basic block (branch target / entry)
	depth  []int   // loop-nest depth per pc (back-edge intervals)
	blocks []block // leader-delimited, sorted by start

	// Liveness artifacts. Registers are numbered int file first, then
	// float file shifted by nIntRegs; liveOut[i] is the set live
	// immediately after instruction i. Every bitset is carved from
	// slab.
	liveOut []bitset
	liveIn  []bitset
	blockOf []int
	slab    []uint64
	carved  int // slab words handed out
	dead    []bool

	// Walk scratch for affineOf (fuse.go).
	tUsed, tDefd bitset

	// Propagation tables (propagate).
	copyOf    []int32
	known     []bool
	val       []int64
	constSlot map[int64]int32

	// Fusion scratch (fuse.go).
	order   []int
	entries []int64

	newIdx []int32 // compact's pc remap

	nInt   int32 // in.nIntRegs
	nVars  int32
	nConst int32 // len(iconsts); int scratch starts at nVars+nConst
}

type block struct {
	start, end int32 // [start, end)
	depth      int
}

// optimize rewrites vp in place: its code, pool and function entries
// change, the rest is read. On error vp is left half rewritten.
func (o *optimizer) optimize(vp *Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.InternalError{Stage: "vm-opt", Recovered: r}
		}
	}()
	o.in, o.code, o.pool = vp, vp.code, vp.pool
	o.nInt = int32(vp.nIntRegs)
	o.nVars = int32(vp.numVars)
	o.nConst = int32(len(vp.iconsts))
	o.analyze()
	o.propagate()
	o.liveness()
	o.eliminate()
	o.fuse()
	o.compact()
	vp.code, vp.pool, vp.optimized = o.code, o.pool, true
	return nil
}

// ---------------------------------------------------------------------------
// Analysis: leaders, blocks, loop depth

func (o *optimizer) analyze() {
	n := len(o.code)
	o.leader = fit(o.leader, n+1)
	o.depth = fit(o.depth, n)
	o.blocks = o.blocks[:0]
	for _, f := range o.in.funcs {
		if int(f.Entry) < n {
			o.leader[f.Entry] = true
		}
	}
	mark := func(t int32) {
		if int(t) <= n {
			o.leader[t] = true
		}
	}
	for i := range o.code {
		in := &o.code[i]
		switch {
		case in.Op == opJmp:
			mark(in.A)
		case in.Op == opBr:
			mark(in.A)
			mark(in.B)
		case in.Op >= opBrEqI && in.Op <= opBrGeF:
			mark(in.A)
			mark(int32(in.Imm))
		}
	}
	// Loop depth: every backward control transfer closes an interval
	// [target, branch]; an instruction's depth is how many intervals
	// contain it. The do-loop shape (latch Goto -> header) makes the
	// interval exactly the loop body plus header.
	bump := func(from int, to int32) {
		if int(to) <= from {
			for pc := int(to); pc <= from; pc++ {
				o.depth[pc]++
			}
		}
	}
	for i := range o.code {
		in := &o.code[i]
		switch {
		case in.Op == opJmp:
			bump(i, in.A)
		case in.Op == opBr:
			bump(i, in.A)
			bump(i, in.B)
		case in.Op >= opBrEqI && in.Op <= opBrGeF:
			bump(i, in.A)
			bump(i, int32(in.Imm))
		}
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && !o.leader[end] {
			end++
		}
		o.blocks = append(o.blocks, block{start: int32(start), end: int32(end), depth: o.depth[start]})
		start = end
	}
}

// ---------------------------------------------------------------------------
// Register use/def enumeration
//
// Registers are addressed as one combined space: int register r is bit
// r, float register r is bit nInt+r. The tables below cover every
// opcode Compile emits; fusion runs after all analysis, so fused
// opcodes never reach them.

func (o *optimizer) ibit(r int32) int32 { return r }
func (o *optimizer) fbit(r int32) int32 { return o.nInt + r }

// instrUses calls f with the combined-space bit of every register the
// instruction reads. useAll reports instructions whose reads cannot be
// enumerated (calls: the callee shares the flat register file).
func (o *optimizer) instrUses(in *Instr, f func(bit int32)) (useAll bool) {
	switch in.Op {
	case opMovI, opNegI, opAbsI:
		f(o.ibit(in.B))
	case opMovF, opNegF, opAbsF, opSqrtF:
		f(o.fbit(in.B))
	case opAddI, opSubI, opMulI, opDivI, opModI, opAndB, opOrB,
		opEqI, opNeI, opLtI, opLeI, opGtI, opGeI:
		f(o.ibit(in.B))
		f(o.ibit(in.C))
	case opNotB:
		f(o.ibit(in.B))
	case opAddF, opSubF, opMulF, opDivF, opModF,
		opEqF, opNeF, opLtF, opLeF, opGtF, opGeF:
		f(o.fbit(in.B))
		f(o.fbit(in.C))
	case opMinI, opMaxI:
		for k := int32(0); k < in.C; k++ {
			f(o.ibit(int32(o.pool[in.B+k])))
		}
	case opMinF, opMaxF:
		for k := int32(0); k < in.C; k++ {
			f(o.fbit(int32(o.pool[in.B+k])))
		}
	case opI2F:
		f(o.ibit(in.B))
	case opF2I:
		f(o.fbit(in.B))
	case opLoadI1, opLoadF1:
		f(o.ibit(in.B))
	case opStoreI1:
		f(o.ibit(in.A))
		f(o.ibit(in.B))
	case opStoreF1:
		f(o.fbit(in.A))
		f(o.ibit(in.B))
	case opLoadI2, opLoadF2:
		f(o.ibit(int32(uint64(in.Imm) >> 32)))
		f(o.ibit(int32(uint32(in.Imm))))
	case opStoreI2:
		f(o.ibit(in.A))
		f(o.ibit(int32(uint64(in.Imm) >> 32)))
		f(o.ibit(int32(uint32(in.Imm))))
	case opStoreF2:
		f(o.fbit(in.A))
		f(o.ibit(int32(uint64(in.Imm) >> 32)))
		f(o.ibit(int32(uint32(in.Imm))))
	case opLoadI, opLoadF, opStoreI, opStoreF:
		nd := len(o.in.arrays[in.C].Dims)
		for k := 0; k < nd; k++ {
			f(o.ibit(int32(o.pool[in.B+int32(k)])))
		}
		if in.Op == opStoreI {
			f(o.ibit(in.A))
		} else if in.Op == opStoreF {
			f(o.fbit(in.A))
		}
	case opCheck:
		for k := int32(0); k < in.B; k++ {
			f(o.ibit(int32(o.pool[in.A+2*k+1])))
		}
	case opCheck1, opCheckPair:
		f(o.ibit(in.A))
	case opCheck2:
		f(o.ibit(int32(o.pool[in.A+1])))
		f(o.ibit(int32(o.pool[in.A+3])))
	case opBr:
		f(o.ibit(in.C))
	case opBrEqI, opBrNeI, opBrLtI, opBrLeI, opBrGtI, opBrGeI:
		f(o.ibit(in.B))
		f(o.ibit(in.C))
	case opBrEqF, opBrNeF, opBrLtF, opBrLeF, opBrGtF, opBrGeF:
		f(o.fbit(in.B))
		f(o.fbit(in.C))
	case opPrint:
		for k := int32(0); k < in.B; k++ {
			e := o.pool[in.A+k]
			if e&1 != 0 {
				f(o.fbit(int32(e >> 1)))
			} else {
				f(o.ibit(int32(e >> 1)))
			}
		}
	case opCall:
		return true
	}
	return false
}

// instrDef returns the combined-space bit the instruction writes, or
// -1. Calls are handled as use-all (never as a def site).
func (o *optimizer) instrDef(in *Instr) int32 {
	switch in.Op {
	case opMovI, opAddI, opSubI, opMulI, opDivI, opNegI,
		opEqI, opNeI, opLtI, opLeI, opGtI, opGeI,
		opEqF, opNeF, opLtF, opLeF, opGtF, opGeF,
		opAndB, opOrB, opNotB, opModI, opAbsI, opMinI, opMaxI, opF2I,
		opLoadI, opLoadI1, opLoadI2:
		return o.ibit(in.A)
	case opMovF, opAddF, opSubF, opMulF, opDivF, opNegF,
		opModF, opAbsF, opSqrtF, opMinF, opMaxF, opI2F,
		opLoadF, opLoadF1, opLoadF2:
		return o.fbit(in.A)
	}
	return -1
}

// instrPure reports whether the instruction's only effect is its def:
// no fault, no trap, no I/O, no control transfer. Only pure
// instructions are candidates for dead-code elimination — a dead
// opDivI must stay because its divisor may be zero, and loads must
// stay because their subscript may be out of bounds.
func instrPure(op uint8) bool {
	switch op {
	case opMovI, opMovF, opAddI, opSubI, opMulI, opNegI,
		opAddF, opSubF, opMulF, opDivF, opNegF,
		opEqI, opNeI, opLtI, opLeI, opGtI, opGeI,
		opEqF, opNeF, opLtF, opLeF, opGtF, opGeF,
		opAndB, opOrB, opNotB, opAbsI, opMinI, opMaxI,
		opModF, opAbsF, opSqrtF, opMinF, opMaxF, opI2F, opF2I:
		return true
	}
	return false
}

// succs calls f with each static control successor of instruction i.
// Trap/fail/ret exits have none; a check's trap exit is not a CFG edge
// (execution ends there, so nothing is live along it).
func (o *optimizer) succs(i int, f func(pc int32)) {
	in := &o.code[i]
	switch {
	case in.Op == opJmp:
		f(in.A)
	case in.Op == opBr:
		f(in.A)
		f(in.B)
	case in.Op >= opBrEqI && in.Op <= opBrGeF:
		f(in.A)
		f(int32(in.Imm))
	case in.Op == opRet, in.Op == opFail, in.Op == opTrapStmt:
	default:
		f(int32(i) + 1)
	}
}

// ---------------------------------------------------------------------------
// Pass 1: copy propagation + constant folding

// propagate rewrites register operands through known copies and folds
// pure integer arithmetic whose operands are all known constants into
// moves from the constant pool. Tracking is per basic block and resets
// at calls (the callee shares the register file). Only constants
// already in the pool are materialized — folding never grows the
// register file.
func (o *optimizer) propagate() {
	nTot := o.nInt + int32(o.in.nFloatRegs)
	o.copyOf = fit(o.copyOf, int(nTot)) // combined-space bit -> equivalent bit, or -1
	o.known = fit(o.known, int(o.nInt)) // int regs only
	o.val = fit(o.val, int(o.nInt))
	if o.constSlot == nil {
		o.constSlot = make(map[int64]int32)
	}
	clear(o.constSlot)
	copyOf, known, val, iconstIdx := o.copyOf, o.known, o.val, o.constSlot
	for i, v := range o.in.iconsts {
		if _, ok := iconstIdx[v]; !ok {
			iconstIdx[v] = o.nVars + int32(i)
		}
	}
	reset := func() {
		for i := range copyOf {
			copyOf[i] = -1
		}
		for i := range known {
			known[i] = false
		}
	}
	kill := func(bit int32) {
		copyOf[bit] = -1
		for r := range copyOf {
			if copyOf[r] == bit {
				copyOf[r] = -1
			}
		}
		if bit < o.nInt {
			known[bit] = false
		}
	}
	// resolveI maps an int register through the copy table and reports
	// its constant value when known. Constant-pool slots are constants
	// by construction.
	resolveI := func(r int32) (int32, int64, bool) {
		if c := copyOf[o.ibit(r)]; c >= 0 && c < o.nInt {
			r = c
		}
		if r >= o.nVars && r < o.nVars+o.nConst {
			return r, o.in.iconsts[r-o.nVars], true
		}
		if known[r] {
			return r, val[r], true
		}
		return r, 0, false
	}
	resolveF := func(r int32) int32 {
		if c := copyOf[o.fbit(r)]; c >= o.nInt {
			return c - o.nInt
		}
		return r
	}

	reset()
	for i := range o.code {
		if o.leader[i] {
			reset()
		}
		in := &o.code[i]
		switch in.Op {
		case opMovI:
			src, v, isConst := resolveI(in.B)
			in.B = src
			if in.A == in.B {
				// A self-move is a pure cost carrier; turn it into a nop
				// so elimination can fold the cost forward.
				*in = Instr{Op: opNop, Cost: in.Cost}
				continue
			}
			kill(o.ibit(in.A))
			if isConst {
				known[in.A] = true
				val[in.A] = v
			}
			copyOf[o.ibit(in.A)] = o.ibit(in.B)
		case opMovF:
			in.B = resolveF(in.B)
			if in.A == in.B {
				*in = Instr{Op: opNop, Cost: in.Cost}
				continue
			}
			kill(o.fbit(in.A))
			copyOf[o.fbit(in.A)] = o.fbit(in.B)
		case opAddI, opSubI, opMulI:
			br, bv, bk := resolveI(in.B)
			cr, cv, ck := resolveI(in.C)
			in.B, in.C = br, cr
			kill(o.ibit(in.A))
			if bk && ck {
				var v int64
				switch in.Op {
				case opAddI:
					v = bv + cv
				case opSubI:
					v = bv - cv
				default:
					v = bv * cv
				}
				known[in.A] = true
				val[in.A] = v
				if slot, ok := iconstIdx[v]; ok {
					*in = Instr{Op: opMovI, A: in.A, B: slot, Cost: in.Cost}
					copyOf[o.ibit(in.A)] = o.ibit(slot)
				}
			}
		case opNegI:
			br, bv, bk := resolveI(in.B)
			in.B = br
			kill(o.ibit(in.A))
			if bk {
				known[in.A] = true
				val[in.A] = -bv
				if slot, ok := iconstIdx[-bv]; ok {
					*in = Instr{Op: opMovI, A: in.A, B: slot, Cost: in.Cost}
					copyOf[o.ibit(in.A)] = o.ibit(slot)
				}
			}
		case opDivI, opModI, opAndB, opOrB,
			opEqI, opNeI, opLtI, opLeI, opGtI, opGeI:
			in.B, _, _ = resolveI(in.B)
			in.C, _, _ = resolveI(in.C)
			kill(o.ibit(in.A))
		case opNotB, opAbsI:
			in.B, _, _ = resolveI(in.B)
			kill(o.ibit(in.A))
		case opEqF, opNeF, opLtF, opLeF, opGtF, opGeF:
			in.B = resolveF(in.B)
			in.C = resolveF(in.C)
			kill(o.ibit(in.A))
		case opAddF, opSubF, opMulF, opDivF, opModF:
			in.B = resolveF(in.B)
			in.C = resolveF(in.C)
			kill(o.fbit(in.A))
		case opNegF, opAbsF, opSqrtF:
			in.B = resolveF(in.B)
			kill(o.fbit(in.A))
		case opI2F:
			in.B, _, _ = resolveI(in.B)
			kill(o.fbit(in.A))
		case opF2I:
			in.B = resolveF(in.B)
			kill(o.ibit(in.A))
		case opLoadI1, opLoadF1:
			in.B, _, _ = resolveI(in.B)
			if in.Op == opLoadI1 {
				kill(o.ibit(in.A))
			} else {
				kill(o.fbit(in.A))
			}
		case opStoreI1:
			in.A, _, _ = resolveI(in.A)
			in.B, _, _ = resolveI(in.B)
		case opStoreF1:
			in.A = resolveF(in.A)
			in.B, _, _ = resolveI(in.B)
		case opCheck1, opCheckPair:
			in.A, _, _ = resolveI(in.A)
		case opBr:
			in.C, _, _ = resolveI(in.C)
		case opBrEqI, opBrNeI, opBrLtI, opBrLeI, opBrGtI, opBrGeI:
			in.B, _, _ = resolveI(in.B)
			in.C, _, _ = resolveI(in.C)
		case opBrEqF, opBrNeF, opBrLtF, opBrLeF, opBrGtF, opBrGeF:
			in.B = resolveF(in.B)
			in.C = resolveF(in.C)
		case opCall:
			reset()
		default:
			// Pool-addressed operands (min/max, N-D accesses, print,
			// multi-term checks) are left as compiled; any def they have
			// still invalidates tracking.
			if d := o.instrDef(in); d >= 0 {
				kill(d)
			}
			if in.Op == opLoadI2 || in.Op == opLoadF2 || in.Op == opStoreI2 || in.Op == opStoreF2 {
				r0, _, _ := resolveI(int32(uint64(in.Imm) >> 32))
				r1, _, _ := resolveI(int32(uint32(in.Imm)))
				in.Imm = packRegs(r0, r1)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Pass 2: liveness + dead-store elimination

type bitset []uint64

// carveBitsets sizes the slab for every bitset of one program over
// nTot registers — liveIn per block, liveOut per instruction, and
// four more for liveness and affineOf — and hands out the per-block
// and per-instruction sets. newBitset hands out the rest.
func (o *optimizer) carveBitsets(nTot int32) {
	w := int((nTot + 63) / 64)
	n, nb := len(o.code), len(o.blocks)
	o.slab = fit(o.slab, (n+nb+4)*w)
	o.carved = 0
	o.liveOut = fit(o.liveOut, n)
	for i := range o.liveOut {
		o.liveOut[i] = o.newBitset()
	}
	o.liveIn = fit(o.liveIn, nb)
	for i := range o.liveIn {
		o.liveIn[i] = o.newBitset()
	}
	o.blockOf = fit(o.blockOf, n)
	o.tUsed, o.tDefd = o.newBitset(), o.newBitset()
}

// newBitset carves the next zeroed set from the slab; carveBitsets
// has sized the slab for every set it hands out.
func (o *optimizer) newBitset() bitset {
	w := int((o.nInt+int32(o.in.nFloatRegs))+63) / 64
	b := bitset(o.slab[o.carved : o.carved+w : o.carved+w])
	o.carved += w
	return b
}

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) orInto(src bitset) (changed bool) {
	for i, w := range src {
		if nw := b[i] | w; nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(src bitset) { copy(b, src) }

func (b bitset) setAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b bitset) clearAll() {
	for i := range b {
		b[i] = 0
	}
}

// liveness runs the backward dataflow to a fixpoint and records the
// live-out set of every instruction (fusion consults it to prove a
// scratch def dies with its consumer).
func (o *optimizer) liveness() {
	nTot := o.nInt + int32(o.in.nFloatRegs)
	n := len(o.code)
	o.carveBitsets(nTot)
	liveIn, blockOf := o.liveIn, o.blockOf
	for bi, b := range o.blocks {
		for pc := b.start; pc < b.end; pc++ {
			blockOf[pc] = bi
		}
	}
	varsLive, tmp := o.newBitset(), o.newBitset()
	for r := int32(0); r < o.nVars; r++ {
		varsLive.set(o.ibit(r))
		varsLive.set(o.fbit(r))
	}

	// transfer applies block bi backward starting from out; the final
	// value is the block's live-in. When record is true the per-
	// instruction live-out sets are stored.
	transfer := func(bi int, out bitset, record bool) {
		b := o.blocks[bi]
		for pc := b.end - 1; pc >= b.start; pc-- {
			in := &o.code[pc]
			if in.Op == opRet {
				// Control returns to an unknown caller; every program
				// variable may be read there.
				out.orInto(varsLive)
			}
			if record {
				o.liveOut[pc].copyFrom(out)
			}
			if useAll := o.instrUses(in, func(bit int32) {}); useAll {
				out.setAll()
				continue
			}
			if d := o.instrDef(in); d >= 0 {
				out.clear(d)
			}
			o.instrUses(in, func(bit int32) { out.set(bit) })
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := len(o.blocks) - 1; bi >= 0; bi-- {
			tmp.clearAll()
			o.succs(int(o.blocks[bi].end-1), func(pc int32) {
				if int(pc) < n {
					tmp.orInto(liveIn[blockOf[pc]])
				}
			})
			transfer(bi, tmp, false)
			if liveIn[bi].orInto(tmp) {
				changed = true
			}
		}
	}
	for bi := range o.blocks {
		tmp.clearAll()
		o.succs(int(o.blocks[bi].end-1), func(pc int32) {
			if int(pc) < n {
				tmp.orInto(liveIn[blockOf[pc]])
			}
		})
		transfer(bi, tmp, true)
	}
}

// eliminate marks pure instructions whose def is dead, plus nops. A
// marked instruction's cost must fold forward into the next surviving
// instruction; if a branch target lies between them, another path
// reaches the fold point without executing the dead instruction, so
// the mark is dropped. Marks are processed right to left so a dropped
// mark downstream is seen by candidates upstream.
func (o *optimizer) eliminate() {
	n := len(o.code)
	o.dead = fit(o.dead, n)
	for i := 0; i < n; i++ {
		in := &o.code[i]
		if in.Op == opNop {
			o.dead[i] = true
			continue
		}
		if !instrPure(in.Op) {
			continue
		}
		if d := o.instrDef(in); d >= 0 && !o.liveOut[i].has(d) {
			o.dead[i] = true
		}
	}
	for i := n - 1; i >= 0; i-- {
		if !o.dead[i] {
			continue
		}
		// Find the fold target and check the span for leaders and for
		// cost-field overflow.
		sum := uint32(o.code[i].Cost)
		ok := true
		j := i + 1
		for ; j < n; j++ {
			if o.leader[j] {
				ok = false
				break
			}
			if !o.dead[j] {
				break
			}
			sum += uint32(o.code[j].Cost)
		}
		if j >= n {
			ok = false // nothing to fold into (cannot happen: terminators survive)
		}
		if ok && sum+uint32(o.code[j].Cost) > 0xffff {
			ok = false
		}
		// Zero-cost dead instructions need no fold target: removal is
		// pure compaction (fall-through adjacency is preserved and
		// branch targets remap to the next survivor).
		if !ok && o.code[i].Cost != 0 {
			o.dead[i] = false
		}
	}
	// A fully dead block cannot arise: terminators are never pure, so
	// every block keeps at least its last instruction.
}

// ---------------------------------------------------------------------------
// Pass 4: compaction + pc remap

func (o *optimizer) compact() {
	n := len(o.code)
	o.newIdx = fit(o.newIdx, n+1)
	newIdx := o.newIdx
	// Survivors move down in place: instruction i lands at or before i,
	// after every earlier instruction has been read.
	out := o.code[:0]
	pending := uint32(0)
	for i := 0; i < n; i++ {
		newIdx[i] = int32(len(out))
		if o.dead[i] {
			pending += uint32(o.code[i].Cost)
			continue
		}
		in := o.code[i]
		if pending != 0 {
			// The folded cost belongs to instructions that executed
			// before this one; charging it here, centrally and before
			// the opcode body, advances the counter at the same point.
			sum := uint32(in.Cost) + pending
			if sum > maxCost {
				panic("vm-opt: folded cost overflows the cost field")
			}
			in.Cost = uint16(sum)
			pending = 0
		}
		out = append(out, in)
	}
	newIdx[n] = int32(len(out))
	if pending != 0 {
		panic("vm-opt: dangling folded cost at end of code")
	}
	for i := range out {
		in := &out[i]
		switch {
		case in.Op == opJmp || in.Op == opAddJmp:
			in.A = newIdx[in.A]
		case in.Op == opBr:
			in.A = newIdx[in.A]
			in.B = newIdx[in.B]
		case in.Op >= opBrEqI && in.Op <= opBrGeF:
			in.A = newIdx[in.A]
			in.Imm = int64(newIdx[in.Imm])
		case in.Op >= opIncBrEqI && in.Op <= opIncBrGeI:
			in.A = newIdx[in.A]
			fpc := newIdx[int32(uint64(in.Imm)>>32)]
			in.Imm = int64(fpc)<<32 | int64(uint32(in.Imm))
		}
	}
	for i := range o.in.funcs {
		o.in.funcs[i].Entry = newIdx[o.in.funcs[i].Entry]
	}
	o.code = out
}
