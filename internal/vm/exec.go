package vm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/source"
)

type frame struct {
	ret int32 // return pc
	fn  int32 // caller's Func.Index
}

// mach is the mutable state of one run of the switch loop. Programs
// are immutable, so one compiled Program serves any number of
// concurrent machines. Machines recycle through one process-wide
// cache: later runs of any program (bench -times, oracle sweeps,
// evalpool, a program just decoded from disk) reuse the register files
// and array slabs instead of reallocating them.
type mach struct {
	p      *Program
	cfg    interp.Config
	ireg   []int64
	freg   []float64
	icel   []int64 // one flat slab for every int array
	fcel   []float64
	active []bool
	frames []frame
	fn     int32
	out    []byte
	disp   *DispatchStats

	// costThr is the run's first cost threshold. getMach computes it:
	// a call to Config.FirstThreshold inside run, which is too large
	// for the inliner to take the call in, makes the compiler keep
	// run's hot locals on the stack (about 12% more spill code).
	costThr uint64

	// How the run stopped, when it stopped on a trap.
	trapped   bool
	trapNote  string
	trapClass interp.TrapClass
	trapPos   source.Pos
}

// Run executes the compiled program from main. It implements exactly
// the reference engine's contract: same counters, output, traps, and
// budget errors (see the package comment for the identity argument).
func (vp *Program) Run(cfg interp.Config) (interp.Result, error) {
	return vp.run(cfg, nil)
}

// RunDispatch is Run with dispatch accounting: the returned stats
// count the dispatch-loop iterations the run performed per opcode, the
// deterministic proxy CI pins instead of wall clock.
func (vp *Program) RunDispatch(cfg interp.Config) (interp.Result, DispatchStats, error) {
	ds := DispatchStats{Static: len(vp.code)}
	res, err := vp.run(cfg, &ds)
	return res, ds, err
}

// Optimized reports whether this program went through Optimize.
func (vp *Program) Optimized() bool { return vp.optimized }

// run is the prologue of every run. It applies the limit defaults,
// charges the cell budget in the reference engine's array order (so
// the same array trips it), takes a reset machine, and contains panics
// the way the tree walker does. Then it runs the switch loop.
func (vp *Program) run(cfg interp.Config, disp *DispatchStats) (res interp.Result, err error) {
	cfg = cfg.WithDefaults()
	cells := int64(0)
	for _, id := range vp.arrOrder {
		ar := &vp.arrays[id]
		if ar.Length < 0 {
			return interp.Result{}, fmt.Errorf("interp: array %s has invalid extent", ar.Name)
		}
		cells += ar.Length
		if cells > cfg.MaxArrayCells {
			return interp.Result{}, &interp.ResourceError{Resource: interp.ResArrayCells, Limit: uint64(cfg.MaxArrayCells)}
		}
	}

	m := vp.getMach(cfg, disp)

	defer func() {
		if r := recover(); r != nil {
			fnName := ""
			if int(m.fn) < len(vp.funcs) {
				fnName = vp.funcs[m.fn].Name
			}
			// Stage "run" matches the tree-walker's containment tag: the
			// engines share one observable contract, including how their
			// contained panics are labeled. The machine is not returned
			// to the cache: a panic may have interrupted it anywhere.
			res = interp.Result{Output: string(m.out)}
			err = &guard.InternalError{Stage: "run", Fn: fnName, Recovered: r}
		}
	}()

	res, err = m.run()
	machines.put(m)
	return res, err
}

// getMach returns a machine reset for a run of main. Machines fit any
// program: a recycled one is resliced to this program's register
// files, slabs and function count, and only that prefix is cleared.
// A reused machine only has to restore what a run observes: variables
// zero, constants in place, slabs zero, no active frames, no output
// and the run's first cost threshold. The steady state of a repeated
// run is allocation-free, and so is the first run of a program that
// fits a machine an earlier run released.
func (vp *Program) getMach(cfg interp.Config, disp *DispatchStats) *mach {
	m := machines.get()
	*m = mach{
		p: vp, cfg: cfg, disp: disp, costThr: cfg.FirstThreshold(),
		ireg:   fit(m.ireg, vp.nIntRegs),
		freg:   fit(m.freg, vp.nFloatRegs),
		icel:   fit(m.icel, int(vp.iCells)),
		fcel:   fit(m.fcel, int(vp.fCells)),
		active: fit(m.active, len(vp.funcs)),
		frames: m.frames[:0], out: m.out[:0],
		fn: vp.mainIdx,
	}
	copy(m.ireg[vp.numVars:], vp.iconsts)
	copy(m.freg[vp.numVars:], vp.fconsts)
	m.active[vp.mainIdx] = true
	return m
}

// fit returns s resliced to n zero elements, allocating only when its
// capacity is short.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// machines recycles machines across every program in the process: a
// sync.Pool backed by one slot. put fills an empty slot first, so a
// single caller's machine goes to the slot and comes back from it, and
// its steady state never depends on the pool retaining items (the race
// detector drops pooled items at random). Concurrent callers overflow
// to the pool, which get tries first: its per-processor lists keep a
// machine's memory in the cache of the processor that last ran it,
// where one shared slot would move it between processors. Neither
// layer keeps an idle machine's memory alive: the slot holds its
// machine weakly (machslot.go), so a garbage collection that finds it
// idle reclaims it, and the pool drops what two collections find idle.
var machines machCache

type machCache struct {
	slot machSlot
	pool sync.Pool
}

// get returns a recycled machine, or a new empty one.
func (c *machCache) get() *mach {
	if v := c.pool.Get(); v != nil {
		return v.(*mach)
	}
	if m := c.slot.take(); m != nil {
		return m
	}
	return new(mach)
}

// put recycles m: into the slot when it is empty, else into the pool.
func (c *machCache) put(m *mach) {
	if !c.slot.offer(m) {
		c.pool.Put(m)
	}
}

// result is the run's outcome once an executor stops with the given
// counters and error.
func (m *mach) result(instrs, checks uint64, err error) (interp.Result, error) {
	res := interp.Result{Instructions: instrs, Checks: checks, Output: string(m.out)}
	if m.trapped {
		res.Trapped = true
		res.TrapNote, res.TrapClass, res.TrapPos = m.trapNote, m.trapClass, m.trapPos
	}
	return res, err
}

// vmPoll names the chaos sites the switch VM's polls fire.
var vmPoll = interp.PollSites{Budget: chaos.SiteVMBudget, Cancel: chaos.SiteVMCancel, Panic: chaos.SiteVMPanic}

// recharge is the cost-charge slow path, shared by the central charge
// and the fused opcodes' deferred (post-check) charges: the run
// contract's Config.Recharge with the vm.poll.* chaos sites. It returns
// the next threshold.
func (m *mach) recharge(instrs uint64) (uint64, error) {
	return m.cfg.Recharge(instrs, &vmPoll, m.p.funcs[m.fn].Name)
}

// trap records one failed check.
func (m *mach) trap(cs CheckImage, lhs int64) {
	m.trapNote, m.trapClass, m.trapPos = checkTrap(cs, lhs)
	m.trapped = true
}

// trapStmt records the compile-time range violation traps[i].
func (m *mach) trapStmt(i int32) {
	ts := m.p.traps[i]
	m.trapNote = fmt.Sprintf("compile-time range violation: %s", ts.Note)
	m.trapClass, m.trapPos = interp.TrapStatic, ts.Pos
	m.trapped = true
}

// fail is the runtime fault of opFail: the reference engine's message
// for an IR construct it rejects at run time.
func (m *mach) fail(i int32) error { return errors.New(m.p.fails[i]) }

// call enters function fn, to return to pc ret. It zeroes fn's locals
// and local arrays, then refuses recursion (the reference engine's
// CallStmt/exec order), and returns fn's entry pc.
func (m *mach) call(fn, ret int32) (int32, error) {
	fi := &m.p.funcs[fn]
	for _, v := range fi.ZeroVars {
		m.ireg[v] = 0
		m.freg[v] = 0
	}
	for _, ai := range fi.ClrArrs {
		ar := &m.p.arrays[ai]
		if ar.Elem == ElemInt {
			clear(m.icel[ar.Base : ar.Base+ar.Length])
		} else {
			clear(m.fcel[ar.Base : ar.Base+ar.Length])
		}
	}
	if m.active[fn] {
		return 0, fmt.Errorf("%w: %s", interp.ErrRecursion, fi.Name)
	}
	m.active[fn] = true
	m.frames = append(m.frames, frame{ret: ret, fn: m.fn})
	m.fn = fn
	return fi.Entry, nil
}

// ret leaves the current function and returns the caller's resume pc;
// false means main returned.
func (m *mach) ret() (int32, bool) {
	m.active[m.fn] = false
	n := len(m.frames)
	if n == 0 {
		return 0, false
	}
	fr := m.frames[n-1]
	m.frames = m.frames[:n-1]
	m.fn = fr.fn
	return fr.ret, true
}

// print appends one output line: pool[a:a+n] holds one entry per
// argument (register<<1, plus 1 for a float). Output already at
// MaxOutputBytes takes no more lines.
func (m *mach) print(pool []int64, a, n int32) {
	if len(m.out) >= m.cfg.MaxOutputBytes {
		return
	}
	for k, e := range pool[a : a+n] {
		if k > 0 {
			m.out = append(m.out, ' ')
		}
		if e&1 != 0 {
			m.out = strconv.AppendFloat(m.out, m.freg[e>>1], 'g', 10, 64)
		} else {
			m.out = strconv.AppendInt(m.out, m.ireg[e>>1], 10)
		}
	}
	m.out = append(m.out, '\n')
}

func (m *mach) run() (interp.Result, error) {
	var (
		p      = m.p
		code   = p.code
		pool   = p.pool
		ireg   = m.ireg
		freg   = m.freg
		icel   = m.icel
		fcel   = m.fcel
		funcs  = p.funcs
		arrays = p.arrays

		instrs, checks uint64

		err  error
		disp = m.disp
	)
	// costThr folds the budget bound and the next poll tick into one
	// compare on the hot path: the instruction counter crossing it means
	// either the budget is blown or a deadline/context poll is due (the
	// slow path, recharge, tells them apart).
	costThr := m.costThr
	pc := funcs[p.mainIdx].Entry

loop:
	for {
		in := &code[pc]
		pc++
		if disp != nil {
			disp.count(in.Op)
		}
		// Central cost charge. Zero-cost instructions (check-term work,
		// constant moves) skip budget and poll entirely, exactly like
		// the reference engine's uncharged check terms and constants. Fused
		// check+access opcodes split their charge: the pre-check part
		// rides in.cost here, the post-check part is recharged after
		// the checks pass (see recharge).
		if c := in.Cost; c != 0 {
			instrs += uint64(c)
			if instrs > costThr {
				if costThr, err = m.recharge(instrs); err != nil {
					break loop
				}
			}
		}

		switch in.Op {
		case opMovI:
			ireg[in.A] = ireg[in.B]
		case opMovF:
			freg[in.A] = freg[in.B]

		case opAddI:
			ireg[in.A] = ireg[in.B] + ireg[in.C]
		case opSubI:
			ireg[in.A] = ireg[in.B] - ireg[in.C]
		case opMulI:
			ireg[in.A] = ireg[in.B] * ireg[in.C]
		case opDivI:
			d := ireg[in.C]
			if d == 0 {
				err = interp.ErrDivZero
				break loop
			}
			ireg[in.A] = ireg[in.B] / d
		case opNegI:
			ireg[in.A] = -ireg[in.B]

		case opAddF:
			freg[in.A] = freg[in.B] + freg[in.C]
		case opSubF:
			freg[in.A] = freg[in.B] - freg[in.C]
		case opMulF:
			freg[in.A] = freg[in.B] * freg[in.C]
		case opDivF:
			freg[in.A] = freg[in.B] / freg[in.C]
		case opNegF:
			freg[in.A] = -freg[in.B]

		case opEqI:
			ireg[in.A] = b2i(ireg[in.B] == ireg[in.C])
		case opNeI:
			ireg[in.A] = b2i(ireg[in.B] != ireg[in.C])
		case opLtI:
			ireg[in.A] = b2i(ireg[in.B] < ireg[in.C])
		case opLeI:
			ireg[in.A] = b2i(ireg[in.B] <= ireg[in.C])
		case opGtI:
			ireg[in.A] = b2i(ireg[in.B] > ireg[in.C])
		case opGeI:
			ireg[in.A] = b2i(ireg[in.B] >= ireg[in.C])
		case opEqF:
			ireg[in.A] = b2i(freg[in.B] == freg[in.C])
		case opNeF:
			ireg[in.A] = b2i(freg[in.B] != freg[in.C])
		case opLtF:
			ireg[in.A] = b2i(freg[in.B] < freg[in.C])
		case opLeF:
			ireg[in.A] = b2i(freg[in.B] <= freg[in.C])
		case opGtF:
			ireg[in.A] = b2i(freg[in.B] > freg[in.C])
		case opGeF:
			ireg[in.A] = b2i(freg[in.B] >= freg[in.C])

		case opAndB:
			ireg[in.A] = ireg[in.B] & ireg[in.C]
		case opOrB:
			ireg[in.A] = ireg[in.B] | ireg[in.C]
		case opNotB:
			ireg[in.A] = ireg[in.B] ^ 1

		case opModI:
			d := ireg[in.C]
			if d == 0 {
				err = interp.ErrModZero
				break loop
			}
			ireg[in.A] = ireg[in.B] % d
		case opAbsI:
			v := ireg[in.B]
			if v < 0 {
				v = -v
			}
			ireg[in.A] = v
		case opMinI:
			v := ireg[pool[in.B]]
			for k := int32(1); k < in.C; k++ {
				if w := ireg[pool[in.B+k]]; w < v {
					v = w
				}
			}
			ireg[in.A] = v
		case opMaxI:
			v := ireg[pool[in.B]]
			for k := int32(1); k < in.C; k++ {
				if w := ireg[pool[in.B+k]]; w > v {
					v = w
				}
			}
			ireg[in.A] = v
		case opModF:
			freg[in.A] = math.Mod(freg[in.B], freg[in.C])
		case opAbsF:
			freg[in.A] = math.Abs(freg[in.B])
		case opSqrtF:
			freg[in.A] = math.Sqrt(freg[in.B])
		case opMinF:
			v := freg[pool[in.B]]
			for k := int32(1); k < in.C; k++ {
				v = math.Min(v, freg[pool[in.B+k]])
			}
			freg[in.A] = v
		case opMaxF:
			v := freg[pool[in.B]]
			for k := int32(1); k < in.C; k++ {
				v = math.Max(v, freg[pool[in.B+k]])
			}
			freg[in.A] = v
		case opI2F:
			freg[in.A] = float64(ireg[in.B])
		case opF2I:
			ireg[in.A] = int64(freg[in.B])

		case opLoadI1:
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			v := ireg[in.B]
			if v < d.Lo || v > d.Hi {
				err = interp.SubscriptError(v, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			ireg[in.A] = icel[ar.Base+v-d.Lo]
		case opLoadF1:
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			v := ireg[in.B]
			if v < d.Lo || v > d.Hi {
				err = interp.SubscriptError(v, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			freg[in.A] = fcel[ar.Base+v-d.Lo]
		case opStoreI1:
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			v := ireg[in.B]
			if v < d.Lo || v > d.Hi {
				err = interp.SubscriptError(v, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			icel[ar.Base+v-d.Lo] = ireg[in.A]
		case opStoreF1:
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			v := ireg[in.B]
			if v < d.Lo || v > d.Hi {
				err = interp.SubscriptError(v, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			fcel[ar.Base+v-d.Lo] = freg[in.A]

		case opLoadI2:
			ar := &arrays[in.C]
			off, e := elemOff2(ar, in.Imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			ireg[in.A] = icel[ar.Base+off]
		case opLoadF2:
			ar := &arrays[in.C]
			off, e := elemOff2(ar, in.Imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			freg[in.A] = fcel[ar.Base+off]
		case opStoreI2:
			ar := &arrays[in.C]
			off, e := elemOff2(ar, in.Imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			icel[ar.Base+off] = ireg[in.A]
		case opStoreF2:
			ar := &arrays[in.C]
			off, e := elemOff2(ar, in.Imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			fcel[ar.Base+off] = freg[in.A]

		case opLoadI:
			ar := &arrays[in.C]
			off, e := elemOff(ar, pool[in.B:], ireg)
			if e != nil {
				err = e
				break loop
			}
			ireg[in.A] = icel[ar.Base+off]
		case opLoadF:
			ar := &arrays[in.C]
			off, e := elemOff(ar, pool[in.B:], ireg)
			if e != nil {
				err = e
				break loop
			}
			freg[in.A] = fcel[ar.Base+off]
		case opStoreI:
			ar := &arrays[in.C]
			off, e := elemOff(ar, pool[in.B:], ireg)
			if e != nil {
				err = e
				break loop
			}
			icel[ar.Base+off] = ireg[in.A]
		case opStoreF:
			ar := &arrays[in.C]
			off, e := elemOff(ar, pool[in.B:], ireg)
			if e != nil {
				err = e
				break loop
			}
			fcel[ar.Base+off] = freg[in.A]

		case opCheck1:
			checks++
			if lhs := int64(in.B) * ireg[in.A]; lhs > in.Imm {
				m.trap(p.checks[in.C], lhs)
				break loop
			}

		case opCheckPair:
			t := pool[in.B : in.B+6 : in.B+6]
			v := ireg[in.A]
			checks++
			if lhs := t[0] * v; lhs > t[1] {
				m.trap(p.checks[t[2]], lhs)
				break loop
			}
			checks++
			if lhs := t[3] * v; lhs > t[4] {
				m.trap(p.checks[t[5]], lhs)
				break loop
			}

		case opCheck2:
			checks++
			t := pool[in.A : in.A+4 : in.A+4]
			if lhs := t[0]*ireg[t[1]] + t[2]*ireg[t[3]]; lhs > in.Imm {
				m.trap(p.checks[in.C], lhs)
				break loop
			}

		case opCheck:
			checks++
			lhs := int64(0)
			terms := pool[in.A : in.A+2*in.B]
			for k := 0; k+1 < len(terms); k += 2 {
				lhs += terms[k] * ireg[terms[k+1]]
			}
			if lhs > in.Imm {
				m.trap(p.checks[in.C], lhs)
				break loop
			}

		case opTrapStmt:
			m.trapStmt(in.A)
			break loop

		case opJmp:
			pc = in.A
		case opBr:
			if ireg[in.C] != 0 {
				pc = in.A
			} else {
				pc = in.B
			}

		case opBrEqI:
			if ireg[in.B] == ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrNeI:
			if ireg[in.B] != ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrLtI:
			if ireg[in.B] < ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrLeI:
			if ireg[in.B] <= ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrGtI:
			if ireg[in.B] > ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrGeI:
			if ireg[in.B] >= ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrEqF:
			if freg[in.B] == freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrNeF:
			if freg[in.B] != freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrLtF:
			if freg[in.B] < freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrLeF:
			if freg[in.B] <= freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrGtF:
			if freg[in.B] > freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}
		case opBrGeF:
			if freg[in.B] >= freg[in.C] {
				pc = in.A
			} else {
				pc = int32(in.Imm)
			}

		case opCall:
			if pc, err = m.call(in.A, pc); err != nil {
				break loop
			}

		case opRet:
			var ok bool
			if pc, ok = m.ret(); !ok {
				break loop // main returned
			}

		case opPrint:
			// The whole pool, not a subslice: with a subslice here the
			// compiler allocates this loop's registers worse (each case
			// exit reloads about ten values from the stack, not three),
			// and the same bytecode ran 10–20% slower (EXPERIMENTS.md,
			// "Deleting the bytecode check eliminator").
			m.print(pool, in.A, in.B)

		case opNop:
			// cost carrier only

		case opFail:
			err = m.fail(in.A)
			break loop

		// ---- fused opcodes (emitted only by Optimize) ----

		case opCPLoadI1, opCPLoadF1, opCPStoreI1, opCPStoreF1:
			// Check pair + access on one subscript register. The pool
			// tuple is the pair's two [coef, K, checkIdx] triples; the
			// access cost is deferred in imm's low 16 bits and charged
			// only after the checks pass, keeping the instruction
			// counter exact at trap exits. The double-pair family below
			// is the same body with the checks unrolled.
			t := pool[in.B : in.B+6 : in.B+6]
			v := ireg[in.Imm>>16]
			checks++
			if lhs := t[0] * v; lhs > t[1] {
				m.trap(p.checks[t[2]], lhs)
				break loop
			}
			checks++
			if lhs := t[3] * v; lhs > t[4] {
				m.trap(p.checks[t[5]], lhs)
				break loop
			}
			if dc := uint64(uint16(in.Imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			idx := v
			if idx < d.Lo || idx > d.Hi {
				err = interp.SubscriptError(idx, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			switch in.Op {
			case opCPLoadI1:
				ireg[in.A] = icel[ar.Base+idx-d.Lo]
			case opCPLoadF1:
				freg[in.A] = fcel[ar.Base+idx-d.Lo]
			case opCPStoreI1:
				icel[ar.Base+idx-d.Lo] = ireg[in.A]
			default:
				fcel[ar.Base+idx-d.Lo] = freg[in.A]
			}

		case opCP2LoadI1, opCP2LoadF1, opCP2StoreI1, opCP2StoreF1:
			t := pool[in.B : in.B+12 : in.B+12]
			v := ireg[in.Imm>>16]
			checks++
			if lhs := t[0] * v; lhs > t[1] {
				m.trap(p.checks[t[2]], lhs)
				break loop
			}
			checks++
			if lhs := t[3] * v; lhs > t[4] {
				m.trap(p.checks[t[5]], lhs)
				break loop
			}
			checks++
			if lhs := t[6] * v; lhs > t[7] {
				m.trap(p.checks[t[8]], lhs)
				break loop
			}
			checks++
			if lhs := t[9] * v; lhs > t[10] {
				m.trap(p.checks[t[11]], lhs)
				break loop
			}
			if dc := uint64(uint16(in.Imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			idx := v
			if idx < d.Lo || idx > d.Hi {
				err = interp.SubscriptError(idx, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			switch in.Op {
			case opCP2LoadI1:
				ireg[in.A] = icel[ar.Base+idx-d.Lo]
			case opCP2LoadF1:
				freg[in.A] = fcel[ar.Base+idx-d.Lo]
			case opCP2StoreI1:
				icel[ar.Base+idx-d.Lo] = ireg[in.A]
			default:
				fcel[ar.Base+idx-d.Lo] = freg[in.A]
			}

		case opCPQLoadI2, opCPQLoadF2, opCPQStoreI2, opCPQStoreF2:
			// Two check pairs + a 2-D access with affine subscripts:
			// pair 0 guards the row root register, pair 1 the column
			// root. imm packs deferredCost<<48 | rowReg<<24 | colReg.
			t := pool[in.B : in.B+16 : in.B+16]
			v0 := ireg[int32(uint64(in.Imm)>>24)&0xffffff]
			v1 := ireg[int32(in.Imm)&0xffffff]
			checks++
			if lhs := t[0] * v0; lhs > t[1] {
				m.trap(p.checks[t[2]], lhs)
				break loop
			}
			checks++
			if lhs := t[3] * v0; lhs > t[4] {
				m.trap(p.checks[t[5]], lhs)
				break loop
			}
			checks++
			if lhs := t[6] * v1; lhs > t[7] {
				m.trap(p.checks[t[8]], lhs)
				break loop
			}
			checks++
			if lhs := t[9] * v1; lhs > t[10] {
				m.trap(p.checks[t[11]], lhs)
				break loop
			}
			if dc := uint64(uint16(uint64(in.Imm) >> 48)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.C]
			d0, d1 := &ar.Dims[0], &ar.Dims[1]
			i0 := t[12]*v0 + t[13]
			i1 := t[14]*v1 + t[15]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar.Name, d1.Lo, d1.Hi, 2)
				break loop
			}
			off := (i0-d0.Lo)*d1.Size + (i1 - d1.Lo)
			switch in.Op {
			case opCPQLoadI2:
				ireg[in.A] = icel[ar.Base+off]
			case opCPQLoadF2:
				freg[in.A] = fcel[ar.Base+off]
			case opCPQStoreI2:
				icel[ar.Base+off] = ireg[in.A]
			default:
				fcel[ar.Base+off] = freg[in.A]
			}

		case opCheckBlock:
			// A run of consecutive check instructions in one dispatch;
			// the per-pair body matches opCheckPair's. Entry costs are
			// deferred: each is charged immediately before its entry,
			// where the unfused run charged it, so the counter and poll
			// cadence match at every trap exit.
			t := pool[in.B : in.B+8*int32(in.Imm)]
			for ; len(t) >= 8; t = t[8:] {
				if dc := uint64(t[0]); dc != 0 {
					instrs += dc
					if instrs > costThr {
						if costThr, err = m.recharge(instrs); err != nil {
							break loop
						}
					}
				}
				r := t[1]
				if r < 0 {
					// Absorbed opCheck1/opCheck2: one two-register term
					// [_, -1, ra, rb, ca, cb, K, idx].
					checks++
					if lhs := t[4]*ireg[t[2]] + t[5]*ireg[t[3]]; lhs > t[6] {
						m.trap(p.checks[t[7]], lhs)
						break loop
					}
					continue
				}
				v := ireg[r]
				checks += 2
				if lhs := t[2] * v; lhs > t[3] {
					checks--
					m.trap(p.checks[t[4]], lhs)
					break loop
				}
				if lhs := t[5] * v; lhs > t[6] {
					m.trap(p.checks[t[7]], lhs)
					break loop
				}
			}

		case opAddJmp:
			// Loop latch: reg += delta; goto target.
			ireg[in.B] += in.Imm
			pc = in.A
		case opIncBrEqI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v == ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}
		case opIncBrNeI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v != ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}
		case opIncBrLtI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v < ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}
		case opIncBrLeI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v <= ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}
		case opIncBrGtI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v > ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}
		case opIncBrGeI:
			v := ireg[in.B] + int64(int32(uint32(in.Imm)))
			ireg[in.B] = v
			if v >= ireg[in.C] {
				pc = in.A
			} else {
				pc = int32(uint64(in.Imm) >> 32)
			}

		case opBinBinF:
			// Two chained float binops; pure, so both charges ride the
			// central cost. The second op's code folds side and kind
			// into one jump table: 0-3 t k z, 4-7 z k t, 8-11 t k t.
			t := pool[in.B : in.B+5 : in.B+5]
			var u float64
			switch t[0] {
			case 0:
				u = freg[t[1]] + freg[t[2]]
			case 1:
				u = freg[t[1]] - freg[t[2]]
			case 2:
				u = freg[t[1]] * freg[t[2]]
			default:
				u = freg[t[1]] / freg[t[2]]
			}
			switch t[3] {
			case 0:
				freg[in.A] = u + freg[t[4]]
			case 1:
				freg[in.A] = u - freg[t[4]]
			case 2:
				freg[in.A] = u * freg[t[4]]
			case 3:
				freg[in.A] = u / freg[t[4]]
			case 4:
				freg[in.A] = freg[t[4]] + u
			case 5:
				freg[in.A] = freg[t[4]] - u
			case 6:
				freg[in.A] = freg[t[4]] * u
			case 7:
				freg[in.A] = freg[t[4]] / u
			case 8:
				freg[in.A] = u + u
			case 9:
				freg[in.A] = u - u
			case 10:
				freg[in.A] = u * u
			default:
				freg[in.A] = u / u
			}

		case opLoadBinF1:
			// 1-D float load + binop; the binop's charge defers past
			// the load's bounds fault. t[0] folds side and kind:
			// 0-3 v k s, 4-7 s k v, 8-11 v k v.
			t := pool[in.B : in.B+2 : in.B+2]
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			idx := ireg[uint64(in.Imm)>>32]
			if idx < d.Lo || idx > d.Hi {
				err = interp.SubscriptError(idx, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			v := fcel[ar.Base+idx-d.Lo]
			if dc := uint64(uint32(in.Imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			switch t[0] {
			case 0:
				freg[in.A] = v + freg[t[1]]
			case 1:
				freg[in.A] = v - freg[t[1]]
			case 2:
				freg[in.A] = v * freg[t[1]]
			case 3:
				freg[in.A] = v / freg[t[1]]
			case 4:
				freg[in.A] = freg[t[1]] + v
			case 5:
				freg[in.A] = freg[t[1]] - v
			case 6:
				freg[in.A] = freg[t[1]] * v
			case 7:
				freg[in.A] = freg[t[1]] / v
			case 8:
				freg[in.A] = v + v
			case 9:
				freg[in.A] = v - v
			case 10:
				freg[in.A] = v * v
			default:
				freg[in.A] = v / v
			}

		case opLLBinF1:
			// Two 1-D float loads + binop. dc1 charges between
			// the loads' fault points, dc2 after the second — the
			// unfused charge order exactly.
			t := pool[in.B : in.B+2 : in.B+2]
			u := uint64(in.Imm)
			ar0 := &arrays[in.C]
			d0 := &ar0.Dims[0]
			i0 := ireg[u>>48]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar0.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			x := fcel[ar0.Base+i0-d0.Lo]
			if dc := (u >> 16) & 0xffff; dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar1 := &arrays[t[0]]
			d1 := &ar1.Dims[0]
			i1 := ireg[(u>>32)&0xffff]
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar1.Name, d1.Lo, d1.Hi, 1)
				break loop
			}
			y := fcel[ar1.Base+i1-d1.Lo]
			if dc := u & 0xffff; dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			switch t[1] {
			case 0:
				freg[in.A] = x + y
			case 1:
				freg[in.A] = x - y
			case 2:
				freg[in.A] = x * y
			case 3:
				freg[in.A] = x / y
			case 4:
				freg[in.A] = y + x
			case 5:
				freg[in.A] = y - x
			case 6:
				freg[in.A] = y * x
			default:
				freg[in.A] = y / x
			}

		case opLoadBinF2:
			// Affine 2-D float load + binop; the binop's charge defers
			// past the load's faults. t[4] folds side and kind like
			// opLoadBinF1.
			t := pool[in.B : in.B+6 : in.B+6]
			u := uint64(in.Imm)
			ar := &arrays[in.C]
			d0, d1 := &ar.Dims[0], &ar.Dims[1]
			i0 := t[0]*ireg[u>>48] + t[1]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			i1 := t[2]*ireg[(u>>32)&0xffff] + t[3]
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar.Name, d1.Lo, d1.Hi, 2)
				break loop
			}
			v := fcel[ar.Base+(i0-d0.Lo)*d1.Size+(i1-d1.Lo)]
			if dc := u & 0xffffffff; dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			switch t[4] {
			case 0:
				freg[in.A] = v + freg[t[5]]
			case 1:
				freg[in.A] = v - freg[t[5]]
			case 2:
				freg[in.A] = v * freg[t[5]]
			case 3:
				freg[in.A] = v / freg[t[5]]
			case 4:
				freg[in.A] = freg[t[5]] + v
			case 5:
				freg[in.A] = freg[t[5]] - v
			case 6:
				freg[in.A] = freg[t[5]] * v
			case 7:
				freg[in.A] = freg[t[5]] / v
			case 8:
				freg[in.A] = v + v
			case 9:
				freg[in.A] = v - v
			case 10:
				freg[in.A] = v * v
			default:
				freg[in.A] = v / v
			}

		case opAffLoadI2, opAffLoadF2, opAffStoreI2, opAffStoreF2:
			// One collapsed affine 2-D access; subscripts fault in
			// dimension order like elemOff2.
			t := pool[in.B : in.B+4 : in.B+4]
			ar := &arrays[in.C]
			d0, d1 := &ar.Dims[0], &ar.Dims[1]
			i0 := t[0]*ireg[uint64(in.Imm)>>32] + t[1]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			i1 := t[2]*ireg[uint32(in.Imm)] + t[3]
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar.Name, d1.Lo, d1.Hi, 2)
				break loop
			}
			off := (i0-d0.Lo)*d1.Size + (i1 - d1.Lo)
			switch in.Op {
			case opAffLoadI2:
				ireg[in.A] = icel[ar.Base+off]
			case opAffLoadF2:
				freg[in.A] = fcel[ar.Base+off]
			case opAffStoreI2:
				icel[ar.Base+off] = ireg[in.A]
			default:
				fcel[ar.Base+off] = freg[in.A]
			}

		case opBinStoreF2:
			// m(s0,s1) = x op y, unchecked, affine subscripts. Cost is
			// central: binop, chains, and store were all charged before
			// the store's fault.
			t := pool[in.B : in.B+7 : in.B+7]
			var v float64
			switch t[0] {
			case 0:
				v = freg[t[1]] + freg[t[2]]
			case 1:
				v = freg[t[1]] - freg[t[2]]
			case 2:
				v = freg[t[1]] * freg[t[2]]
			default:
				v = freg[t[1]] / freg[t[2]]
			}
			ar := &arrays[in.C]
			d0, d1 := &ar.Dims[0], &ar.Dims[1]
			i0 := t[3]*ireg[uint64(in.Imm)>>32] + t[4]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			i1 := t[5]*ireg[uint32(in.Imm)] + t[6]
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar.Name, d1.Lo, d1.Hi, 2)
				break loop
			}
			fcel[ar.Base+(i0-d0.Lo)*d1.Size+(i1-d1.Lo)] = v

		case opBinBinStoreF1:
			// a(s) = (x k0 y) k1 z, unchecked 1-D store. Value
			// chain is opBinBinF's; cost is central.
			t := pool[in.B : in.B+5 : in.B+5]
			var u float64
			switch t[0] {
			case 0:
				u = freg[t[1]] + freg[t[2]]
			case 1:
				u = freg[t[1]] - freg[t[2]]
			case 2:
				u = freg[t[1]] * freg[t[2]]
			default:
				u = freg[t[1]] / freg[t[2]]
			}
			var v float64
			switch t[3] {
			case 0:
				v = u + freg[t[4]]
			case 1:
				v = u - freg[t[4]]
			case 2:
				v = u * freg[t[4]]
			case 3:
				v = u / freg[t[4]]
			case 4:
				v = freg[t[4]] + u
			case 5:
				v = freg[t[4]] - u
			case 6:
				v = freg[t[4]] * u
			case 7:
				v = freg[t[4]] / u
			case 8:
				v = u + u
			case 9:
				v = u - u
			case 10:
				v = u * u
			default:
				v = u / u
			}
			ar := &arrays[in.C]
			d := &ar.Dims[0]
			idx := ireg[in.A]
			if idx < d.Lo || idx > d.Hi {
				err = interp.SubscriptError(idx, ar.Name, d.Lo, d.Hi, 1)
				break loop
			}
			fcel[ar.Base+idx-d.Lo] = v

		case opBinBinStoreF2:
			// m(s0,s1) = (x k0 y) k1 z, unchecked 2-D affine store.
			t := pool[in.B : in.B+9 : in.B+9]
			var u float64
			switch t[0] {
			case 0:
				u = freg[t[1]] + freg[t[2]]
			case 1:
				u = freg[t[1]] - freg[t[2]]
			case 2:
				u = freg[t[1]] * freg[t[2]]
			default:
				u = freg[t[1]] / freg[t[2]]
			}
			var v float64
			switch t[3] {
			case 0:
				v = u + freg[t[4]]
			case 1:
				v = u - freg[t[4]]
			case 2:
				v = u * freg[t[4]]
			case 3:
				v = u / freg[t[4]]
			case 4:
				v = freg[t[4]] + u
			case 5:
				v = freg[t[4]] - u
			case 6:
				v = freg[t[4]] * u
			case 7:
				v = freg[t[4]] / u
			case 8:
				v = u + u
			case 9:
				v = u - u
			case 10:
				v = u * u
			default:
				v = u / u
			}
			ar := &arrays[in.C]
			d0, d1 := &ar.Dims[0], &ar.Dims[1]
			i0 := t[5]*ireg[uint64(in.Imm)>>32] + t[6]
			if i0 < d0.Lo || i0 > d0.Hi {
				err = interp.SubscriptError(i0, ar.Name, d0.Lo, d0.Hi, 1)
				break loop
			}
			i1 := t[7]*ireg[uint32(in.Imm)] + t[8]
			if i1 < d1.Lo || i1 > d1.Hi {
				err = interp.SubscriptError(i1, ar.Name, d1.Lo, d1.Hi, 2)
				break loop
			}
			fcel[ar.Base+(i0-d0.Lo)*d1.Size+(i1-d1.Lo)] = v

		default:
			err = fmt.Errorf("vm: bad opcode %d at pc %d", in.Op, pc-1)
			break loop
		}
	}

	return m.result(instrs, checks, err)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// elemOff flattens a multi-dimensional subscript list (index registers
// in the pool) into a slab offset, mirroring machine.elemOffset.
func elemOff(ar *ArrayImage, idxRegs []int64, ireg []int64) (int64, error) {
	off := int64(0)
	for k := range ar.Dims {
		d := &ar.Dims[k]
		v := ireg[idxRegs[k]]
		if v < d.Lo || v > d.Hi {
			return 0, interp.SubscriptError(v, ar.Name, d.Lo, d.Hi, k+1)
		}
		off = off*d.Size + (v - d.Lo)
	}
	return off, nil
}

// elemOff2 is elemOff for the 2-D fast-path opcodes, whose index
// registers ride the instruction's imm field instead of the pool.
// Subscripts fault in dimension order, like elemOff.
func elemOff2(ar *ArrayImage, imm int64, ireg []int64) (int64, error) {
	d0, d1 := &ar.Dims[0], &ar.Dims[1]
	v0 := ireg[int32(uint64(imm)>>32)]
	if v0 < d0.Lo || v0 > d0.Hi {
		return 0, interp.SubscriptError(v0, ar.Name, d0.Lo, d0.Hi, 1)
	}
	v1 := ireg[uint32(imm)]
	if v1 < d1.Lo || v1 > d1.Hi {
		return 0, interp.SubscriptError(v1, ar.Name, d1.Lo, d1.Hi, 2)
	}
	return (v0-d0.Lo)*d1.Size + (v1 - d1.Lo), nil
}

// checkTrap renders one failed range check's trap fields, shared by the
// general and specialized check opcodes.
func checkTrap(cs CheckImage, lhs int64) (string, interp.TrapClass, source.Pos) {
	note := fmt.Sprintf("%s failed (lhs=%d) [%s]", cs.Str, lhs, cs.Note)
	return note, interp.TrapCheck, cs.Pos
}
