package vm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/source"
)

type frame struct {
	ret int32 // return pc
	fn  int32 // caller's Func.Index
}

// mach is the mutable state of one run of the switch loop. Programs
// are immutable, so one compiled Program serves any number of
// concurrent machines. Machines recycle through the program's machine
// cache: repeated runs (bench -times, oracle sweeps, evalpool) reuse
// the register files and array slabs instead of reallocating them.
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
		if ar.length < 0 {
			return interp.Result{}, fmt.Errorf("interp: array %s has invalid extent", ar.name)
		}
		cells += ar.length
		if cells > cfg.MaxArrayCells {
			return interp.Result{}, &interp.ResourceError{Resource: interp.ResArrayCells, Limit: uint64(cfg.MaxArrayCells)}
		}
	}

	m := vp.getMach(cfg, disp)

	defer func() {
		if r := recover(); r != nil {
			fnName := ""
			if int(m.fn) < len(vp.funcs) {
				fnName = vp.funcs[m.fn].name
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
	vp.mcache.put(m)
	return res, err
}

// getMach returns a machine reset for a run of main, reusing a cached
// one when available. A reused machine only has to restore what a run
// observes: variables zero, constants in place, slabs zero, no active
// frames, no output and the run's first cost threshold. The steady
// state of a repeated run is allocation-free.
func (vp *Program) getMach(cfg interp.Config, disp *DispatchStats) *mach {
	m := vp.mcache.get()
	if m == nil {
		m = &mach{
			ireg:   make([]int64, vp.nIntRegs),
			freg:   make([]float64, vp.nFloatRegs),
			icel:   make([]int64, vp.iCells),
			fcel:   make([]float64, vp.fCells),
			active: make([]bool, len(vp.funcs)),
		}
	} else {
		clear(m.ireg)
		clear(m.freg)
		clear(m.icel)
		clear(m.fcel)
		clear(m.active)
	}
	*m = mach{
		p: vp, cfg: cfg, disp: disp, costThr: cfg.FirstThreshold(),
		ireg: m.ireg, freg: m.freg, icel: m.icel, fcel: m.fcel,
		active: m.active, frames: m.frames[:0], out: m.out[:0],
		fn: vp.mainIdx,
	}
	copy(m.ireg[vp.numVars:], vp.iconsts)
	copy(m.freg[vp.numVars:], vp.fconsts)
	m.active[vp.mainIdx] = true
	return m
}

// machCache recycles a program's machines across runs. A one-slot cache
// owned by the program handle sits in front of a sync.Pool: a single
// caller always gets its previous machine back from the slot, so its
// steady state never depends on the pool retaining items (the race
// detector drops pooled items at random), while concurrent callers
// overflow to the pool.
type machCache struct {
	slot atomic.Pointer[mach]
	pool sync.Pool
}

// get returns a recycled machine, or nil when none is cached.
func (c *machCache) get() *mach {
	if m := c.slot.Swap(nil); m != nil {
		return m
	}
	if v := c.pool.Get(); v != nil {
		return v.(*mach)
	}
	return nil
}

// put recycles m: into the slot when it is empty, else into the pool.
func (c *machCache) put(m *mach) {
	if !c.slot.CompareAndSwap(nil, m) {
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
	return m.cfg.Recharge(instrs, &vmPoll, m.p.funcs[m.fn].name)
}

// trap records one failed check.
func (m *mach) trap(cs checkInfo, lhs int64) {
	m.trapNote, m.trapClass, m.trapPos = checkTrap(cs, lhs)
	m.trapped = true
}

// trapStmt records the compile-time range violation traps[i].
func (m *mach) trapStmt(i int32) {
	ts := m.p.traps[i]
	m.trapNote = fmt.Sprintf("compile-time range violation: %s", ts.note)
	m.trapClass, m.trapPos = interp.TrapStatic, ts.pos
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
	for _, v := range fi.zeroVars {
		m.ireg[v] = 0
		m.freg[v] = 0
	}
	for _, ai := range fi.clrArrs {
		ar := &m.p.arrays[ai]
		if ar.elem == ir.Int {
			clear(m.icel[ar.base : ar.base+ar.length])
		} else {
			clear(m.fcel[ar.base : ar.base+ar.length])
		}
	}
	if m.active[fn] {
		return 0, fmt.Errorf("%w: %s", interp.ErrRecursion, fi.name)
	}
	m.active[fn] = true
	m.frames = append(m.frames, frame{ret: ret, fn: m.fn})
	m.fn = fn
	return fi.entry, nil
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

// print appends one output line: ents holds one pool entry per
// argument (register<<1, plus 1 for a float). Output already at
// MaxOutputBytes takes no more lines.
func (m *mach) print(ents []int64) {
	if len(m.out) >= m.cfg.MaxOutputBytes {
		return
	}
	for k, e := range ents {
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
		// elim tracks the checks counted in bulk without being evaluated
		// (opCkAdd, opCheckBlock implied pairs); a diagnostic, not an
		// observable — flushed to DispatchStats at exit for CheckStats.
		elim uint64

		err  error
		disp = m.disp
	)
	// costThr folds the budget bound and the next poll tick into one
	// compare on the hot path: the instruction counter crossing it means
	// either the budget is blown or a deadline/context poll is due (the
	// slow path, recharge, tells them apart).
	costThr := m.costThr
	pc := funcs[p.mainIdx].entry

loop:
	for {
		in := &code[pc]
		pc++
		if disp != nil {
			disp.count(in.op)
		}
		// Central cost charge. Zero-cost instructions (check-term work,
		// constant moves) skip budget and poll entirely, exactly like
		// the reference engine's uncharged check terms and constants. Fused
		// check+access opcodes split their charge: the pre-check part
		// rides in.cost here, the post-check part is recharged after
		// the checks pass (see recharge).
		if c := in.cost; c != 0 {
			instrs += uint64(c)
			if instrs > costThr {
				if costThr, err = m.recharge(instrs); err != nil {
					break loop
				}
			}
		}

		switch in.op {
		case opMovI:
			ireg[in.a] = ireg[in.b]
		case opMovF:
			freg[in.a] = freg[in.b]

		case opAddI:
			ireg[in.a] = ireg[in.b] + ireg[in.c]
		case opSubI:
			ireg[in.a] = ireg[in.b] - ireg[in.c]
		case opMulI:
			ireg[in.a] = ireg[in.b] * ireg[in.c]
		case opDivI:
			d := ireg[in.c]
			if d == 0 {
				err = interp.ErrDivZero
				break loop
			}
			ireg[in.a] = ireg[in.b] / d
		case opNegI:
			ireg[in.a] = -ireg[in.b]

		case opAddF:
			freg[in.a] = freg[in.b] + freg[in.c]
		case opSubF:
			freg[in.a] = freg[in.b] - freg[in.c]
		case opMulF:
			freg[in.a] = freg[in.b] * freg[in.c]
		case opDivF:
			freg[in.a] = freg[in.b] / freg[in.c]
		case opNegF:
			freg[in.a] = -freg[in.b]

		case opEqI:
			ireg[in.a] = b2i(ireg[in.b] == ireg[in.c])
		case opNeI:
			ireg[in.a] = b2i(ireg[in.b] != ireg[in.c])
		case opLtI:
			ireg[in.a] = b2i(ireg[in.b] < ireg[in.c])
		case opLeI:
			ireg[in.a] = b2i(ireg[in.b] <= ireg[in.c])
		case opGtI:
			ireg[in.a] = b2i(ireg[in.b] > ireg[in.c])
		case opGeI:
			ireg[in.a] = b2i(ireg[in.b] >= ireg[in.c])
		case opEqF:
			ireg[in.a] = b2i(freg[in.b] == freg[in.c])
		case opNeF:
			ireg[in.a] = b2i(freg[in.b] != freg[in.c])
		case opLtF:
			ireg[in.a] = b2i(freg[in.b] < freg[in.c])
		case opLeF:
			ireg[in.a] = b2i(freg[in.b] <= freg[in.c])
		case opGtF:
			ireg[in.a] = b2i(freg[in.b] > freg[in.c])
		case opGeF:
			ireg[in.a] = b2i(freg[in.b] >= freg[in.c])

		case opAndB:
			ireg[in.a] = ireg[in.b] & ireg[in.c]
		case opOrB:
			ireg[in.a] = ireg[in.b] | ireg[in.c]
		case opNotB:
			ireg[in.a] = ireg[in.b] ^ 1

		case opModI:
			d := ireg[in.c]
			if d == 0 {
				err = interp.ErrModZero
				break loop
			}
			ireg[in.a] = ireg[in.b] % d
		case opAbsI:
			v := ireg[in.b]
			if v < 0 {
				v = -v
			}
			ireg[in.a] = v
		case opMinI:
			v := ireg[pool[in.b]]
			for k := int32(1); k < in.c; k++ {
				if w := ireg[pool[in.b+k]]; w < v {
					v = w
				}
			}
			ireg[in.a] = v
		case opMaxI:
			v := ireg[pool[in.b]]
			for k := int32(1); k < in.c; k++ {
				if w := ireg[pool[in.b+k]]; w > v {
					v = w
				}
			}
			ireg[in.a] = v
		case opModF:
			freg[in.a] = math.Mod(freg[in.b], freg[in.c])
		case opAbsF:
			freg[in.a] = math.Abs(freg[in.b])
		case opSqrtF:
			freg[in.a] = math.Sqrt(freg[in.b])
		case opMinF:
			v := freg[pool[in.b]]
			for k := int32(1); k < in.c; k++ {
				v = math.Min(v, freg[pool[in.b+k]])
			}
			freg[in.a] = v
		case opMaxF:
			v := freg[pool[in.b]]
			for k := int32(1); k < in.c; k++ {
				v = math.Max(v, freg[pool[in.b+k]])
			}
			freg[in.a] = v
		case opI2F:
			freg[in.a] = float64(ireg[in.b])
		case opF2I:
			ireg[in.a] = int64(freg[in.b])

		case opLoadI1:
			ar := &arrays[in.c]
			d := &ar.dims[0]
			v := ireg[in.b]
			if v < d.lo || v > d.hi {
				err = interp.SubscriptError(v, ar.name, d.lo, d.hi, 1)
				break loop
			}
			ireg[in.a] = icel[ar.base+v-d.lo]
		case opLoadF1:
			ar := &arrays[in.c]
			d := &ar.dims[0]
			v := ireg[in.b]
			if v < d.lo || v > d.hi {
				err = interp.SubscriptError(v, ar.name, d.lo, d.hi, 1)
				break loop
			}
			freg[in.a] = fcel[ar.base+v-d.lo]
		case opStoreI1:
			ar := &arrays[in.c]
			d := &ar.dims[0]
			v := ireg[in.b]
			if v < d.lo || v > d.hi {
				err = interp.SubscriptError(v, ar.name, d.lo, d.hi, 1)
				break loop
			}
			icel[ar.base+v-d.lo] = ireg[in.a]
		case opStoreF1:
			ar := &arrays[in.c]
			d := &ar.dims[0]
			v := ireg[in.b]
			if v < d.lo || v > d.hi {
				err = interp.SubscriptError(v, ar.name, d.lo, d.hi, 1)
				break loop
			}
			fcel[ar.base+v-d.lo] = freg[in.a]

		case opLoadI2:
			ar := &arrays[in.c]
			off, e := elemOff2(ar, in.imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			ireg[in.a] = icel[ar.base+off]
		case opLoadF2:
			ar := &arrays[in.c]
			off, e := elemOff2(ar, in.imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			freg[in.a] = fcel[ar.base+off]
		case opStoreI2:
			ar := &arrays[in.c]
			off, e := elemOff2(ar, in.imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			icel[ar.base+off] = ireg[in.a]
		case opStoreF2:
			ar := &arrays[in.c]
			off, e := elemOff2(ar, in.imm, ireg)
			if e != nil {
				err = e
				break loop
			}
			fcel[ar.base+off] = freg[in.a]

		case opLoadI:
			ar := &arrays[in.c]
			off, e := elemOff(ar, pool[in.b:], ireg)
			if e != nil {
				err = e
				break loop
			}
			ireg[in.a] = icel[ar.base+off]
		case opLoadF:
			ar := &arrays[in.c]
			off, e := elemOff(ar, pool[in.b:], ireg)
			if e != nil {
				err = e
				break loop
			}
			freg[in.a] = fcel[ar.base+off]
		case opStoreI:
			ar := &arrays[in.c]
			off, e := elemOff(ar, pool[in.b:], ireg)
			if e != nil {
				err = e
				break loop
			}
			icel[ar.base+off] = ireg[in.a]
		case opStoreF:
			ar := &arrays[in.c]
			off, e := elemOff(ar, pool[in.b:], ireg)
			if e != nil {
				err = e
				break loop
			}
			fcel[ar.base+off] = freg[in.a]

		case opCheck1:
			checks++
			if lhs := int64(in.b) * ireg[in.a]; lhs > in.imm {
				m.trap(p.checks[in.c], lhs)
				break loop
			}

		case opCheckPair:
			t := pool[in.b : in.b+6 : in.b+6]
			v := ireg[in.a]
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
			t := pool[in.a : in.a+4 : in.a+4]
			if lhs := t[0]*ireg[t[1]] + t[2]*ireg[t[3]]; lhs > in.imm {
				m.trap(p.checks[in.c], lhs)
				break loop
			}

		case opCheck:
			checks++
			lhs := int64(0)
			terms := pool[in.a : in.a+2*in.b]
			for k := 0; k+1 < len(terms); k += 2 {
				lhs += terms[k] * ireg[terms[k+1]]
			}
			if lhs > in.imm {
				m.trap(p.checks[in.c], lhs)
				break loop
			}

		case opRangeGuard:
			// Preheader range guard (rce.go): cost-invisible, writes
			// nothing. Pass → fast guard-free copy (a); fail → deopt to
			// the original fully-checked code (imm) with the register
			// state untouched. A chaos-forced spurious failure exercises
			// the deopt path; observables are identical either way
			// because deopt is the original semantics. A bulk-counting
			// guard (c > 0, see bulkPerIter) commits the whole loop's
			// eliminated-check count here — trip × perIter — instead of
			// per-iteration opCkAdds; if that product would overflow it
			// deopts, keeping the count exact the slow way.
			pass, trip := rangeGuardPass(pool, in.b, ireg)
			if disp != nil {
				disp.GuardTerms += uint64(pool[in.b+3])
			}
			if pass && chaos.Active() && chaos.Fire(chaos.SiteRCEGuardFail, funcs[m.fn].name) {
				pass = false
			}
			if pass && in.c > 0 {
				var bulk int64
				if bulk, pass = mulOvf(trip, int64(in.c)); pass {
					checks += uint64(bulk)
					elim += uint64(bulk)
				}
			}
			if pass {
				pc = in.a
			} else {
				pc = int32(in.imm)
				if disp != nil {
					disp.GuardFails++
				}
			}

		case opCkAdd:
			// Stand-in for an eliminated check instruction: count its
			// checks (a) without evaluating them. Its cost field was
			// already charged centrally above, so counters and poll
			// cadence match the checked original exactly.
			checks += uint64(in.a)
			elim += uint64(in.a)

		case opTrapStmt:
			m.trapStmt(in.a)
			break loop

		case opJmp:
			pc = in.a
		case opBr:
			if ireg[in.c] != 0 {
				pc = in.a
			} else {
				pc = in.b
			}

		case opBrEqI:
			if ireg[in.b] == ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrNeI:
			if ireg[in.b] != ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrLtI:
			if ireg[in.b] < ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrLeI:
			if ireg[in.b] <= ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrGtI:
			if ireg[in.b] > ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrGeI:
			if ireg[in.b] >= ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrEqF:
			if freg[in.b] == freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrNeF:
			if freg[in.b] != freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrLtF:
			if freg[in.b] < freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrLeF:
			if freg[in.b] <= freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrGtF:
			if freg[in.b] > freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}
		case opBrGeF:
			if freg[in.b] >= freg[in.c] {
				pc = in.a
			} else {
				pc = int32(in.imm)
			}

		case opCall:
			if pc, err = m.call(in.a, pc); err != nil {
				break loop
			}

		case opRet:
			var ok bool
			if pc, ok = m.ret(); !ok {
				break loop // main returned
			}

		case opPrint:
			m.print(pool[in.a : in.a+in.b])

		case opNop:
			// cost carrier only

		case opFail:
			err = m.fail(in.a)
			break loop

		// ---- fused opcodes (emitted only by Optimize) ----

		case opAffLoadI1, opAffLoadF1, opAffStoreI1, opAffStoreF1:
			// One collapsed affine 1-D access: subscript coef*reg+off
			// with the chain's arithmetic folded into the pool tuple.
			t := pool[in.b : in.b+2 : in.b+2]
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[0]*ireg[in.imm] + t[1]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			switch in.op {
			case opAffLoadI1:
				ireg[in.a] = icel[ar.base+idx-d.lo]
			case opAffLoadF1:
				freg[in.a] = fcel[ar.base+idx-d.lo]
			case opAffStoreI1:
				icel[ar.base+idx-d.lo] = ireg[in.a]
			default:
				fcel[ar.base+idx-d.lo] = freg[in.a]
			}

		case opCPLoadI1, opCPLoadF1, opCPStoreI1, opCPStoreF1:
			// Check pair + access on one subscript register. The pool
			// tuple is the pair's two [coef, K, checkIdx] triples
			// followed by the access's [coef, off]; the access cost is
			// deferred in imm's low 16 bits and charged only after the
			// checks pass, keeping the instruction counter exact at trap
			// exits. The double-pair family below is the same body with
			// the checks unrolled.
			t := pool[in.b : in.b+8 : in.b+8]
			v := ireg[in.imm>>16]
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
			if dc := uint64(uint16(in.imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[6]*v + t[7]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			switch in.op {
			case opCPLoadI1:
				ireg[in.a] = icel[ar.base+idx-d.lo]
			case opCPLoadF1:
				freg[in.a] = fcel[ar.base+idx-d.lo]
			case opCPStoreI1:
				icel[ar.base+idx-d.lo] = ireg[in.a]
			default:
				fcel[ar.base+idx-d.lo] = freg[in.a]
			}

		case opCP2LoadI1, opCP2LoadF1, opCP2StoreI1, opCP2StoreF1:
			t := pool[in.b : in.b+14 : in.b+14]
			v := ireg[in.imm>>16]
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
			if dc := uint64(uint16(in.imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[12]*v + t[13]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			switch in.op {
			case opCP2LoadI1:
				ireg[in.a] = icel[ar.base+idx-d.lo]
			case opCP2LoadF1:
				freg[in.a] = fcel[ar.base+idx-d.lo]
			case opCP2StoreI1:
				icel[ar.base+idx-d.lo] = ireg[in.a]
			default:
				fcel[ar.base+idx-d.lo] = freg[in.a]
			}

		case opCPQLoadI2, opCPQLoadF2, opCPQStoreI2, opCPQStoreF2:
			// Two check pairs + a 2-D access with affine subscripts:
			// pair 0 guards the row root register, pair 1 the column
			// root. imm packs deferredCost<<48 | rowReg<<24 | colReg.
			t := pool[in.b : in.b+16 : in.b+16]
			v0 := ireg[int32(uint64(in.imm)>>24)&0xffffff]
			v1 := ireg[int32(in.imm)&0xffffff]
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
			if dc := uint64(uint16(uint64(in.imm) >> 48)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar := &arrays[in.c]
			d0, d1 := &ar.dims[0], &ar.dims[1]
			i0 := t[12]*v0 + t[13]
			i1 := t[14]*v1 + t[15]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar.name, d0.lo, d0.hi, 1)
				break loop
			}
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar.name, d1.lo, d1.hi, 2)
				break loop
			}
			off := (i0-d0.lo)*d1.size + (i1 - d1.lo)
			switch in.op {
			case opCPQLoadI2:
				ireg[in.a] = icel[ar.base+off]
			case opCPQLoadF2:
				freg[in.a] = fcel[ar.base+off]
			case opCPQStoreI2:
				icel[ar.base+off] = ireg[in.a]
			default:
				fcel[ar.base+off] = freg[in.a]
			}

		case opBinStoreI1:
			// a(idx) = x op y in one dispatch: pool tuple is
			// [kind, srcL, srcR, coef, off], idx register in a.
			t := pool[in.b : in.b+5 : in.b+5]
			var v int64
			switch t[0] {
			case 0:
				v = ireg[t[1]] + ireg[t[2]]
			case 1:
				v = ireg[t[1]] - ireg[t[2]]
			default:
				v = ireg[t[1]] * ireg[t[2]]
			}
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[3]*ireg[in.a] + t[4]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			icel[ar.base+idx-d.lo] = v
		case opBinStoreF1:
			t := pool[in.b : in.b+5 : in.b+5]
			var v float64
			switch t[0] {
			case 0:
				v = freg[t[1]] + freg[t[2]]
			case 1:
				v = freg[t[1]] - freg[t[2]]
			default:
				v = freg[t[1]] * freg[t[2]]
			}
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[3]*ireg[in.a] + t[4]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			fcel[ar.base+idx-d.lo] = v

		case opCheckBlock:
			// A run of consecutive opCheckPair instructions in one
			// dispatch; the per-pair body matches opCheckPair's. Entry
			// costs are deferred: each is charged immediately before its
			// pair, where the unfused run charged it, so the counter and
			// poll cadence match at every trap exit. preChecks (e[1])
			// counts pairs the fuser proved implied by earlier entries —
			// charged and counted, never evaluated. reg < 0 is a
			// trailing implied lump with no pair of its own.
			t := pool[in.b : in.b+9*int32(in.imm)]
			for ; len(t) >= 9; t = t[9:] {
				if dc := uint64(t[0]); dc != 0 {
					instrs += dc
					if instrs > costThr {
						if costThr, err = m.recharge(instrs); err != nil {
							break loop
						}
					}
				}
				checks += uint64(t[1])
				elim += uint64(t[1])
				r := t[2]
				if r < 0 {
					if r == -1 {
						continue
					}
					// Absorbed opCheck1/opCheck2: one evaluated
					// two-register term [_, _, -2, ra, rb, ca, cb, K, idx].
					checks++
					if lhs := t[5]*ireg[t[3]] + t[6]*ireg[t[4]]; lhs > t[7] {
						m.trap(p.checks[t[8]], lhs)
						break loop
					}
					continue
				}
				v := ireg[r]
				checks += 2
				if lhs := t[3] * v; lhs > t[4] {
					checks--
					m.trap(p.checks[t[5]], lhs)
					break loop
				}
				if lhs := t[6] * v; lhs > t[7] {
					m.trap(p.checks[t[8]], lhs)
					break loop
				}
			}

		case opAddJmp:
			// Loop latch: reg += delta; goto target.
			ireg[in.b] += in.imm
			pc = in.a
		case opIncBrEqI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v == ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}
		case opIncBrNeI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v != ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}
		case opIncBrLtI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v < ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}
		case opIncBrLeI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v <= ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}
		case opIncBrGtI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v > ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}
		case opIncBrGeI:
			v := ireg[in.b] + int64(int32(uint32(in.imm)))
			ireg[in.b] = v
			if v >= ireg[in.c] {
				pc = in.a
			} else {
				pc = int32(uint64(in.imm) >> 32)
			}

		case opBinBinF:
			// Two chained float binops; pure, so both charges ride the
			// central cost. The second op's code folds side and kind
			// into one jump table: 0-3 t k z, 4-7 z k t, 8-11 t k t.
			t := pool[in.b : in.b+5 : in.b+5]
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
				freg[in.a] = u + freg[t[4]]
			case 1:
				freg[in.a] = u - freg[t[4]]
			case 2:
				freg[in.a] = u * freg[t[4]]
			case 3:
				freg[in.a] = u / freg[t[4]]
			case 4:
				freg[in.a] = freg[t[4]] + u
			case 5:
				freg[in.a] = freg[t[4]] - u
			case 6:
				freg[in.a] = freg[t[4]] * u
			case 7:
				freg[in.a] = freg[t[4]] / u
			case 8:
				freg[in.a] = u + u
			case 9:
				freg[in.a] = u - u
			case 10:
				freg[in.a] = u * u
			default:
				freg[in.a] = u / u
			}

		case opLoadBinF1:
			// Affine 1-D float load + binop; the binop's charge defers
			// past the load's bounds fault. t[2] folds side and kind:
			// 0-3 v k s, 4-7 s k v, 8-11 v k v.
			t := pool[in.b : in.b+4 : in.b+4]
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[0]*ireg[uint64(in.imm)>>32] + t[1]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			v := fcel[ar.base+idx-d.lo]
			if dc := uint64(uint32(in.imm)); dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			switch t[2] {
			case 0:
				freg[in.a] = v + freg[t[3]]
			case 1:
				freg[in.a] = v - freg[t[3]]
			case 2:
				freg[in.a] = v * freg[t[3]]
			case 3:
				freg[in.a] = v / freg[t[3]]
			case 4:
				freg[in.a] = freg[t[3]] + v
			case 5:
				freg[in.a] = freg[t[3]] - v
			case 6:
				freg[in.a] = freg[t[3]] * v
			case 7:
				freg[in.a] = freg[t[3]] / v
			case 8:
				freg[in.a] = v + v
			case 9:
				freg[in.a] = v - v
			case 10:
				freg[in.a] = v * v
			default:
				freg[in.a] = v / v
			}

		case opLLBinF1:
			// Two affine 1-D float loads + binop. dc1 charges between
			// the loads' fault points, dc2 after the second — the
			// unfused charge order exactly.
			t := pool[in.b : in.b+6 : in.b+6]
			u := uint64(in.imm)
			ar0 := &arrays[in.c]
			d0 := &ar0.dims[0]
			i0 := t[0]*ireg[u>>48] + t[1]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar0.name, d0.lo, d0.hi, 1)
				break loop
			}
			x := fcel[ar0.base+i0-d0.lo]
			if dc := (u >> 16) & 0xffff; dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			ar1 := &arrays[t[2]]
			d1 := &ar1.dims[0]
			i1 := t[3]*ireg[(u>>32)&0xffff] + t[4]
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar1.name, d1.lo, d1.hi, 1)
				break loop
			}
			y := fcel[ar1.base+i1-d1.lo]
			if dc := u & 0xffff; dc != 0 {
				instrs += dc
				if instrs > costThr {
					if costThr, err = m.recharge(instrs); err != nil {
						break loop
					}
				}
			}
			switch t[5] {
			case 0:
				freg[in.a] = x + y
			case 1:
				freg[in.a] = x - y
			case 2:
				freg[in.a] = x * y
			case 3:
				freg[in.a] = x / y
			case 4:
				freg[in.a] = y + x
			case 5:
				freg[in.a] = y - x
			case 6:
				freg[in.a] = y * x
			default:
				freg[in.a] = y / x
			}

		case opLoadBinF2:
			// Affine 2-D float load + binop; the binop's charge defers
			// past the load's faults. t[4] folds side and kind like
			// opLoadBinF1.
			t := pool[in.b : in.b+6 : in.b+6]
			u := uint64(in.imm)
			ar := &arrays[in.c]
			d0, d1 := &ar.dims[0], &ar.dims[1]
			i0 := t[0]*ireg[u>>48] + t[1]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar.name, d0.lo, d0.hi, 1)
				break loop
			}
			i1 := t[2]*ireg[(u>>32)&0xffff] + t[3]
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar.name, d1.lo, d1.hi, 2)
				break loop
			}
			v := fcel[ar.base+(i0-d0.lo)*d1.size+(i1-d1.lo)]
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
				freg[in.a] = v + freg[t[5]]
			case 1:
				freg[in.a] = v - freg[t[5]]
			case 2:
				freg[in.a] = v * freg[t[5]]
			case 3:
				freg[in.a] = v / freg[t[5]]
			case 4:
				freg[in.a] = freg[t[5]] + v
			case 5:
				freg[in.a] = freg[t[5]] - v
			case 6:
				freg[in.a] = freg[t[5]] * v
			case 7:
				freg[in.a] = freg[t[5]] / v
			case 8:
				freg[in.a] = v + v
			case 9:
				freg[in.a] = v - v
			case 10:
				freg[in.a] = v * v
			default:
				freg[in.a] = v / v
			}

		case opAffLoadI2, opAffLoadF2, opAffStoreI2, opAffStoreF2:
			// One collapsed affine 2-D access; subscripts fault in
			// dimension order like elemOff2.
			t := pool[in.b : in.b+4 : in.b+4]
			ar := &arrays[in.c]
			d0, d1 := &ar.dims[0], &ar.dims[1]
			i0 := t[0]*ireg[uint64(in.imm)>>32] + t[1]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar.name, d0.lo, d0.hi, 1)
				break loop
			}
			i1 := t[2]*ireg[uint32(in.imm)] + t[3]
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar.name, d1.lo, d1.hi, 2)
				break loop
			}
			off := (i0-d0.lo)*d1.size + (i1 - d1.lo)
			switch in.op {
			case opAffLoadI2:
				ireg[in.a] = icel[ar.base+off]
			case opAffLoadF2:
				freg[in.a] = fcel[ar.base+off]
			case opAffStoreI2:
				icel[ar.base+off] = ireg[in.a]
			default:
				fcel[ar.base+off] = freg[in.a]
			}

		case opBinStoreF2:
			// m(s0,s1) = x op y, unchecked, affine subscripts. Cost is
			// central: binop, chains, and store were all charged before
			// the store's fault.
			t := pool[in.b : in.b+7 : in.b+7]
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
			ar := &arrays[in.c]
			d0, d1 := &ar.dims[0], &ar.dims[1]
			i0 := t[3]*ireg[uint64(in.imm)>>32] + t[4]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar.name, d0.lo, d0.hi, 1)
				break loop
			}
			i1 := t[5]*ireg[uint32(in.imm)] + t[6]
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar.name, d1.lo, d1.hi, 2)
				break loop
			}
			fcel[ar.base+(i0-d0.lo)*d1.size+(i1-d1.lo)] = v

		case opBinBinStoreF1:
			// a(s) = (x k0 y) k1 z, unchecked 1-D affine store. Value
			// chain is opBinBinF's; cost is central.
			t := pool[in.b : in.b+7 : in.b+7]
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
			ar := &arrays[in.c]
			d := &ar.dims[0]
			idx := t[5]*ireg[in.a] + t[6]
			if idx < d.lo || idx > d.hi {
				err = interp.SubscriptError(idx, ar.name, d.lo, d.hi, 1)
				break loop
			}
			fcel[ar.base+idx-d.lo] = v

		case opBinBinStoreF2:
			// m(s0,s1) = (x k0 y) k1 z, unchecked 2-D affine store.
			t := pool[in.b : in.b+9 : in.b+9]
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
			ar := &arrays[in.c]
			d0, d1 := &ar.dims[0], &ar.dims[1]
			i0 := t[5]*ireg[uint64(in.imm)>>32] + t[6]
			if i0 < d0.lo || i0 > d0.hi {
				err = interp.SubscriptError(i0, ar.name, d0.lo, d0.hi, 1)
				break loop
			}
			i1 := t[7]*ireg[uint32(in.imm)] + t[8]
			if i1 < d1.lo || i1 > d1.hi {
				err = interp.SubscriptError(i1, ar.name, d1.lo, d1.hi, 2)
				break loop
			}
			fcel[ar.base+(i0-d0.lo)*d1.size+(i1-d1.lo)] = v

		default:
			err = fmt.Errorf("vm: bad opcode %d at pc %d", in.op, pc-1)
			break loop
		}
	}

	if disp != nil {
		disp.ChecksEliminated += elim
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
func elemOff(ar *arrayInfo, idxRegs []int64, ireg []int64) (int64, error) {
	off := int64(0)
	for k := range ar.dims {
		d := &ar.dims[k]
		v := ireg[idxRegs[k]]
		if v < d.lo || v > d.hi {
			return 0, interp.SubscriptError(v, ar.name, d.lo, d.hi, k+1)
		}
		off = off*d.size + (v - d.lo)
	}
	return off, nil
}

// elemOff2 is elemOff for the 2-D fast-path opcodes, whose index
// registers ride the instruction's imm field instead of the pool.
// Subscripts fault in dimension order, like elemOff.
func elemOff2(ar *arrayInfo, imm int64, ireg []int64) (int64, error) {
	d0, d1 := &ar.dims[0], &ar.dims[1]
	v0 := ireg[int32(uint64(imm)>>32)]
	if v0 < d0.lo || v0 > d0.hi {
		return 0, interp.SubscriptError(v0, ar.name, d0.lo, d0.hi, 1)
	}
	v1 := ireg[uint32(imm)]
	if v1 < d1.lo || v1 > d1.hi {
		return 0, interp.SubscriptError(v1, ar.name, d1.lo, d1.hi, 2)
	}
	return (v0-d0.lo)*d1.size + (v1 - d1.lo), nil
}

// checkTrap renders one failed range check's trap fields, shared by the
// general and specialized check opcodes.
func checkTrap(cs checkInfo, lhs int64) (string, interp.TrapClass, source.Pos) {
	note := fmt.Sprintf("%s failed (lhs=%d) [%s]", cs.str, lhs, cs.note)
	return note, interp.TrapCheck, cs.pos
}
