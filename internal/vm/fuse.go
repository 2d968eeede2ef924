package vm

// Superinstruction fusion (pass 3 of the optimizer, see opt.go).
//
// Fusion is block-local: every pattern requires its instructions to be
// kept-adjacent inside one basic block, which makes leader safety
// automatic — blocks are maximal branch-target-free runs, so a jump
// can only enter at the first fused slot, where it executes the whole
// fused sequence exactly as the unfused path did. Poll points need no
// special casing for the same reason budget points need none: every
// fused instruction charges the same total cost at the same observable
// boundary (centrally for pre-check work, deferred for post-check
// work), so the poll cadence shifts only within a statement, which no
// observable depends on. A check, however, is a fusion *barrier* in
// one direction: cost may never migrate from before a check to after
// one (or vice versa), because the instruction counter is observable
// at every trap exit. The deferred-cost encoding below exists solely
// to respect that barrier.
//
// Blocks are visited in loop-nest-weighted order (depth descending,
// then program order) so the hottest blocks' operand tuples are
// appended to the pool first and stay contiguous in cache.

// Fused opcodes, emitted only by Optimize. Layout notes use the same
// a/b/c/imm/pool conventions as compile.go.
const (
	// opCheckPair + 1-D access subscripted by the pair's register.
	// pool[b:] = [c0, K0, ci0, c1, K1, ci1];
	// imm = reg<<16 | deferredCost. The deferred cost (the access) is
	// charged only after the checks pass — exactly where the unfused
	// sequence charged it — so the counter matches at a check trap and
	// at a bounds fault. The cost field stays central and carries only
	// cost folded in from before the checks.
	opCPLoadI1 uint8 = opStoreF2 + 1 + iota
	opCPLoadF1
	opCPStoreI1
	opCPStoreF1

	// Two opCheckPairs + 1-D access, all on the same register — the
	// dominant a(i) = f(a(i)) shape, where the load pair and store
	// pair guard one subscript. pool[b:] = [pair0 6][pair1 6];
	// imm = reg<<16 | deferredCost.
	opCP2LoadI1
	opCP2LoadF1
	opCP2StoreI1
	opCP2StoreF1

	// Two opCheckPairs + 2-D access with affine subscripts: pair0
	// guards the row root register, pair1 the column root.
	// pool[b:] = [pair0 6][pair1 6][c0, off0, c1, off1]; the access
	// subscripts are c0*ireg[r0]+off0 and c1*ireg[r1]+off1, absorbing
	// the collapsed addressing chains. imm = deferredCost<<48 |
	// r0<<24 | r1; the deferred lump carries the chains and the
	// access, all charged after the pairs in the unfused order.
	opCPQLoadI2
	opCPQLoadF2
	opCPQStoreI2
	opCPQStoreF2

	// A run of consecutive opCheckPair instructions in one dispatch.
	// pool[b:] holds imm 8-wide entries
	// [cost, reg, c0, K0, idx0, c1, K1, idx1]: one register read per
	// pair, two constant-coefficient checks — the same body the
	// specialized opCheckPair case runs, minus the dispatch. Entry
	// costs are deferred — charged immediately before their pair,
	// exactly where the unfused run charged them — so the instruction
	// counter and the poll cadence are identical at every trap exit.
	// The instruction's own cost field carries the first pair's
	// (central) charge; its entry cost is zero. An absorbed
	// opCheck1/opCheck2 is an entry with reg = -1 (see checkEntry).
	// Every entry is evaluated: the block removes dispatches, never
	// checks.
	opCheckBlock

	// Loop latch: ireg[b] += imm, then jump to a. (i = i + step; goto
	// header).
	opAddJmp

	// Loop latch fused with its exit test: ireg[b] += delta, then
	// branch on ireg[b] <cmp> ireg[c]. a = true pc;
	// imm = falsePC<<32 | uint32(delta). Contiguous in
	// ir.OpEq..ir.OpGe order like the other branch families.
	opIncBrEqI
	opIncBrNeI
	opIncBrLtI
	opIncBrLeI
	opIncBrGtI
	opIncBrGeI

	// Two chained float binops: d = (x k0 y) code z, the first result
	// a dying scratch the second consumes. pool[b:] =
	// [k0, x, y, code, z]; kinds 0=add 1=sub 2=mul 3=div (IEEE float,
	// no fault, so the pair is pure and the whole cost stays central).
	// code folds the second op's operand side and kind into one jump
	// table: kind+0 t k z, +4 z k t, +8 t k t.
	opBinBinF

	// 1-D float load feeding a float binop: d = load k other.
	// pool[b:] = [code, src]; c = array ID; code = kind+0
	// v k s, +4 s k v, +8 v k v. imm = root<<32 | deferredCost (the
	// binop's charge, deferred past the load's bounds fault).
	opLoadBinF1

	// Two 1-D float loads feeding one float binop:
	// d = load0 k load1 (k+4: operands reversed, load order — and so
	// fault order — kept). pool[b:] = [arr1, k];
	// c = array 0; imm = r0<<48 | r1<<32 | dc1<<16 | dc2: dc1 is
	// charged between the loads' fault points, dc2 after the second.
	opLLBinF1

	// Affine 2-D float load feeding a float binop.
	// pool[b:] = [c0, o0, c1, o1, code, src] with opLoadBinF1's code;
	// c = array ID; imm = r0<<48 | r1<<32 | deferredCost.
	opLoadBinF2

	// Plain affine 2-D access: both subscripts are collapsed affine
	// chains c*ireg[r]+o. pool[b:] = [c0, o0, c1, o1];
	// imm = r0<<32 | r1 (packRegs). Cost central: chain and access
	// were both charged before the fault.
	opAffLoadI2
	opAffLoadF2
	opAffStoreI2
	opAffStoreF2

	// Float binop fused into an unchecked 2-D store with affine
	// subscripts: m(s0,s1) = x k y.
	// pool[b:] = [kind, srcL, srcR, c0, o0, c1, o1]; c = array;
	// imm = r0<<32 | r1. Cost central.
	opBinStoreF2

	// Two chained float binops feeding an unchecked store: the
	// a(s) = (x k0 y) k1 z statement with a three-op value chain.
	// pool[b:] = [k0, x, y, code, z, ...subscript] where code is
	// opBinBinF's side*4+kind encoding; the 1-D form is subscripted
	// by register a, the 2-D form appends [c0, o0, c1, o1]
	// (imm = r0<<32 | r1). c = array ID. Cost is
	// central: the whole chain was charged before the store's fault.
	opBinBinStoreF1
	opBinBinStoreF2

	numOps = int(opBinBinStoreF2) + 1
)

var opNames = [numOps]string{
	opFail: "fail", opMovI: "movi", opMovF: "movf",
	opAddI: "addi", opSubI: "subi", opMulI: "muli", opDivI: "divi", opNegI: "negi",
	opAddF: "addf", opSubF: "subf", opMulF: "mulf", opDivF: "divf", opNegF: "negf",
	opEqI: "eqi", opNeI: "nei", opLtI: "lti", opLeI: "lei", opGtI: "gti", opGeI: "gei",
	opEqF: "eqf", opNeF: "nef", opLtF: "ltf", opLeF: "lef", opGtF: "gtf", opGeF: "gef",
	opAndB: "andb", opOrB: "orb", opNotB: "notb",
	opModI: "modi", opAbsI: "absi", opMinI: "mini", opMaxI: "maxi",
	opModF: "modf", opAbsF: "absf", opSqrtF: "sqrtf", opMinF: "minf", opMaxF: "maxf",
	opI2F: "i2f", opF2I: "f2i",
	opLoadI: "loadi", opLoadF: "loadf", opStoreI: "storei", opStoreF: "storef",
	opLoadI1: "loadi1", opLoadF1: "loadf1", opStoreI1: "storei1", opStoreF1: "storef1",
	opCheck: "check", opTrapStmt: "trap",
	opJmp: "jmp", opBr: "br", opCall: "call", opRet: "ret", opPrint: "print", opNop: "nop",
	opCheck1: "check1", opCheck2: "check2", opCheckPair: "checkpair",
	opBrEqI: "breqi", opBrNeI: "brnei", opBrLtI: "brlti", opBrLeI: "brlei", opBrGtI: "brgti", opBrGeI: "brgei",
	opBrEqF: "breqf", opBrNeF: "brnef", opBrLtF: "brltf", opBrLeF: "brlef", opBrGtF: "brgtf", opBrGeF: "brgef",
	opLoadI2: "loadi2", opLoadF2: "loadf2", opStoreI2: "storei2", opStoreF2: "storef2",
	opCPLoadI1: "cploadi1", opCPLoadF1: "cploadf1", opCPStoreI1: "cpstorei1", opCPStoreF1: "cpstoref1",
	opCP2LoadI1: "cp2loadi1", opCP2LoadF1: "cp2loadf1", opCP2StoreI1: "cp2storei1", opCP2StoreF1: "cp2storef1",
	opCPQLoadI2: "cpqloadi2", opCPQLoadF2: "cpqloadf2", opCPQStoreI2: "cpqstorei2", opCPQStoreF2: "cpqstoref2",
	opCheckBlock: "checkblock",
	opAddJmp:     "addjmp",
	opIncBrEqI:   "incbreqi", opIncBrNeI: "incbrnei", opIncBrLtI: "incbrlti",
	opIncBrLeI: "incbrlei", opIncBrGtI: "incbrgti", opIncBrGeI: "incbrgei",
	opBinBinF: "binbinf", opLoadBinF1: "loadbinf1", opLLBinF1: "llbinf1", opLoadBinF2: "loadbinf2",
	opAffLoadI2: "affloadi2", opAffLoadF2: "affloadf2", opAffStoreI2: "affstorei2", opAffStoreF2: "affstoref2",
	opBinStoreF2:    "binstoref2",
	opBinBinStoreF1: "binbinstoref1", opBinBinStoreF2: "binbinstoref2",
}

// OpName returns the mnemonic of an opcode, for DispatchStats output.
func OpName(op uint8) string {
	if int(op) < numOps && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

const maxCost = 0xffff

// fuse runs the superinstruction patterns over every block, hottest
// first.
func (o *optimizer) fuse() {
	o.order = fit(o.order, len(o.blocks))
	order := o.order
	for i := range order {
		order[i] = i
	}
	// Loop-nest-weighted ordering: deeper blocks first so their operand
	// tuples land first (and contiguously) in the pool.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := o.blocks[order[j-1]], o.blocks[order[j]]
			if b.depth > a.depth || (b.depth == a.depth && b.start < a.start) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	for _, bi := range order {
		b := o.blocks[bi]
		o.fuseChecks(b)
		o.fuseCheckBlocks(b)
		o.fuse2D(b)
		o.fuseBins(b)
		o.fuseLatch(b)
	}
	o.threadLatches()
}

// threadLatches redirects back edges that land on a do-loop header
// test straight at the test's own targets. After fuseLatch, a counted
// loop still spends two dispatches per iteration: [opAddJmp] at the
// latch and the header's [opBr*I] re-test. When the header slot is
// exactly that conditional branch and it tests the incremented
// register, the latch becomes an opIncBr* carrying both targets
// (taken = loop body, fallen = loop exit), and the header branch is
// kept in place only for the initial entry. The fused latch charges
// the header test's cost on every trip — back edge and exit alike —
// which is precisely the sequence the unthreaded pair charges, so the
// instruction counter agrees at every poll crossing and observable
// exit. Plain [opJmp] hops onto a header test thread the same way
// with a zero increment.
func (o *optimizer) threadLatches() {
	for i := range o.code {
		in := &o.code[i]
		if o.dead[i] {
			continue
		}
		isAdd := in.Op == opAddJmp
		if !isAdd && in.Op != opJmp {
			continue
		}
		h := in.A
		if h < 0 || int(h) >= len(o.code) || o.dead[h] {
			continue
		}
		br := &o.code[h]
		if br.Op < opBrEqI || br.Op > opBrGeI || br.B == br.C {
			continue
		}
		var reg int32
		var delta int64
		if isAdd {
			reg, delta = in.B, in.Imm
			if br.B != reg || delta != int64(int32(delta)) {
				continue
			}
		} else {
			reg = br.B
		}
		cost := uint32(in.Cost) + uint32(br.Cost)
		if cost > maxCost || br.Imm < 0 || br.Imm > int64(len(o.code)) {
			continue
		}
		*in = Instr{
			Op: opIncBrEqI + (br.Op - opBrEqI), A: br.A, B: reg, C: br.C,
			Cost: uint16(cost), Imm: br.Imm<<32 | int64(uint32(int32(delta))),
		}
	}
}

// prevKept returns the nearest surviving instruction before i in the
// block (-1 if none) and the summed cost of the dead instructions
// skipped on the way.
func (o *optimizer) prevKept(i, start int32) (int32, uint32) {
	skipped := uint32(0)
	for j := i - 1; j >= start; j-- {
		if !o.dead[j] {
			return j, skipped
		}
		skipped += uint32(o.code[j].Cost)
	}
	return -1, skipped
}

// zeroSkipped clears the cost of dead instructions in (from, to): their
// cost has been absorbed into a fused instruction, so compaction must
// not fold it forward a second time.
func (o *optimizer) zeroSkipped(from, to int32) {
	for j := from + 1; j < to; j++ {
		if o.dead[j] {
			o.code[j].Cost = 0
		}
	}
}

func (o *optimizer) isConstSlot(r int32) (int64, bool) {
	if r >= o.nVars && r < o.nVars+o.nConst {
		return o.in.iconsts[r-o.nVars], true
	}
	return 0, false
}

func (o *optimizer) isScratchI(r int32) bool { return r >= o.nVars+o.nConst }

// affineOf resolves the value of register reg at instruction acc as
// coef*ireg[root] + off by walking the defining chain backward through
// the block, absorbing pure affine steps (mov, neg, add/sub/mul with
// one constant operand). Signed overflow wraps identically before and
// after: Go's int64 ops are arithmetic mod 2^64, where distributing
// coef is exact.
//
// The walk crosses intervening pure instructions, tracking what they
// read (used) and write (defd): a def is absorbed only when nothing
// after it still reads its target (the def can be deleted), nothing
// after it rewrites the register it reads (moving the read to acc
// sees the same value), and the target dies at acc. Crossing anything
// impure ends absorption — the absorbed cost moves to acc's position,
// which must not cross an observable exit (a check trap, fault, or
// print) or the instruction counter would differ there. seeds lists
// combined-space bits acc itself reads besides reg (a store's value
// register, a 2-D access's other subscript); absorbing their defs is
// forbidden.
//
// chain lists the absorbed instructions; the caller commits by
// marking them dead with zero cost and charging cost at acc.
func (o *optimizer) affineOf(acc, reg int32, b block, seeds ...int32) (root int32, coef, off int64, chain []int32, cost uint32) {
	root, coef, off = reg, 1, 0
	used, defd := o.tUsed, o.tDefd
	used.clearAll()
	defd.clearAll()
	for _, s := range seeds {
		used.set(s)
	}
	for j := acc - 1; j >= b.start && len(chain) < 8; j-- {
		if o.dead[j] {
			continue
		}
		if !o.isScratchI(root) {
			break
		}
		cj := &o.code[j]
		if cj.Op > opStoreF2 || (!instrPure(cj.Op) && o.instrDef(cj) != o.ibit(root)) {
			// Fused or impure instruction: absorption beyond here would
			// move cost across an observable exit.
			break
		}
		if o.instrDef(cj) == o.ibit(root) {
			next := int32(-1)
			nCoef, nOff := coef, off
			switch cj.Op {
			case opMovI:
				next = cj.B
			case opNegI:
				next = cj.B
				nCoef = -coef
			case opAddI:
				if k, ok := o.isConstSlot(cj.C); ok {
					next = cj.B
					nOff = off + coef*k
				} else if k, ok := o.isConstSlot(cj.B); ok {
					next = cj.C
					nOff = off + coef*k
				}
			case opSubI:
				if k, ok := o.isConstSlot(cj.C); ok {
					next = cj.B
					nOff = off - coef*k
				} else if k, ok := o.isConstSlot(cj.B); ok {
					next = cj.C
					nOff = off + coef*k
					nCoef = -coef
				}
			case opMulI:
				if k, ok := o.isConstSlot(cj.C); ok {
					next = cj.B
					nCoef = coef * k
				} else if k, ok := o.isConstSlot(cj.B); ok {
					next = cj.C
					nCoef = coef * k
				}
			}
			if next < 0 ||
				used.has(o.ibit(root)) ||
				defd.has(o.ibit(next)) ||
				o.liveOut[acc].has(o.ibit(root)) ||
				cost+uint32(cj.Cost) > maxCost {
				break
			}
			cost += uint32(cj.Cost)
			chain = append(chain, j)
			root, coef, off = next, nCoef, nOff
			continue
		}
		if o.instrUses(cj, func(bit int32) { used.set(bit) }) {
			break // call: reads everything
		}
		if d := o.instrDef(cj); d >= 0 {
			defd.set(d)
		}
	}
	return root, coef, off, chain, cost
}

// commitChain deletes an absorbed chain; its cost has been charged at
// the consuming access.
func (o *optimizer) commitChain(chain []int32) {
	for _, j := range chain {
		o.dead[j] = true
		o.code[j].Cost = 0
	}
}

// accessShape extracts the uniform view of a fusable 1-D access: its
// subscript register and element type/direction.
func accessShape(in *Instr) (base int32, isLoad, isFloat, ok bool) {
	switch in.Op {
	case opLoadI1:
		return in.B, true, false, true
	case opLoadF1:
		return in.B, true, true, true
	case opStoreI1:
		return in.B, false, false, true
	case opStoreF1:
		return in.B, false, true, true
	}
	return 0, false, false, false
}

// fuseChecks folds opCheckPair instructions into the 1-D or 2-D
// access they immediately guard. The access's cost (plus any dead
// cost inside the check→access span) becomes the fused instruction's
// deferred cost, charged after the checks pass.
func (o *optimizer) fuseChecks(b block) {
	for i := b.start; i < b.end; i++ {
		if o.dead[i] {
			continue
		}
		in := &o.code[i]

		// 2-D: [pair root0][pair root1][chains][access2]. The subscript
		// registers resolve through their affine chains to the roots
		// the pairs guard (the checks' linear forms are in loop
		// variables, the access in scratch computed from them).
		switch in.Op {
		case opLoadI2, opLoadF2, opStoreI2, opStoreF2:
			r0 := int32(uint64(in.Imm) >> 32)
			r1 := int32(uint32(in.Imm))
			seeds := []int32{o.ibit(r1)}
			if in.Op == opStoreI2 {
				seeds = append(seeds, o.ibit(in.A))
			} else if in.Op == opStoreF2 {
				seeds = append(seeds, o.fbit(in.A))
			}
			root0, c0, off0, chain0, cc0 := o.affineOf(i, r0, b, seeds...)
			root1, c1v, off1 := root0, c0, off0
			var chain1 []int32
			cc1 := uint32(0)
			if r1 != r0 {
				// Seed with the row subscript's pre- and post-resolution
				// registers so the two chains can never claim one def.
				seeds[0] = o.ibit(r0)
				root1, c1v, off1, chain1, cc1 = o.affineOf(i, r1, b, append(seeds, o.ibit(root0))...)
			}
			inChain := func(j int32) bool {
				for _, k := range chain0 {
					if k == j {
						return true
					}
				}
				for _, k := range chain1 {
					if k == j {
						return true
					}
				}
				return false
			}
			// Nearest kept instruction, skipping dead slots (their cost
			// joins the deferred lump) and uncommitted chain members
			// (counted separately as cc0+cc1).
			prev := func(from int32) (int32, uint32) {
				sk := uint32(0)
				for j := from - 1; j >= b.start; j-- {
					if o.dead[j] {
						sk += uint32(o.code[j].Cost)
						continue
					}
					if inChain(j) {
						continue
					}
					return j, sk
				}
				return -1, sk
			}
			p1, skip1 := prev(i)
			if p1 < 0 || o.code[p1].Op != opCheckPair || o.code[p1].A != root1 {
				continue
			}
			p0, skip0 := prev(p1)
			// Dead cost between the two pairs would have been charged
			// between their traps; it cannot join the deferred lump.
			if p0 < 0 || skip0 != 0 || o.code[p0].Op != opCheckPair || o.code[p0].A != root0 || o.code[p1].Cost != 0 {
				continue
			}
			deferred := uint32(in.Cost) + skip1 + cc0 + cc1
			if deferred > maxCost || root0 >= 1<<24 || root1 >= 1<<24 || root0 < 0 || root1 < 0 {
				continue
			}
			tup := int32(len(o.pool))
			o.pool = append(o.pool, o.pool[o.code[p0].B:o.code[p0].B+6]...)
			o.pool = append(o.pool, o.pool[o.code[p1].B:o.code[p1].B+6]...)
			o.pool = append(o.pool, c0, off0, c1v, off1)
			var op uint8
			switch in.Op {
			case opLoadI2:
				op = opCPQLoadI2
			case opLoadF2:
				op = opCPQLoadF2
			case opStoreI2:
				op = opCPQStoreI2
			default:
				op = opCPQStoreF2
			}
			fused := Instr{
				Op: op, A: in.A, B: tup, C: in.C,
				Cost: o.code[p0].Cost,
				Imm:  int64(deferred)<<48 | int64(root0)<<24 | int64(root1),
			}
			o.commitChain(chain0)
			o.commitChain(chain1)
			o.zeroSkipped(p1, i)
			o.dead[p1] = true
			o.code[p1] = Instr{Op: opNop}
			o.dead[i] = true
			*in = Instr{Op: opNop}
			o.code[p0] = fused
			continue
		}

		base, isLoad, isFloat, ok := accessShape(in)
		if !ok {
			continue
		}
		p1, skip1 := o.prevKept(i, b.start)
		if p1 < 0 || o.code[p1].Op != opCheckPair || o.code[p1].A != base {
			continue
		}
		c1 := &o.code[p1]
		deferred := uint32(in.Cost) + skip1
		if deferred > maxCost || base < 0 {
			continue
		}
		// A second pair on the same register right before the first
		// makes the double-pair form: [pair][pair][access].
		at, family := p1, uint8(opCPLoadI1)
		p0, skip0 := o.prevKept(p1, b.start)
		double := p0 >= 0 && skip0 == 0 && c1.Cost == 0 &&
			o.code[p0].Op == opCheckPair && o.code[p0].A == base
		tup := int32(len(o.pool))
		if double {
			o.pool = append(o.pool, o.pool[o.code[p0].B:o.code[p0].B+6]...)
			at, family = p0, opCP2LoadI1
		}
		o.pool = append(o.pool, o.pool[c1.B:c1.B+6]...)
		fused := Instr{Op: pickAccessOp(family, isLoad, isFloat), A: in.A, B: tup, C: in.C,
			Cost: o.code[at].Cost, Imm: int64(base)<<16 | int64(deferred)}
		o.zeroSkipped(p1, i)
		if double {
			o.dead[p1] = true
			o.code[p1] = Instr{Op: opNop}
		}
		o.dead[i] = true
		*in = Instr{Op: opNop}
		o.code[at] = fused
	}
}

// pickAccessOp maps a family's base opcode (the int load variant) to
// the right member: base+0 loadI, +1 loadF, +2 storeI, +3 storeF.
func pickAccessOp(family uint8, isLoad, isFloat bool) uint8 {
	op := family
	if !isLoad {
		op += 2
	}
	if isFloat {
		op++
	}
	return op
}

// fuseCheckBlocks collapses each maximal run of consecutive
// opCheckPair instructions left over after access fusion into one
// opCheckBlock. Multi-access statements emit every access's checks up
// front, so the pairs that could not ride along with an access (only
// the nearest ones can — moving an access across another access's
// checks would reorder observable exits) still dominate dispatch; a
// run of N pairs becomes one dispatch here. Dead instructions inside
// the run fold their cost into the following entry, which charges it
// at the same pre-check point the original order did. opCheck1 and
// opCheck2 join the run as tagged single-term entries (the generic
// two-register evaluation, reg slot -1), so the guard clusters of
// two-register subscripts collapse into the same block instead of
// splitting it.
func (o *optimizer) fuseCheckBlocks(b block) {
	blockable := func(op uint8) bool {
		return op == opCheckPair || op == opCheck1 || op == opCheck2
	}
	for i := b.start; i < b.end; i++ {
		if o.dead[i] || !blockable(o.code[i].Op) {
			continue
		}
		// The first member's cost stays central; every later entry
		// carries its own cost plus the dead cost just before it.
		entries := o.checkEntry(o.entries[:0], &o.code[i], 0)
		pend := int64(0)
		end := i
		for j := i + 1; j < b.end; j++ {
			if o.dead[j] {
				pend += int64(o.code[j].Cost)
				continue
			}
			if !blockable(o.code[j].Op) {
				break
			}
			entries = o.checkEntry(entries, &o.code[j], pend+int64(o.code[j].Cost))
			pend = 0
			end = j
		}
		o.entries = entries
		if end == i {
			continue
		}
		tup := int32(len(o.pool))
		o.pool = append(o.pool, entries...)
		first := o.code[i]
		// Members and the dead slots between them are absorbed: their
		// cost now rides on the entries.
		for j := i + 1; j <= end; j++ {
			o.dead[j] = true
			o.code[j] = Instr{Op: opNop}
		}
		o.code[i] = Instr{Op: opCheckBlock, B: tup, Cost: first.Cost,
			Imm: int64(len(entries) / 8)}
		i = end
	}
}

// checkEntry appends the opCheckBlock entry of one blockable check,
// charging cost before it.
func (o *optimizer) checkEntry(entries []int64, in *Instr, cost int64) []int64 {
	if in.Op == opCheckPair {
		t := o.pool[in.B : in.B+6]
		return append(entries, cost, int64(in.A), t[0], t[1], t[2], t[3], t[4], t[5])
	}
	// opCheck1/opCheck2: one two-register term
	// [cost, -1, ra, rb, ca, cb, K, idx].
	ra, rb, ca, cb := int64(in.A), int64(in.A), int64(in.B), int64(0)
	if in.Op == opCheck2 {
		t := o.pool[in.A : in.A+4]
		ra, rb, ca, cb = t[1], t[3], t[0], t[2]
	}
	return append(entries, cost, -1, ra, rb, ca, cb, in.Imm, int64(in.C))
}

// fuseLatch folds the do-loop latch [i += step][goto header] (and the
// [i += step][cond-branch] while-style variant) into one dispatch.
func (o *optimizer) fuseLatch(b block) {
	last := b.end - 1
	if o.dead[last] {
		return
	}
	term := &o.code[last]
	isJmp := term.Op == opJmp
	isIncBr := term.Op >= opBrEqI && term.Op <= opBrGeI
	if !isJmp && !isIncBr {
		return
	}
	p, skip := o.prevKept(last, b.start)
	if p < 0 {
		return
	}
	add := &o.code[p]
	var reg int32
	var delta int64
	switch add.Op {
	case opAddI:
		if k, ok := o.isConstSlot(add.C); ok && add.A == add.B {
			reg, delta = add.A, k
		} else if k, ok := o.isConstSlot(add.B); ok && add.A == add.C {
			reg, delta = add.A, k
		} else {
			return
		}
	case opSubI:
		k, ok := o.isConstSlot(add.C)
		if !ok || add.A != add.B {
			return
		}
		reg, delta = add.A, -k
	default:
		return
	}
	cost := uint32(add.Cost) + uint32(term.Cost) + skip
	if cost > maxCost {
		return
	}
	if isJmp {
		o.zeroSkipped(p, last)
		o.dead[last] = true
		o.code[p] = Instr{Op: opAddJmp, A: term.A, B: reg, Cost: uint16(cost), Imm: delta}
		o.code[last] = Instr{Op: opNop}
		return
	}
	// Cond-branch form: the test must read the incremented register on
	// its left and something else on its right.
	if term.B != reg || term.C == reg {
		return
	}
	if delta != int64(int32(delta)) || int32(term.Imm) < 0 {
		return
	}
	op := opIncBrEqI + (term.Op - opBrEqI)
	o.zeroSkipped(p, last)
	o.dead[last] = true
	o.code[p] = Instr{
		Op: op, A: term.A, B: reg, C: term.C, Cost: uint16(cost),
		Imm: term.Imm<<32 | int64(uint32(int32(delta))),
	}
	o.code[last] = Instr{Op: opNop}
}

func (o *optimizer) isScratchF(r int32) bool {
	return r >= o.nVars+int32(len(o.in.fconsts))
}

// fDiesAt reports whether the value float register t holds when
// instruction i executes is dead afterward: i overwrites it (t is i's
// own dst) or nothing after i reads it.
func (o *optimizer) fDiesAt(t, i, dst int32) bool {
	return t == dst || !o.liveOut[i].has(o.fbit(t))
}

// binKindF maps a float binop opcode to its fused kind. Division is
// included: float division is IEEE-total, so every member is pure.
func binKindF(op uint8) (int64, bool) {
	switch op {
	case opAddF:
		return 0, true
	case opSubF:
		return 1, true
	case opMulF:
		return 2, true
	case opDivF:
		return 3, true
	}
	return 0, false
}

// loadShape is the uniform view of a float load the binop fuser can
// absorb: array, dimensionality, affine subscripts, and destination.
type loadShape struct {
	arr    int32
	nd     int32
	r0, r1 int32
	c0, o0 int64
	c1, o1 int64
	dst    int32
}

func (o *optimizer) floatLoadShape(in *Instr) (loadShape, bool) {
	switch in.Op {
	case opLoadF1:
		return loadShape{arr: in.C, nd: 1, r0: in.B, dst: in.A}, true
	case opLoadF2:
		return loadShape{arr: in.C, nd: 2,
			r0: int32(uint64(in.Imm) >> 32), c0: 1,
			r1: int32(uint32(in.Imm)), c1: 1, dst: in.A}, true
	case opAffLoadF2:
		t := o.pool[in.B : in.B+4]
		return loadShape{arr: in.C, nd: 2,
			r0: int32(uint64(in.Imm) >> 32), c0: t[0], o0: t[1],
			r1: int32(uint32(in.Imm)), c1: t[2], o1: t[3], dst: in.A}, true
	}
	return loadShape{}, false
}

// fuse2D collapses the addressing chains of plain 2-D accesses the
// check fuser left behind (unchecked compiles, or accesses whose pairs
// were not adjacent) into affine access instructions. The chain cost
// joins the access's central cost: both were charged before the bounds
// fault.
func (o *optimizer) fuse2D(b block) {
	for i := b.start; i < b.end; i++ {
		if o.dead[i] {
			continue
		}
		in := &o.code[i]
		switch in.Op {
		case opLoadI2, opLoadF2, opStoreI2, opStoreF2:
		default:
			continue
		}
		r0 := int32(uint64(in.Imm) >> 32)
		r1 := int32(uint32(in.Imm))
		seeds := []int32{o.ibit(r1)}
		if in.Op == opStoreI2 {
			seeds = append(seeds, o.ibit(in.A))
		} else if in.Op == opStoreF2 {
			seeds = append(seeds, o.fbit(in.A))
		}
		root0, c0, off0, chain0, cc0 := o.affineOf(i, r0, b, seeds...)
		root1, c1v, off1 := root0, c0, off0
		var chain1 []int32
		cc1 := uint32(0)
		if r1 != r0 {
			seeds[0] = o.ibit(r0)
			root1, c1v, off1, chain1, cc1 = o.affineOf(i, r1, b, append(seeds, o.ibit(root0))...)
		}
		if len(chain0)+len(chain1) == 0 {
			continue
		}
		cost := uint32(in.Cost) + cc0 + cc1
		if cost > maxCost || root0 < 0 || root1 < 0 {
			continue
		}
		o.commitChain(chain0)
		o.commitChain(chain1)
		var op uint8
		switch in.Op {
		case opLoadI2:
			op = opAffLoadI2
		case opLoadF2:
			op = opAffLoadF2
		case opStoreI2:
			op = opAffStoreI2
		default:
			op = opAffStoreF2
		}
		tup := int32(len(o.pool))
		o.pool = append(o.pool, c0, off0, c1v, off1)
		*in = Instr{Op: op, A: in.A, B: tup, C: in.C, Cost: uint16(cost),
			Imm: packRegs(root0, root1)}
	}
}

// fuseBins folds float binops with their value producers: two dying
// 1-D loads feeding one binop (opLLBinF1), a dying 1-D/2-D load
// feeding a binop (opLoadBinF1/F2), a dying binop result feeding
// another binop (opBinBinF), and a dying binop result feeding an
// unchecked 2-D store (opBinStoreF2). These are the float value
// chains of the suite's hot statements (rx = x(i) - x(j);
// u(i) = u(i) - g(j)*ry/r2) left over once checks and stores fused.
//
// Soundness is the usual kept-adjacency argument: between the fused
// slots only eliminated instructions remain, and an eliminated def can
// never feed a register the fused body still reads (such a def would
// have been live). Absorbed results must be scratch and die at the
// consumer, so eliding their register write is unobservable. Loads
// keep their program order, so fault order and the deferred charges
// between fault points stay exact.
func (o *optimizer) fuseBins(b block) {
	for i := b.start; i < b.end; i++ {
		if o.dead[i] {
			continue
		}
		in := &o.code[i]
		if in.Op == opStoreF2 || in.Op == opAffStoreF2 {
			o.fuseBinStoreAff2(b, i)
			continue
		}
		if in.Op == opStoreF1 {
			o.fuseBinBinStore1(b, i)
			continue
		}
		kind, ok := binKindF(in.Op)
		if !ok {
			continue
		}
		p1, skip1 := o.prevKept(i, b.start)
		if p1 < 0 {
			continue
		}
		d1 := &o.code[p1]
		dst, opL, opR := in.A, in.B, in.C

		// Two dying 1-D loads producing both operands.
		if sh1, ok := o.floatLoadShape(d1); ok && sh1.nd == 1 && opL != opR &&
			(sh1.dst == opL || sh1.dst == opR) &&
			o.isScratchF(sh1.dst) && o.fDiesAt(sh1.dst, i, dst) {
			other := opL
			if sh1.dst == opL {
				other = opR
			}
			if p0, skip0 := o.prevKept(p1, b.start); p0 >= 0 {
				if sh0, ok := o.floatLoadShape(&o.code[p0]); ok && sh0.nd == 1 &&
					sh0.dst == other && sh0.dst != sh1.dst &&
					o.isScratchF(sh0.dst) && o.fDiesAt(sh0.dst, i, dst) {
					dc1 := skip0 + uint32(d1.Cost)
					dc2 := skip1 + uint32(in.Cost)
					k := kind
					if sh0.dst == opR {
						k |= 4 // loads stay in program order, operands reversed
					}
					if dc1 <= maxCost && dc2 <= maxCost &&
						sh0.r0 >= 0 && sh0.r0 < 1<<16 && sh1.r0 >= 0 && sh1.r0 < 1<<16 {
						central := o.code[p0].Cost
						tup := int32(len(o.pool))
						o.pool = append(o.pool, int64(sh1.arr), k)
						o.zeroSkipped(p0, i)
						o.dead[p1] = true
						o.code[p1] = Instr{Op: opNop}
						o.dead[i] = true
						*in = Instr{Op: opNop}
						o.code[p0] = Instr{Op: opLLBinF1, A: dst, B: tup, C: sh0.arr,
							Cost: central,
							Imm: int64(sh0.r0)<<48 | int64(sh1.r0)<<32 |
								int64(dc1)<<16 | int64(dc2)}
						continue
					}
				}
			}
		}

		// One dying load producing an operand; the other (if any) is
		// read at the load's slot, sound per the adjacency argument.
		if sh, ok := o.floatLoadShape(d1); ok &&
			(sh.dst == opL || sh.dst == opR) &&
			o.isScratchF(sh.dst) && o.fDiesAt(sh.dst, i, dst) {
			var code, src int64
			switch {
			case opL == sh.dst && opR == sh.dst:
				code = kind + 8
			case opL == sh.dst:
				code, src = kind, int64(opR)
			default:
				code, src = kind+4, int64(opL)
			}
			dc := skip1 + uint32(in.Cost)
			central := d1.Cost
			if dc <= maxCost && sh.nd == 1 && sh.r0 >= 0 {
				tup := int32(len(o.pool))
				o.pool = append(o.pool, code, src)
				o.zeroSkipped(p1, i)
				o.dead[i] = true
				*in = Instr{Op: opNop}
				o.code[p1] = Instr{Op: opLoadBinF1, A: dst, B: tup, C: sh.arr,
					Cost: central, Imm: int64(sh.r0)<<32 | int64(dc)}
				continue
			}
			if dc <= maxCost && sh.nd == 2 &&
				sh.r0 >= 0 && sh.r0 < 1<<16 && sh.r1 >= 0 && sh.r1 < 1<<16 {
				tup := int32(len(o.pool))
				o.pool = append(o.pool, sh.c0, sh.o0, sh.c1, sh.o1, code, src)
				o.zeroSkipped(p1, i)
				o.dead[i] = true
				*in = Instr{Op: opNop}
				o.code[p1] = Instr{Op: opLoadBinF2, A: dst, B: tup, C: sh.arr,
					Cost: central, Imm: int64(sh.r0)<<48 | int64(sh.r1)<<32 | int64(dc)}
				continue
			}
		}

		// A dying binop result feeding this binop: pure pair, one
		// central charge.
		if k0, ok := binKindF(d1.Op); ok &&
			(d1.A == opL || d1.A == opR) &&
			o.isScratchF(d1.A) && o.fDiesAt(d1.A, i, dst) {
			t := d1.A
			var code, z int64
			switch {
			case opL == t && opR == t:
				code = kind + 8
			case opL == t:
				code, z = kind, int64(opR)
			default:
				code, z = kind+4, int64(opL)
			}
			cost := uint32(d1.Cost) + skip1 + uint32(in.Cost)
			if cost <= maxCost {
				tup := int32(len(o.pool))
				o.pool = append(o.pool, k0, int64(d1.B), int64(d1.C), code, z)
				o.zeroSkipped(p1, i)
				o.dead[i] = true
				*in = Instr{Op: opNop}
				o.code[p1] = Instr{Op: opBinBinF, A: dst, B: tup, Cost: uint16(cost)}
				continue
			}
		}
	}
}

// fuseBinStoreAff2 folds [binF][2-D float store] when the value
// register dies at the store: the unchecked m(i,j) = x op y statement
// tail. The whole cost stays central — binop, chains, and store were
// all charged before the store's fault in unfused code.
func (o *optimizer) fuseBinStoreAff2(b block, i int32) {
	in := &o.code[i]
	v := in.A
	if !o.isScratchF(v) || o.liveOut[i].has(o.fbit(v)) {
		return
	}
	var c0, o0v, c1, o1v int64
	r0 := int32(uint64(in.Imm) >> 32)
	r1 := int32(uint32(in.Imm))
	if in.Op == opAffStoreF2 {
		t := o.pool[in.B : in.B+4]
		c0, o0v, c1, o1v = t[0], t[1], t[2], t[3]
	} else {
		c0, c1 = 1, 1
	}
	p, skip := o.prevKept(i, b.start)
	if p < 0 {
		return
	}
	bin := &o.code[p]
	cost := uint32(bin.Cost) + skip + uint32(in.Cost)
	if bin.A != v || cost > maxCost || r0 < 0 || r1 < 0 {
		return
	}
	arr := in.C
	// A binbin chain already fused here extends to the three-op form;
	// a plain binop takes the two-op form. Either way the whole chain
	// was charged before the store's fault, so cost stays central.
	if bin.Op == opBinBinF {
		tup := int32(len(o.pool))
		o.pool = append(o.pool, o.pool[bin.B:bin.B+5]...)
		o.pool = append(o.pool, c0, o0v, c1, o1v)
		o.zeroSkipped(p, i)
		o.dead[i] = true
		*in = Instr{Op: opNop}
		o.code[p] = Instr{Op: opBinBinStoreF2, B: tup, C: arr, Cost: uint16(cost),
			Imm: packRegs(r0, r1)}
		return
	}
	kind, ok := binKindF(bin.Op)
	if !ok {
		return
	}
	tup := int32(len(o.pool))
	o.pool = append(o.pool, kind, int64(bin.B), int64(bin.C), c0, o0v, c1, o1v)
	o.zeroSkipped(p, i)
	o.dead[i] = true
	*in = Instr{Op: opNop}
	o.code[p] = Instr{Op: opBinStoreF2, B: tup, C: arr, Cost: uint16(cost),
		Imm: packRegs(r0, r1)}
}

// fuseBinBinStore1 folds [opBinBinF][1-D float store] when the chain
// result dies at the store: a(s) = (x k0 y) k1 z in one dispatch.
func (o *optimizer) fuseBinBinStore1(b block, i int32) {
	in := &o.code[i]
	base, isLoad, isFloat, ok := accessShape(in)
	if !ok || isLoad || !isFloat || base < 0 {
		return
	}
	v := in.A
	if !o.isScratchF(v) || o.liveOut[i].has(o.fbit(v)) {
		return
	}
	p, skip := o.prevKept(i, b.start)
	if p < 0 {
		return
	}
	bin := &o.code[p]
	cost := uint32(bin.Cost) + skip + uint32(in.Cost)
	if bin.Op != opBinBinF || bin.A != v || cost > maxCost {
		return
	}
	arr := in.C
	tup := int32(len(o.pool))
	o.pool = append(o.pool, o.pool[bin.B:bin.B+5]...)
	o.zeroSkipped(p, i)
	o.dead[i] = true
	*in = Instr{Op: opNop}
	o.code[p] = Instr{Op: opBinBinStoreF1, A: base, B: tup, C: arr, Cost: uint16(cost)}
}
