// rce.go — guarded bytecode-level range-check elimination (engine
// "vmrce").
//
// The frontend's Kolte–Wolfe passes prove most subscript range checks
// redundant, yet the bytecode engines still *execute* every surviving
// check — vmopt only fuses them into fatter dispatches. This pass
// applies the paper's idea one layer down, in the spirit of CHOP's
// convex-region preconditions (arXiv 1907.04241) and Monniaux's
// verifiable guard hoisting (arXiv 2105.01344): for each counted loop,
// synthesize one preheader **range guard** that evaluates the loop's
// provably-monotone check family at both endpoints of the induction
// range with overflow-checked arithmetic, then run a guard-free fast
// copy of the code when the guard passes, or the original
// fully-checked code — the **deopt** target — when it fails.
//
// # Observable identity
//
// Every engine must produce bit-identical observables (counters,
// output, trap notes/classes/positions, budget and resource errors).
// The rewrite preserves them by construction:
//
//   - The guard is cost- and counter-invisible: cost 0 (no budget
//     charge, no poll), no check count, no register writes. Its only
//     effect is choosing which copy runs.
//   - Both copies share one register file and one operand pool, and
//     the guard sits immediately before the loop header, so at the
//     moment a guard fails the machine state is exactly what the
//     original code would hold at the same header — deopt is a plain
//     branch, never a state transfer.
//   - An eliminated check is replaced *in place* by opCkAdd, which
//     bulk-adds the check count the original instruction would have
//     counted and keeps its (centrally charged) cost field — the same
//     counted-but-not-executed trick vmopt's opCheckBlock uses for
//     implied pairs. Counters therefore advance by the original deltas
//     at every statement boundary, trap, and fault, including budget
//     exhaustion inside a deopt body.
//
// # Guard soundness
//
// A check `Σ coef·reg ≤ K` inside loop L(v; lo..lim by step) is
// eliminable when every non-v term register is invariant in L (no int
// def inside the loop's code spans, no calls anywhere in L). Its lhs
// is then linear in v, so its maximum over the iteration progression
// {lo, lo+step, …, last} is attained at an endpoint. The guard
// evaluates the lhs at both endpoints with overflow-*checked*
// arithmetic; since both endpoint values are representable, every
// intermediate value is too (it lies between them), so the VM's
// wrapping evaluation agrees with the mathematical value and the check
// passes on every iteration. Any overflow risk, and any lhs > K,
// deopts conservatively. A zero-trip loop passes vacuously — the fast
// header test fails before any body check would run.
//
// RCE runs on freshly compiled (unoptimized) bytecode and its output
// feeds the regular vmopt pipeline (CompileRCE) — see DESIGN.md
// ("Check elimination in the VM") for why.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"sort"

	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
)

// loopMeta is the compile-time residue of one ir.DoLoopInfo in
// bytecode-pc terms, captured by compiler.captureLoops. It is
// transient analysis metadata — progio deliberately does not serialize
// it; RCE runs before encoding, and a decoded program has no loops
// left to rewrite.
type loopMeta struct {
	fn       int32      // funcs index
	headerPC int32      // pc of the loop header block
	vReg     int32      // register of the basic induction variable
	limReg   int32      // register holding the invariant inclusive limit
	step     int64      // nonzero compile-time step
	spans    [][2]int32 // member block pc ranges [start, end), sorted
}

// CompileRCE is Compile followed by RCE followed by Optimize — the
// full vmrce pipeline, which vmjit names too. Like CompileOptimized,
// each rewrite stage degrades rather than fails: a contained RCE panic
// falls back to the plain compile, a contained Optimize panic to the
// (possibly guard-rewritten) input, so a vmrce run never fails where
// the plain Compile output would run.
func CompileRCE(p *ir.Program) (*Program, error) {
	vp, err := Compile(p)
	if err != nil {
		return nil, err
	}
	rp, rerr := RCE(vp)
	if rerr != nil {
		rp = vp
	}
	if ovp, oerr := Optimize(rp); oerr == nil {
		return ovp, nil
	}
	return rp, nil
}

// RCEApplied reports whether this program went through RCE.
func (vp *Program) RCEApplied() bool { return vp.rce }

// RCE rewrites freshly compiled bytecode (it must not be optimized
// yet: the pass reasons about the compiler's base opcode shapes) into
// an equivalent guard/deopt program. The input is not modified; the
// copies share the immutable check, trap, and constant tables. A
// program with no loop metadata (loop-free, or decoded from progio) is
// returned unchanged apart from the rce mark. Like the other rewrite
// stages it never panics: invariant violations surface as a
// stage-tagged *guard.InternalError.
func RCE(vp *Program) (out *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &guard.InternalError{Stage: "vm-rce", Recovered: r, Stack: debug.Stack()}
		}
	}()
	if vp == nil {
		return nil, fmt.Errorf("vm: no program")
	}
	if vp.optimized {
		return nil, fmt.Errorf("vm: rce requires unoptimized bytecode")
	}
	if vp.rce {
		return nil, fmt.Errorf("vm: program already guard-rewritten")
	}
	cp := *vp
	cp.rce = true
	cp.loops = nil
	if len(vp.loops) == 0 {
		return &cp, nil
	}

	code := append([]Instr(nil), vp.code...)
	pool := append([]int64(nil), vp.pool...)
	funcs := append([]FuncImage(nil), vp.funcs...)
	ext := funcExtents(vp)

	byFn := map[int32][]loopMeta{}
	var fnOrder []int32
	for _, lm := range vp.loops {
		if _, seen := byFn[lm.fn]; !seen {
			fnOrder = append(fnOrder, lm.fn)
		}
		byFn[lm.fn] = append(byFn[lm.fn], lm)
	}
	sort.Slice(fnOrder, func(i, j int) bool { return fnOrder[i] < fnOrder[j] })

	for _, fi := range fnOrder {
		// Plan one guard per loop, inner before outer (ascending span
		// size), so a check eligible for both nests is claimed by the
		// innermost. The inner guard sees every enclosing induction
		// variable as loop-invariant, so it covers outer-variable checks
		// too — and an innermost loop is where the bulk-at-guard shape
		// below can fold the whole body's counting into the guard itself.
		loops := byFn[fi]
		sort.SliceStable(loops, func(i, j int) bool {
			return spanLen(loops[i].spans) < spanLen(loops[j].spans)
		})
		guardByHeader := map[int32]*rceGuard{}
		var guards []*rceGuard
		claimed := map[int32]int32{} // check pc -> checks it counted
		bulked := map[int32]bool{}   // check pcs counted at their guard
		for _, lm := range loops {
			if guardByHeader[lm.headerPC] != nil {
				continue
			}
			tuple, claims := planLoopGuard(vp, code, pool, lm, claimed)
			if len(claims) == 0 {
				continue
			}
			g := &rceGuard{headerPC: lm.headerPC, poolOff: int32(len(pool)), spans: lm.spans}
			g.perIter = bulkPerIter(code, lm, claims)
			pool = append(pool, tuple...)
			guards = append(guards, g)
			guardByHeader[lm.headerPC] = g
			for pc, n := range claims {
				claimed[pc] = n
				if g.perIter > 0 {
					bulked[pc] = true
				}
			}
		}
		if len(guards) == 0 {
			continue
		}

		// Clone [fnStart, fnEnd) to the end of the code, guards placed
		// inline immediately before their fast headers. The original code
		// is left untouched as the deopt target: a failing guard branches
		// to the original header and the fully-checked original blocks
		// run from there with the exact same register state.
		fnStart, fnEnd := ext[fi][0], ext[fi][1]
		headers := make([]int32, len(guards))
		for i, g := range guards {
			headers[i] = g.headerPC
		}
		sort.Slice(headers, func(i, j int) bool { return headers[i] < headers[j] })
		fastBase := int32(len(code))
		// fastPC maps an original pc to its clone position: the clone
		// offset plus one slot per guard inserted at or before it. A
		// guard sits at fastPC(header)-1, so its pass edge is the plain
		// fallthrough into the fast header.
		fastPC := func(pc int32) int32 {
			k := sort.Search(len(headers), func(i int) bool { return headers[i] > pc })
			return fastBase + (pc - fnStart) + int32(k)
		}
		// Branches from outside a guarded loop enter through its guard;
		// back edges (and branches between member blocks) go straight to
		// the fast header, so the guard runs once per loop entry.
		remap := func(src, t int32) int32 {
			if g := guardByHeader[t]; g != nil && !inSpans(g.spans, src) {
				return fastPC(t) - 1
			}
			return fastPC(t)
		}
		// Leaders of the original function: pcs reachable other than by
		// fall-through. A bulk-count site may only absorb later claims
		// reached straight-line from it — crossing a leader would let
		// control enter between site and claim and count checks that
		// never ran.
		leader := map[int32]bool{fnStart: true}
		for pc := fnStart; pc < fnEnd; pc++ {
			switch in := &code[pc]; {
			case in.Op == opJmp:
				leader[in.A] = true
			case in.Op == opBr:
				leader[in.A] = true
				leader[in.B] = true
			case in.Op >= opBrEqI && in.Op <= opBrGeF:
				leader[in.A] = true
				leader[int32(in.Imm)] = true
			}
		}
		site := int32(-1) // clone index of the open bulk-count site
		for pc := fnStart; pc < fnEnd; pc++ {
			if leader[pc] {
				site = -1
			}
			if g := guardByHeader[pc]; g != nil {
				code = append(code, Instr{Op: opRangeGuard, A: fastPC(pc), B: g.poolOff, C: g.perIter, Imm: int64(pc)})
				site = -1
			}
			in := code[pc]
			if bulked[pc] {
				// The guard counts this check (trip × perIter) when it
				// passes; only the cost stays behind on a nop.
				code = append(code, Instr{Op: opNop, Cost: in.Cost})
				continue
			}
			if n, ok := claimed[pc]; ok {
				// Coalesce: one opCkAdd per exit-free straight-line segment
				// carries every claim in it; later claims fold into the
				// open site and leave a nop (dead, cost folded forward by
				// the optimizer) in their slot. Sound because nothing
				// between site and claim can end the run observably, so
				// every exit sees the same totals; only the
				// instruction-budget cadence shifts within the segment,
				// the same latitude vmopt's opCheckBlock already takes.
				if site >= 0 {
					code[site].A += n
					code = append(code, Instr{Op: opNop, Cost: in.Cost})
				} else {
					code = append(code, Instr{Op: opCkAdd, A: n, Cost: in.Cost})
					site = int32(len(code)) - 1
				}
				continue
			}
			if !ckAddTransparent(in.Op) {
				site = -1
			}
			switch {
			case in.Op == opJmp:
				in.A = remap(pc, in.A)
			case in.Op == opBr:
				in.A = remap(pc, in.A)
				in.B = remap(pc, in.B)
			case in.Op >= opBrEqI && in.Op <= opBrGeF:
				in.A = remap(pc, in.A)
				in.Imm = int64(remap(pc, int32(in.Imm)))
			}
			code = append(code, in)
		}
		if guardByHeader[fnStart] != nil {
			funcs[fi].Entry = fastPC(fnStart) - 1
		} else {
			funcs[fi].Entry = fastPC(fnStart)
		}
	}

	cp.code, cp.pool, cp.funcs = code, pool, funcs
	return &cp, nil
}

// rceGuard is one planned preheader guard: the loop header it
// protects, its guard tuple's pool offset, the loop's member spans
// (for back-edge detection during branch remapping), and — when the
// loop has the canonical bulk shape (bulkPerIter) — the checks per
// iteration the guard counts in one trip × perIter addition.
type rceGuard struct {
	headerPC int32
	poolOff  int32
	perIter  int32
	spans    [][2]int32
}

func spanLen(spans [][2]int32) int32 {
	var n int32
	for _, sp := range spans {
		n += sp[1] - sp[0]
	}
	return n
}

// bulkPerIter decides whether a guarded loop's whole check count can be
// committed at the guard itself as trip × perIter, with the claimed
// check slots degrading to pure cost-carrying nops, and returns that
// per-iteration count (0 = ineligible, keep per-segment opCkAdd
// counting). Eligibility is the canonical counted-loop shape where the
// body provably executes its claims exactly once per trip and nothing
// in the loop can end the run observably:
//
//   - contiguous spans starting at the header;
//   - exactly one conditional branch — the header's fused exit test
//     comparing vReg against limReg with the comparator matching the
//     step sign, falling through into the body and exiting the spans on
//     the false edge — so the trip count is exactly the guard's
//     endpoint formula;
//   - exactly one jump — the latch back edge at the last pc;
//   - every claim past the test (header-part pcs run trip+1 times);
//   - everything else ckAddTransparent: no surviving checks, int
//     division, calls, prints, traps, or inner control flow.
//
// Within such a loop the only possible exits besides the counted one
// are the instruction-budget/poll family, where Checks already has
// byte-identity latitude (see rce_test.go's diverged); claimed checks
// cannot trap (the guard proved them) and accesses cannot fault (their
// checks are exactly the fault conditions).
func bulkPerIter(code []Instr, lm loopMeta, claims map[int32]int32) int32 {
	spans := lm.spans
	start, end := spans[0][0], spans[len(spans)-1][1]
	if start != lm.headerPC {
		return 0
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] != spans[i-1][1] {
			return 0
		}
	}
	wantTest := uint8(opBrLeI)
	if lm.step < 0 {
		wantTest = opBrGeI
	}
	testPC := int32(-1)
	var perIter int32
	for pc := start; pc < end; pc++ {
		if n, ok := claims[pc]; ok {
			if testPC < 0 {
				return 0
			}
			perIter += n
			continue
		}
		in := &code[pc]
		switch {
		case in.Op == opJmp:
			if pc != end-1 || in.A != lm.headerPC {
				return 0
			}
		case in.Op == wantTest && testPC < 0 &&
			in.B == lm.vReg && in.C == lm.limReg &&
			in.A == pc+1 && !inSpans(spans, int32(in.Imm)):
			testPC = pc
		case ckAddTransparent(in.Op):
		default:
			return 0
		}
	}
	if testPC < 0 {
		return 0
	}
	return perIter
}

// funcExtents computes each function's [start, end) code range from
// the entry points (functions are emitted contiguously).
func funcExtents(vp *Program) [][2]int32 {
	n := int32(len(vp.code))
	entries := make([]int32, len(vp.funcs))
	for i, f := range vp.funcs {
		entries[i] = f.Entry
	}
	sorted := append([]int32(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ext := make([][2]int32, len(vp.funcs))
	for i, e := range entries {
		end := n
		if k := sort.Search(len(sorted), func(k int) bool { return sorted[k] > e }); k < len(sorted) {
			end = sorted[k]
		}
		ext[i] = [2]int32{e, end}
	}
	return ext
}

func inSpans(spans [][2]int32, pc int32) bool {
	for _, sp := range spans {
		if pc >= sp[0] && pc < sp[1] {
			return true
		}
	}
	return false
}

// ckAddTransparent reports whether a bulk-count site may absorb a
// claim from beyond this instruction, i.e. whether the instruction can
// never end the run observably. Pure ops qualify trivially. Array
// accesses qualify because a claim implies the program was compiled
// with bounds checks, under which every access is preceded by checks
// asserting exactly its per-dimension fault condition — the check
// traps (or, when eliminated, was proven to pass) before the access
// could fault. Anything else — surviving checks, int division, calls,
// branches, prints, traps — is a coalescing barrier.
func ckAddTransparent(op uint8) bool {
	if instrPure(op) {
		return true
	}
	switch op {
	case opNop,
		opLoadI, opLoadF, opStoreI, opStoreF,
		opLoadI1, opLoadF1, opStoreI1, opStoreF1,
		opLoadI2, opLoadF2, opStoreI2, opStoreF2:
		return true
	}
	return false
}

// intDefOf returns the int register a base-opcode instruction defines,
// or -1. It mirrors the optimizer's instrDef int arm but is standalone
// so the rce eligibility scan (which runs before any optimizer exists)
// can use it.
func intDefOf(in *Instr) int32 {
	switch in.Op {
	case opMovI, opAddI, opSubI, opMulI, opDivI, opNegI,
		opEqI, opNeI, opLtI, opLeI, opGtI, opGeI,
		opEqF, opNeF, opLtF, opLeF, opGtF, opGeF,
		opAndB, opOrB, opNotB, opModI, opAbsI, opMinI, opMaxI, opF2I,
		opLoadI, opLoadI1, opLoadI2:
		return in.A
	}
	return -1
}

// planLoopGuard decides which check instructions in loop lm are
// covered by a single preheader guard and builds the guard's pool
// tuple:
//
//	[vReg, limReg, step, nChecks,
//	 then per sub-check: K, cv, nInv, (coef, reg) × nInv]
//
// Returns a nil tuple (and no claims) when the loop is ineligible —
// calls inside the loop, a redefined limit, an induction variable that
// is not a clean single latch add, or simply no provable checks.
// claimed lists check pcs already covered by an enclosing loop's
// guard; they are skipped, not re-claimed.
func planLoopGuard(vp *Program, code []Instr, pool []int64, lm loopMeta, claimed map[int32]int32) (tuple []int64, claims map[int32]int32) {
	nVars := int32(vp.numVars)
	nConst := int32(len(vp.iconsts))
	isConstReg := func(r int32) bool { return r >= nVars && r < nVars+nConst }

	// Scan the member spans once: calls poison the whole loop (the
	// callee shares the flat register file), int defs feed the
	// invariance test, and the induction variable must have exactly one
	// def — the latch's v = v + step.
	defd := map[int32]bool{}
	vDefPC, vDefs := int32(-1), 0
	for _, sp := range lm.spans {
		for pc := sp[0]; pc < sp[1]; pc++ {
			in := &code[pc]
			if in.Op == opCall {
				return nil, nil
			}
			if d := intDefOf(in); d >= 0 {
				defd[d] = true
				if d == lm.vReg {
					vDefs++
					vDefPC = pc
				}
			}
		}
	}
	if vDefs != 1 || defd[lm.limReg] {
		return nil, nil
	}
	add := &code[vDefPC]
	if add.Op != opAddI || add.A != lm.vReg || add.B != lm.vReg ||
		!isConstReg(add.C) || vp.iconsts[add.C-nVars] != lm.step {
		return nil, nil
	}

	var subs []subCheck

	// addCheck folds one inequality's raw (coef, reg) terms: terms on
	// the induction variable sum into cv, every other register must be
	// invariant. Returns false (without appending) when not provable.
	addCheck := func(k int64, terms [][2]int64) bool {
		m := map[int32]int64{}
		for _, t := range terms {
			m[int32(t[1])] += t[0]
		}
		sc := subCheck{k: k, cv: m[lm.vReg]}
		delete(m, lm.vReg)
		regs := make([]int32, 0, len(m))
		for r, coef := range m {
			if defd[r] {
				return false
			}
			if coef != 0 {
				regs = append(regs, r)
			}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		for _, r := range regs {
			sc.inv = append(sc.inv, [2]int64{m[r], int64(r)})
		}
		subs = append(subs, sc)
		return true
	}

	claims = map[int32]int32{}
	for _, sp := range lm.spans {
		for pc := sp[0]; pc < sp[1]; pc++ {
			if pc > vDefPC {
				// Past the induction step: v already holds the next
				// iteration's value, outside the guarded progression.
				continue
			}
			if _, dup := claimed[pc]; dup {
				continue
			}
			in := &code[pc]
			mark := len(subs)
			var n int32
			ok := false
			switch in.Op {
			case opCheck1:
				ok = addCheck(in.Imm, [][2]int64{{int64(in.B), int64(in.A)}})
				n = 1
			case opCheckPair:
				t := pool[in.B : in.B+6 : in.B+6]
				ok = addCheck(t[1], [][2]int64{{t[0], int64(in.A)}}) &&
					addCheck(t[4], [][2]int64{{t[3], int64(in.A)}})
				n = 2
			case opCheck2:
				t := pool[in.A : in.A+4 : in.A+4]
				ok = addCheck(in.Imm, [][2]int64{{t[0], t[1]}, {t[2], t[3]}})
				n = 1
			case opCheck:
				tt := pool[in.A : in.A+2*in.B]
				terms := make([][2]int64, 0, in.B)
				for k := 0; k+1 < len(tt); k += 2 {
					terms = append(terms, [2]int64{tt[k], tt[k+1]})
				}
				ok = addCheck(in.Imm, terms)
				n = 1
			default:
				continue
			}
			if !ok {
				subs = subs[:mark] // all sub-checks of an instr, or none
				continue
			}
			claims[pc] = n
		}
	}
	if len(claims) == 0 {
		return nil, nil
	}

	subs = onePerForm(subs)
	tuple = []int64{int64(lm.vReg), int64(lm.limReg), lm.step, int64(len(subs))}
	for _, sc := range subs {
		tuple = append(tuple, sc.k, sc.cv, int64(len(sc.inv)))
		for _, iv := range sc.inv {
			tuple = append(tuple, iv[0], iv[1])
		}
	}
	return tuple, claims
}

// subCheck is one guard entry: cv·v + Σ coef·reg ≤ k over the loop's
// induction variable v and invariant registers.
type subCheck struct {
	k, cv int64
	inv   [][2]int64 // (coef, reg), sorted by reg for determinism
}

// onePerForm keeps one entry per linear form (cv, inv), at the minimum
// k, in first-occurrence order. This is the paper's check implication
// on one range expression: the check with the smaller constant implies
// the other, so the guard passes exactly when it did with every entry.
func onePerForm(subs []subCheck) []subCheck {
	at := make(map[string]int, len(subs))
	kept := subs[:0]
	var key []byte
	for _, sc := range subs {
		key = binary.AppendVarint(key[:0], sc.cv)
		for _, iv := range sc.inv {
			key = binary.AppendVarint(binary.AppendVarint(key, iv[0]), iv[1])
		}
		if i, ok := at[string(key)]; ok {
			kept[i].k = min(kept[i].k, sc.k)
			continue
		}
		at[string(key)] = len(kept)
		kept = append(kept, sc)
	}
	return kept
}

// rangeGuardPass evaluates one opRangeGuard tuple against the current
// register state: pass means every covered check provably passes on
// every iteration and the fast copy may run; fail deopts to the
// original fully-checked code. On pass it also returns the loop's trip
// count — the number of body executions the fast header test will
// admit — so a bulk-counting guard (perIter > 0) can commit
// trip × perIter checks up front. Chaos-forced spurious failures are
// the caller's concern. It is deliberately conservative: any overflow
// risk in the endpoint arithmetic deopts.
func rangeGuardPass(pool []int64, off int32, ireg []int64) (bool, int64) {
	vReg, limReg := pool[off], pool[off+1]
	step := pool[off+2]
	n := pool[off+3]
	lo, lim := ireg[vReg], ireg[limReg]
	// Zero-trip loops pass vacuously: the fast header test fails before
	// any covered check would execute.
	if step > 0 && lo > lim {
		return true, 0
	}
	if step < 0 && lo < lim {
		return true, 0
	}
	// Last induction value: lo + floor((lim-lo)/step)·step. span and
	// step share a sign here, so the quotient is non-negative; the one
	// int64 division that could fault (MinInt64 / -1) deopts instead.
	span, ok := subOvf(lim, lo)
	if !ok || (span == math.MinInt64 && step == -1) {
		return false, 0
	}
	var hi, trip int64
	if step == 1 {
		// The dominant case needs no division: the progression is dense,
		// its last value is the limit itself.
		if span == math.MaxInt64 {
			return false, 0
		}
		hi, trip = lim, span+1
	} else {
		q := span / step
		stepped, ok := mulOvf(q, step)
		if !ok {
			return false, 0
		}
		if hi, ok = addOvf(lo, stepped); !ok {
			return false, 0
		}
		if trip, ok = addOvf(q, 1); !ok {
			return false, 0
		}
	}
	p := off + 4
	for k := int64(0); k < n; k++ {
		kc, cv, nInv := pool[p], pool[p+1], pool[p+2]
		p += 3
		inv := int64(0)
		for j := int64(0); j < nInv; j++ {
			t, ok := mulOvf(pool[p], ireg[pool[p+1]])
			if !ok {
				return false, 0
			}
			if inv, ok = addOvf(inv, t); !ok {
				return false, 0
			}
			p += 2
		}
		for _, v := range [2]int64{lo, hi} {
			t, ok := mulOvf(cv, v)
			if !ok {
				return false, 0
			}
			lhs, ok := addOvf(inv, t)
			if !ok {
				return false, 0
			}
			if lhs > kc {
				return false, 0
			}
		}
	}
	return true, trip
}

func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subOvf(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulOvf(a, b int64) (int64, bool) {
	// Guards evaluate on every loop entry, so the common case — both
	// operands in int32 range, product magnitude < 2^62 — must not pay
	// the division the general overflow test needs.
	if a >= math.MinInt32 && a <= math.MaxInt32 && b >= math.MinInt32 && b <= math.MaxInt32 {
		return a * b, true
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// CheckStats splits one run's dynamic check counter into checks that
// were actually evaluated and checks that were counted in bulk without
// executing (range-guard eliminations plus opCheckBlock's implied
// pairs). All three numbers are deterministic functions of (program,
// config) — the wall-clock-free proxy CI pins for the vmrce win.
type CheckStats struct {
	Counted    uint64 // dynamic checks the observable counter recorded
	Executed   uint64 // checks evaluated at run time (Counted - Eliminated)
	Eliminated uint64 // checks counted in bulk, never evaluated
}

// RunCheckStats is Run with check-execution accounting.
func (p *Program) RunCheckStats(cfg interp.Config) (interp.Result, CheckStats, error) {
	res, ds, err := p.RunDispatch(cfg)
	cs := CheckStats{Counted: res.Checks, Eliminated: ds.ChecksEliminated}
	cs.Executed = cs.Counted - cs.Eliminated
	return res, cs, err
}
