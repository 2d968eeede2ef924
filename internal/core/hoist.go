package core

import (
	"slices"
	"sort"
	"strconv"

	"nascent/internal/dataflow"
	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/loops"
	"nascent/internal/rangecheck"
)

// ---------------------------------------------------------------------------
// LI / LLS: preheader insertion (paper §3.3, Figure 6)
//
// Preheader insertion visits every loop, innermost first, so its work per
// loop must follow what that loop's hoist changes, not the size of the
// function:
//   - one Env and one anticipatability solve per function, brought up to
//     date after each loop's hoist (dataflow.Anticipation);
//   - per-loop passes read only the loop's blocks that hold checks
//     (checkIndex), found through the loop's interval of the forest
//     order, and ask loop-invariance questions of one index of the
//     function's definitions (effectIndex).

// antProbe and workProbe, when set by tests (see export_test.go), see
// the kept anticipatability before each loop's hoist and the work count
// of each function's hoisting pass.
var (
	antProbe  func(c *funcCtx, l *loops.Loop, ant *dataflow.Anticipation)
	workProbe func(fn string, work int)
)

// preheaderInsert hoists checks out of counted loops, innermost first.
// When lls is true, linear checks are hoisted via loop-limit substitution
// in addition to invariant checks.
func (c *funcCtx) preheaderInsert(lls bool) {
	env := c.newEnv()
	ant := env.Anticipate()
	c.checks = newCheckIndex(c)
	for _, l := range c.forest.Loops { // innermost first
		if antProbe != nil {
			antProbe(c, l, ant)
		}
		c.hoistLoop(ant, l, lls)
		c.rehoistCondChecks(l)
	}
	c.work += env.Visits
	if workProbe != nil {
		workProbe(c.fn.Name, c.work)
	}
}

// hoistLoop hoists anticipatable invariant (and, with lls, linear)
// checks of loop l into its preheader as (cond-)checks, then brings ant
// up to date.
func (c *funcCtx) hoistLoop(ant *dataflow.Anticipation, l *loops.Loop, lls bool) {
	if !c.opts.Mode.CrossFamily() {
		// A hoisted cond-check only pays off through the preheader→body
		// implication; with cross-family implications disabled, inserting
		// it would strictly add checks.
		return
	}
	if l.Do == nil {
		return // while loop: no trip count, no safe guard (paper §3.3)
	}
	guard, gok := c.ind.GuardExpr(l)
	if !gok {
		return // provably zero-trip (or unavailable): nothing to hoist
	}
	// HVar creates l's basic variable (a function temp) on first use:
	// ask for it whether or not anything is hoisted, so the function's
	// temps do not depend on what the hoist finds.
	h := c.ind.HVar(l)

	// Profitability (paper §2.1 step 3): hoisting must make some check in
	// the loop body redundant. Record, per family terms, the weakest
	// constant occurring on an unguarded in-loop check.
	blocks := c.checks.in(l)
	c.work += len(blocks)
	inLoopMax := make(map[rangecheck.TermsID]int64)
	for _, b := range blocks {
		for _, s := range b.Stmts {
			if chk, ok := s.(*ir.CheckStmt); ok && chk.Guard == nil {
				k := c.reg.TermsID(chk.Terms)
				if cur, seen := inLoopMax[k]; !seen || chk.Const > cur {
					inLoopMax[k] = chk.Const
				}
			}
		}
	}
	cands := c.hoistCandidates(ant.In(l.Do.BodyEntry), inLoopMax)
	if len(cands) == 0 {
		return
	}

	pre := l.Preheader
	inserted := make(map[hoistKey]bool)
	var unguarded []ir.Stmt // appended to pre once ant has been weakened
	var edited []*ir.Block
	for _, cd := range cands {
		fam, v := cd.fam, cd.v
		ie := c.ind.IEOfFormAt(fam.Terms, l, l.Header)
		var hoisted linform.Form
		switch {
		case ie.Class == induction.Invariant:
			hoisted = ie.Form
		case lls && ie.Class == induction.Linear:
			slope := ie.Form.CoefOfVar(h)
			if slope > 0 {
				lastH, ok := c.ind.LastH(l)
				if !ok {
					continue
				}
				hoisted = ie.Form.SubstVar(h, lastH)
			} else {
				hoisted = ie.Form.SubstVar(h, linform.Form{}) // h = 0
			}
		default:
			continue
		}

		terms := ir.NormalizeTerms(cloneTerms(hoisted.Terms))
		konst := v - hoisted.Const
		dedupe := hoistKey{c.reg.TermsID(terms), konst}
		if !inserted[dedupe] {
			inserted[dedupe] = true
			chk := &ir.CheckStmt{
				Terms: terms,
				Const: konst,
				Note:  "hoisted from loop b" + strconv.Itoa(l.Header.ID),
			}
			if guard != nil {
				chk.Guard = ir.CloneExpr(guard)
				pre.InsertStmts(len(pre.Stmts), chk)
			} else {
				unguarded = append(unguarded, chk)
			}
			c.res.Inserted++
		}

		// The hoisted check covers every iteration's instance: eliminate
		// the loop-body checks it implies (the preheader→body CIG edge,
		// paper §3.4 / Table 3's "only important implications").
		edited = c.eliminateCovered(l, blocks, fam, v, edited)
	}

	// Removals only weaken anticipatability; an unguarded hoisted check
	// strengthens it, so it enters the preheader (in hoisting order)
	// after the descent, and its family's column is solved again.
	ant.Weaken(edited)
	pre.InsertStmts(len(pre.Stmts), unguarded...)
	strongest := make(map[*rangecheck.Family]int64)
	var fams []*rangecheck.Family
	for _, s := range unguarded {
		chk := s.(*ir.CheckStmt)
		f := c.reg.FamilyOf(chk)
		if v, seen := strongest[f]; !seen {
			fams = append(fams, f)
			strongest[f] = chk.Const
		} else if chk.Const < v {
			strongest[f] = chk.Const
		}
	}
	for _, f := range fams {
		ant.Strengthen(pre, f, strongest[f])
	}
	for _, b := range edited {
		c.checks.update(b)
	}
	c.checks.update(pre)
}

// hoistCandidate is a family anticipatable at a loop's body entry with
// a check in the loop the hoist would cover.
type hoistCandidate struct {
	fam    *rangecheck.Family
	v      int64
	bi, si int // first occurrence: index in Func.Blocks, statement
}

// hoistCandidates returns the families whose value v in bodyAnt is a
// check and that have an unguarded in-loop check at least as weak as v,
// in the order a fresh Env lists families: by first occurrence in block
// order, then statement order. Only families with an unguarded check
// somewhere can have such a value, and those are all within the
// solution's width.
func (c *funcCtx) hoistCandidates(bodyAnt dataflow.State, inLoopMax map[rangecheck.TermsID]int64) []hoistCandidate {
	var out []hoistCandidate
	for tid, maxC := range inLoopMax {
		for _, fam := range c.reg.WithTerms(tid) {
			if fam.Index >= len(bodyAnt) {
				continue
			}
			v := bodyAnt[fam.Index]
			if v == rangecheck.None || v == rangecheck.AllChecks || maxC < v {
				continue // nothing in the loop would be covered: unprofitable
			}
			bi, si := c.checks.first(fam)
			out = append(out, hoistCandidate{fam: fam, v: v, bi: bi, si: si})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bi != out[j].bi {
			return out[i].bi < out[j].bi
		}
		return out[i].si < out[j].si
	})
	return out
}

// hoistKey identifies a hoisted check: range-expression and constant.
type hoistKey struct {
	terms rangecheck.TermsID
	konst int64
}

// eliminateCovered removes unguarded checks of fam with constant ≥ v
// from blocks, the check-holding blocks of l. The hoisted preheader
// check covers the value the family's range-expression holds *at
// loop-body entry* of each iteration; an occurrence downstream of an
// in-body definition of one of the family's variables (a derived
// induction variable updated mid-body) reads a different value and must
// stay. This mirrors the paper's dataflow formulation, where the
// preheader→body cover fact is killed by such a definition. The blocks
// that lost a check are added to edited.
func (c *funcCtx) eliminateCovered(l *loops.Loop, blocks []*ir.Block, fam *rangecheck.Family, v int64, edited []*ir.Block) []*ir.Block {
	unkilled := c.unkilledAtEntry(l, fam)
	for _, b := range blocks {
		covers := func(s ir.Stmt) bool {
			chk, ok := s.(*ir.CheckStmt)
			return ok && chk.Guard == nil && chk.Const >= v && c.reg.TermsID(chk.Terms) == fam.TermsID()
		}
		if !slices.ContainsFunc(b.Stmts, covers) {
			continue
		}
		state := unkilled.at(b)
		kept := b.Stmts[:0]
		for _, s := range b.Stmts {
			if state && covers(s) {
				c.res.EliminatedCover++
				continue
			}
			if kills(s, fam) {
				state = false
			}
			kept = append(kept, s)
		}
		if len(kept) < len(b.Stmts) && !slices.Contains(edited, b) {
			edited = append(edited, b)
		}
		b.Stmts = kept
	}
	return edited
}

// unkilled answers, per block of loop l, whether family fam's
// range-expression still holds its loop-body-entry value on every path
// to the block's entry within one iteration. The loop header resets the
// fact (each iteration re-reads the family at body entry).
type unkilled struct {
	c     *funcCtx
	l     *loops.Loop
	fam   *rangecheck.Family
	clean map[*ir.Block]bool // blocks known to hold the fact
}

func (c *funcCtx) unkilledAtEntry(l *loops.Loop, fam *rangecheck.Family) *unkilled {
	return &unkilled{c: c, l: l, fam: fam, clean: make(map[*ir.Block]bool)}
}

// at reports whether the fact holds at b's entry: no path from the
// header to b inside the loop passes through a block that kills the
// family (the header itself included). It searches backward from b, so
// its cost follows the part of the loop between the header and b; the
// blocks of a search that finds no kill hold the fact too.
func (u *unkilled) at(b *ir.Block) bool {
	if b == u.l.Header || u.clean[b] {
		return true
	}
	seen := []*ir.Block{b}
	u.clean[b] = true // provisionally, while searching
	for i := 0; i < len(seen); i++ {
		u.c.work++
		for _, p := range seen[i].Preds {
			if !u.l.Contains(p) {
				continue
			}
			if slices.ContainsFunc(p.Stmts, func(s ir.Stmt) bool { return kills(s, u.fam) }) {
				for _, q := range seen {
					delete(u.clean, q)
				}
				return false
			}
			if p == u.l.Header || u.clean[p] {
				continue
			}
			u.clean[p] = true
			seen = append(seen, p)
		}
	}
	return true
}

// rehoistCondChecks moves cond-checks sitting in inner preheaders (or any
// block executing on every iteration) of l out to l's preheader, so
// checks migrate to the outermost loop possible (paper §3.3).
func (c *funcCtx) rehoistCondChecks(l *loops.Loop) {
	if l.Do == nil {
		return
	}
	guard, gok := c.ind.GuardExpr(l)
	if !gok {
		return
	}

	// What can l modify?
	invariant := func(chk *ir.CheckStmt) bool {
		fx, rd := c.effects(), c.readsOf(chk)
		for _, v := range rd.vars {
			if fx.assigns(l, v.ID) || (v.Global && fx.calls(l)) {
				return false
			}
		}
		for _, a := range rd.arrays {
			if fx.stores(l, a.ID) || (a.Global && fx.calls(l)) {
				return false
			}
		}
		return true
	}

	blocks := c.checks.in(l)
	c.work += len(blocks)
	pre := l.Preheader
	moved := false
	for _, b := range blocks {
		if b == l.Header {
			continue
		}
		// The block must execute on every iteration of l.
		domAll := c.dom.Dominates(l.Do.BodyEntry, b) || b == l.Do.BodyEntry
		for _, latch := range l.Latches {
			if !c.dom.Dominates(b, latch) {
				domAll = false
			}
		}
		if !domAll {
			continue
		}
		kept := b.Stmts[:0]
		for _, s := range b.Stmts {
			chk, ok := s.(*ir.CheckStmt)
			if !ok || chk.Guard == nil {
				kept = append(kept, s)
				continue
			}
			if !invariant(chk) {
				kept = append(kept, s)
				continue
			}
			// Move to l's preheader, conjoining l's entry guard. The
			// check is replaced, not edited: a snapshot shares it.
			if guard != nil {
				conj := *chk
				conj.Guard = &ir.Bin{Op: ir.OpAnd, L: ir.CloneExpr(guard), R: chk.Guard, Typ: ir.Bool}
				rd := *c.readsOf(chk)
				rd.vars, rd.arrays = slices.Clip(rd.vars), slices.Clip(rd.arrays)
				rd.add(conj.Guard.(*ir.Bin).L)
				c.reads[&conj] = &rd
				chk = &conj
			}
			pre.InsertStmts(len(pre.Stmts), chk)
			moved = true
		}
		if len(kept) < len(b.Stmts) {
			b.Stmts = kept
			c.checks.update(b)
		}
	}
	if moved {
		c.checks.update(pre)
	}
}

// exprReads is what a cond-check reads, in its guard and its terms: its
// scalar variables and the arrays it loads, each once.
type exprReads struct {
	vars   []*ir.Var
	arrays []*ir.Array
}

func (rd *exprReads) add(e ir.Expr) {
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.VarRef:
			if !slices.ContainsFunc(rd.vars, func(v *ir.Var) bool { return v.ID == x.Var.ID }) {
				rd.vars = append(rd.vars, x.Var)
			}
		case *ir.Load:
			if !slices.ContainsFunc(rd.arrays, func(a *ir.Array) bool { return a.ID == x.Arr.ID }) {
				rd.arrays = append(rd.arrays, x.Arr)
			}
		}
	})
}

// readsOf returns what a cond-check reads, remembered per check. A
// cond-check moved out of a nest gains one guard conjunct per level, and
// its copy inherits what it read, so each level costs what the new
// conjunct reads, not the whole guard.
func (c *funcCtx) readsOf(chk *ir.CheckStmt) *exprReads {
	if rd, ok := c.reads[chk]; ok {
		return rd
	}
	rd := &exprReads{}
	rd.add(chk.Guard)
	for _, t := range chk.Terms {
		rd.add(t.Atom)
	}
	if c.reads == nil {
		c.reads = make(map[*ir.CheckStmt]*exprReads)
	}
	c.reads[chk] = rd
	return rd
}

// ---------------------------------------------------------------------------
// Indexes over the forest order

// checkIndex lists the blocks that hold checks or cond-checks by their
// position in the forest order, so a loop's check-holding blocks are one
// range of the list. It also keeps each family's blocks in Func.Blocks
// order, which gives the family's first occurrence without a scan of the
// function. Passes that add or remove checks call update on every block
// they edit.
type checkIndex struct {
	c     *funcCtx
	pos   []int32 // sorted positions of blocks holding a check
	holds []bool  // position -> listed in pos

	blockIdx  []int32   // block ID -> index in Func.Blocks
	famBlocks [][]int32 // family index -> Func.Blocks indexes, sorted
	blockFams [][]int32 // block ID -> family indexes of its checks, sorted
}

func newCheckIndex(c *funcCtx) *checkIndex {
	order := c.forest.Order()
	x := &checkIndex{c: c, holds: make([]bool, len(order))}
	maxID := 0
	for _, b := range c.fn.Blocks {
		maxID = max(maxID, b.ID)
	}
	x.blockIdx = make([]int32, maxID+1)
	x.blockFams = make([][]int32, maxID+1)
	for i, b := range c.fn.Blocks {
		x.blockIdx[b.ID] = int32(i)
	}
	for p, b := range order {
		if holdsCheck(b) {
			x.holds[p] = true
			x.pos = append(x.pos, int32(p))
		}
		x.updateFamilies(b)
	}
	return x
}

func holdsCheck(b *ir.Block) bool {
	return slices.ContainsFunc(b.Stmts, func(s ir.Stmt) bool {
		_, ok := s.(*ir.CheckStmt)
		return ok
	})
}

// in returns l's blocks that hold checks, ordered by block ID.
func (x *checkIndex) in(l *loops.Loop) []*ir.Block {
	lo, hi := l.Span()
	order := x.c.forest.Order()
	i, _ := slices.BinarySearch(x.pos, int32(lo))
	var out []*ir.Block
	for ; i < len(x.pos) && int(x.pos[i]) < hi; i++ {
		out = append(out, order[x.pos[i]])
	}
	slices.SortFunc(out, func(a, b *ir.Block) int { return a.ID - b.ID })
	return out
}

// update records b's checks after an edit.
func (x *checkIndex) update(b *ir.Block) {
	p := x.c.forest.Pos(b)
	if has := holdsCheck(b); has != x.holds[p] {
		x.holds[p] = has
		i, _ := slices.BinarySearch(x.pos, int32(p))
		if has {
			x.pos = slices.Insert(x.pos, i, int32(p))
		} else {
			x.pos = slices.Delete(x.pos, i, i+1)
		}
	}
	x.updateFamilies(b)
}

// updateFamilies moves b in and out of its families' block lists.
func (x *checkIndex) updateFamilies(b *ir.Block) {
	var now []int32
	for _, s := range b.Stmts {
		if chk, ok := s.(*ir.CheckStmt); ok {
			now = append(now, int32(x.c.reg.FamilyOf(chk).Index))
		}
	}
	slices.Sort(now)
	now = slices.Compact(now)
	was := x.blockFams[b.ID]
	bi := x.blockIdx[b.ID]
	for _, f := range was {
		if _, found := slices.BinarySearch(now, f); !found {
			list := x.famBlocks[f]
			i, _ := slices.BinarySearch(list, bi)
			if i == 0 {
				x.famBlocks[f] = list[1:] // the common case: the first block goes
			} else {
				x.famBlocks[f] = slices.Delete(list, i, i+1)
			}
		}
	}
	for _, f := range now {
		if _, found := slices.BinarySearch(was, f); !found {
			for int(f) >= len(x.famBlocks) {
				x.famBlocks = append(x.famBlocks, nil)
			}
			list := x.famBlocks[f]
			i, _ := slices.BinarySearch(list, bi)
			x.famBlocks[f] = slices.Insert(list, i, bi)
		}
	}
	x.blockFams[b.ID] = now
}

// first returns the first occurrence of a check of fam: the index in
// Func.Blocks of its block and the statement index in that block.
func (x *checkIndex) first(fam *rangecheck.Family) (bi, si int) {
	bi = int(x.famBlocks[fam.Index][0])
	for si, s := range x.c.fn.Blocks[bi].Stmts {
		if chk, ok := s.(*ir.CheckStmt); ok && x.c.reg.FamilyOf(chk) == fam {
			return bi, si
		}
	}
	panic("core: check index lists a block without the family's check")
}

// effectIndex records where the function assigns each variable, stores
// each array and calls, as sorted forest positions, so "does loop l
// modify it" is one binary search over l's interval. The hoisting passes
// add and move checks only, so the index built when they first ask
// stays exact.
type effectIndex struct {
	assign, store [][]int32 // var / array ID -> positions
	call          []int32
}

// effects returns the function's effect index, built on first use.
func (c *funcCtx) effects() *effectIndex {
	if c.fx != nil {
		return c.fx
	}
	fx := &effectIndex{}
	add := func(ps []int32, p int32) []int32 {
		if n := len(ps); n > 0 && ps[n-1] == p {
			return ps
		}
		return append(ps, p)
	}
	grow := func(idx [][]int32, id int) [][]int32 {
		for len(idx) <= id {
			idx = append(idx, nil)
		}
		return idx
	}
	for p, b := range c.forest.Order() {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.AssignStmt:
				fx.assign = grow(fx.assign, s.Dst.ID)
				fx.assign[s.Dst.ID] = add(fx.assign[s.Dst.ID], int32(p))
			case *ir.StoreStmt:
				fx.store = grow(fx.store, s.Arr.ID)
				fx.store[s.Arr.ID] = add(fx.store[s.Arr.ID], int32(p))
			case *ir.CallStmt:
				fx.call = add(fx.call, int32(p))
			}
		}
	}
	c.fx = fx
	return fx
}

func within(ps []int32, l *loops.Loop) bool {
	lo, hi := l.Span()
	i, _ := slices.BinarySearch(ps, int32(lo))
	return i < len(ps) && int(ps[i]) < hi
}

func (fx *effectIndex) assigns(l *loops.Loop, id int) bool {
	return id < len(fx.assign) && within(fx.assign[id], l)
}

func (fx *effectIndex) stores(l *loops.Loop, id int) bool {
	return id < len(fx.store) && within(fx.store[id], l)
}

func (fx *effectIndex) calls(l *loops.Loop) bool { return within(fx.call, l) }
