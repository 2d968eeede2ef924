// Package dataflow computes the two analyses of paper §3.2: availability
// of range checks (forward, must) and anticipatability of range checks
// (backward, must).
//
// Both are solved per family over the lattice Z ∪ {None}: the state value
// of a family is the constant of the strongest check available (or
// anticipatable) — smaller is stronger, None means no check. Merge takes
// the weakest input (max). A definition of any variable in a family's
// range-expression kills the family (value back to None); stores kill
// families whose range-expressions load the stored array; calls kill
// families that read global state.
//
// Cross-family implications (mode permitting) are realized at affine
// copy assignments x := ±y + c: facts about families containing y
// transfer, shifted, into families containing x — including the
// self-shift x := x + c, which is how a check on i survives an increment
// as the corresponding check on i−1 (paper §3.1, Figure 4).
package dataflow

import (
	"slices"

	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/rangecheck"
)

// State holds one lattice value per family (indexed by Family.Index).
type State []int64

// Clone copies the state.
func (s State) Clone() State {
	out := make(State, len(s))
	copy(out, s)
	return out
}

// MeetInto merges other into s with the must-meet (elementwise max).
// Returns true if s changed.
func (s State) MeetInto(other State) bool {
	changed := false
	for i, v := range other {
		if v > s[i] {
			s[i] = v
			changed = true
		}
	}
	return changed
}

// Env is one snapshot of a function's checks for the analyses: the
// families present in the body, over a Registry that the optimizer
// shares across every Env it builds for the function.
type Env struct {
	Fn  *ir.Func
	Reg *rangecheck.Registry
	// Families lists the families of the function's checks in
	// first-occurrence order (block order, then statement order).
	Families []*rangecheck.Family

	// Visits counts the block visits e's solvers have made, one per
	// block per sweep: the deterministic measure of solver work that
	// core's optimizer budget charges.
	Visits int

	width   int    // state width: the registry's size at NewEnv
	present []bool // family index -> listed in Families
	// shifts caches the affine-copy transfer of each assignment.
	shifts map[*ir.AssignStmt][]Shift

	order   []*ir.Block // reverse postorder, computed on first solve
	rows    []int32     // block ID -> row in order, -1 if unreachable
	scratch State
	gen     []fact
}

// fact is one generated lattice value.
type fact struct {
	idx int
	v   int64
}

// NewEnv scans every check in fn and lists its families, interning them
// in reg (whose mode selects the implications).
func NewEnv(fn *ir.Func, reg *rangecheck.Registry) *Env {
	e := &Env{Fn: fn, Reg: reg}
	fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		if c, ok := s.(*ir.CheckStmt); ok {
			f := reg.FamilyOf(c)
			for len(e.present) <= f.Index {
				e.present = append(e.present, false)
			}
			if !e.present[f.Index] {
				e.present[f.Index] = true
				e.Families = append(e.Families, f)
			}
		}
	})
	e.width = len(reg.Families)
	for len(e.present) < e.width {
		e.present = append(e.present, false)
	}
	return e
}

// FamilyOf returns the family of a check. It is looked up afresh on
// every call, which is sound because no pass re-keys a check while an
// Env is live: under ImplyFull the constant is not part of the key, and
// under exact-constant keying every anticipated or available value of a
// family equals its constant, so strengthening never changes one.
func (e *Env) FamilyOf(c *ir.CheckStmt) *rangecheck.Family { return e.Reg.FamilyOf(c) }

// NumFamilies returns the state width. States are indexed by
// Family.Index, so the width covers every family the registry held at
// NewEnv; slots of families absent from Families are never read.
func (e *Env) NumFamilies() int { return e.width }

// NewState returns a state with every family at the given initial value.
func (e *Env) NewState(init int64) State {
	s := make(State, e.width)
	fill(s, init)
	return s
}

func fill(s []int64, v int64) {
	for i := range s {
		s[i] = v
	}
}

// listed reports whether f is one of e's families.
func (e *Env) listed(f *rangecheck.Family) bool {
	return f.Index < e.width && e.present[f.Index]
}

// Shift is one affine-copy implication: at an assignment x := ±y + c, a
// fact Check(From ≤ k) before it implies Check(To ≤ k + Weight) after it.
type Shift struct {
	From, To *rangecheck.Family
	Weight   int64
}

// Shifts returns the implications an assignment x := s*y + c (s = ±1)
// carries between e's families, computed once per assignment. For each
// family To with a direct term cx·x, the source family From is To's
// range-expression with cx·x replaced by (cx·s)·y (several sources share
// it under exact-constant keying), and Weight is cx·c. The list includes
// self-shifts such as x := x + 1, which carry a family onto itself.
func (e *Env) Shifts(a *ir.AssignStmt) []Shift {
	if sh, ok := e.shifts[a]; ok {
		return sh
	}
	if e.shifts == nil {
		e.shifts = make(map[*ir.AssignStmt][]Shift)
	}
	var out []Shift
	if y, sign, c, ok := affineCopy(a); ok {
		for _, to := range e.Reg.ReadingVar(a.Dst.ID) {
			if !e.listed(to) {
				continue
			}
			src, cx, ok := e.Reg.Substitute(to, a.Dst, sign, y)
			if !ok {
				continue // x occurs only inside an opaque atom; no transfer
			}
			for _, from := range e.Reg.WithTerms(src) {
				if e.listed(from) {
					out = append(out, Shift{From: from, To: to, Weight: cx * c})
				}
			}
		}
	}
	e.shifts[a] = out
	return out
}

// affineCopy matches x := s*y + c with s = ±1, returning (y, s, c).
func affineCopy(a *ir.AssignStmt) (y *ir.Var, sign int64, c int64, ok bool) {
	if a.Dst.Type != ir.Int {
		return nil, 0, 0, false
	}
	f := linform.Decompose(a.Src)
	if len(f.Terms) != 1 {
		return nil, 0, 0, false
	}
	t := f.Terms[0]
	vr, isVar := t.Atom.(*ir.VarRef)
	if !isVar || (t.Coef != 1 && t.Coef != -1) {
		return nil, 0, 0, false
	}
	return vr.Var, t.Coef, f.Const, true
}

// kill drops every family in fams back to None. The registry lists
// families in index order, so the ones interned after NewEnv (beyond
// the state width) come last.
func (e *Env) kill(st State, fams []*rangecheck.Family) {
	for _, f := range fams {
		if f.Index >= e.width {
			return
		}
		st[f.Index] = rangecheck.None
	}
}

// TransferForward updates the availability state across one statement.
// Facts about families containing y transfer, shifted, into families
// containing x at an affine copy x := ±y + c (mode permitting).
func (e *Env) TransferForward(st State, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.AssignStmt:
		gen := e.gen[:0]
		if e.Reg.Mode.CrossFamily() {
			exact := !e.Reg.Mode.WithinFamily()
			for _, sh := range e.Shifts(s) {
				v := st[sh.From.Index]
				if v == rangecheck.None || v == rangecheck.AllChecks {
					continue
				}
				implied := v + sh.Weight
				// Under exact-constant keying the fact must land on
				// exactly the target family's constant.
				if exact && implied != sh.To.ExactConst {
					continue
				}
				gen = append(gen, fact{sh.To.Index, implied})
			}
		}
		e.kill(st, e.Reg.ReadingVar(s.Dst.ID))
		for _, g := range gen {
			if g.v < st[g.idx] {
				st[g.idx] = g.v
			}
		}
		e.gen = gen
	case *ir.StoreStmt:
		e.kill(st, e.Reg.LoadingArray(s.Arr.ID))
	case *ir.CallStmt:
		e.kill(st, e.Reg.KilledByCall())
	case *ir.CheckStmt:
		if s.Guard != nil {
			return // a cond-check may not execute; it generates nothing
		}
		f := e.FamilyOf(s)
		if s.Const < st[f.Index] {
			st[f.Index] = s.Const
		}
	}
}

// TransferBackward updates the anticipatability state across one
// statement (processed in reverse). Anticipatability is family-local
// (paper §3.2): no cross-family transfer.
func (e *Env) TransferBackward(st State, s ir.Stmt) {
	switch s := s.(type) {
	case *ir.AssignStmt:
		e.kill(st, e.Reg.ReadingVar(s.Dst.ID))
	case *ir.StoreStmt:
		e.kill(st, e.Reg.LoadingArray(s.Arr.ID))
	case *ir.CallStmt:
		e.kill(st, e.Reg.KilledByCall())
	case *ir.CheckStmt:
		if s.Guard != nil {
			return
		}
		f := e.FamilyOf(s)
		if s.Const < st[f.Index] {
			st[f.Index] = s.Const
		}
	}
}

// Side selects which end of every block a Solution describes.
type Side int

// Solution sides.
const (
	In  Side = iota // block entry
	Out             // block exit
)

// Solution is one side of a solved analysis: one State per reachable
// block, stored as the rows of a single nBlocks × nFamilies slab.
type Solution struct {
	rows  []int32
	width int
	slab  []int64
}

// At returns b's state, or nil when b is unreachable from the entry.
// The state aliases the solution: Clone it before mutating.
func (s Solution) At(b *ir.Block) State {
	if b.ID >= len(s.rows) || s.rows[b.ID] < 0 {
		return nil
	}
	return row(s.slab, int(s.rows[b.ID]), s.width)
}

func row(slab []int64, i, w int) State { return State(slab[i*w : (i+1)*w : (i+1)*w]) }

// Order returns the function's reachable blocks in reverse postorder,
// the order both solvers sweep. The CFG must not change during e's
// lifetime.
func (e *Env) Order() []*ir.Block {
	if e.order == nil {
		e.order = e.Fn.ReversePostorder()
		maxID := 0
		for _, b := range e.order {
			if b.ID > maxID {
				maxID = b.ID
			}
		}
		e.rows = make([]int32, maxID+1)
		for i := range e.rows {
			e.rows[i] = -1
		}
		for i, b := range e.order {
			e.rows[b.ID] = int32(i)
		}
		e.scratch = make(State, e.width)
	}
	return e.order
}

// rowOf returns b's row, or -1 when b is unreachable.
func (e *Env) rowOf(b *ir.Block) int {
	if b.ID >= len(e.rows) {
		return -1
	}
	return int(e.rows[b.ID])
}

// Availability solves the forward problem and returns the requested
// side.
//
// The affine-shift transfer can manufacture unboundedly ascending chains
// around loop back edges (a check constant grows by the increment on
// every pass), so the solver widens: a (block, family) entry value that
// keeps weakening is forced to None after a few bumps. Widening is
// sticky — None is final — which both guarantees termination and stays
// sound (losing a fact only suppresses an elimination).
func (e *Env) Availability(side Side) Solution {
	order := e.Order()
	n, w := len(order), e.width
	slab := make([]int64, 2*n*w)
	fill(slab, rangecheck.AllChecks)
	in, out := slab[:n*w], slab[n*w:]
	fill(row(in, 0, w), rangecheck.None) // order[0] is the entry
	bumps := make([]uint8, n*w)
	st := e.scratch

	const widenAfter = 6
	changed := true
	for changed {
		changed = false
		e.Visits += n
		for i, b := range order {
			inB := row(in, i, w)
			if i != 0 {
				fill(st, rangecheck.AllChecks)
				for _, p := range b.Preds {
					if r := e.rowOf(p); r >= 0 {
						st.MeetInto(row(out, r, w))
					}
				}
				bmp := bumps[i*w : (i+1)*w]
				for k := 0; k < w; k++ {
					if bmp[k] > widenAfter {
						st[k] = rangecheck.None // widened: sticky
						continue
					}
					old := inB[k]
					if st[k] > old {
						if old != rangecheck.AllChecks {
							bmp[k]++
							if bmp[k] > widenAfter {
								st[k] = rangecheck.None
							}
						}
						changed = true
					}
				}
				copy(inB, st)
			}
			copy(st, inB)
			for _, s := range b.Stmts {
				e.TransferForward(st, s)
			}
			outB := row(out, i, w)
			for k := 0; k < w; k++ {
				if st[k] != outB[k] {
					changed = true
				}
			}
			copy(outB, st)
		}
	}
	if side == Out {
		return Solution{rows: e.rows, width: w, slab: out}
	}
	return Solution{rows: e.rows, width: w, slab: in}
}

// Anticipatability solves the backward problem and returns the
// requested side. Only entry states are kept while iterating; exit
// states, when asked for, are met from the successors' entries once the
// solution is stable.
//
// The solver is a worklist rather than a round of sweeps: a block is
// revisited only when a successor's entry state changed. Anticipatability
// has no widening and its transfer is monotone over a finite set of
// values, so any visit order descends from AllChecks to the same
// greatest fixpoint; a round of sweeps in reverse RPO needs about as
// many sweeps as the loop nest is deep.
func (e *Env) Anticipatability(side Side) Solution {
	a := e.Anticipate()
	if side == In {
		return Solution{rows: e.rows, width: e.width, slab: a.in}
	}
	order := e.order
	n, w := len(order), e.width
	out := make([]int64, n*w)
	e.Visits += n
	for i, b := range order {
		e.antExit(row(out, i, w), b, a.in)
	}
	return Solution{rows: e.rows, width: w, slab: out}
}

// Anticipation is a solved anticipatability problem (entry states) that
// is kept current while a pass edits the function's checks, instead of
// being solved again after every edit. The CFG must not change.
type Anticipation struct {
	e  *Env
	in []int64 // entry states: one row of width e.width per RPO position

	queue  []int32 // worklist of rows, FIFO
	queued []bool
	// Strengthen's per-row marks: a row is in the current region when
	// its mark equals epoch, and its summary is current when its sumAt
	// does.
	epoch       uint32
	mark, sumAt []uint32
	sum         []colSum
}

// colSum is a block's backward transfer for one family: entry =
// min(gen, exit) when the block does not kill the family, else pre (the
// strongest check before the first kill, or None).
type colSum struct {
	kills    bool
	gen, pre int64
}

// Anticipate solves anticipatability and returns the solution for
// incremental upkeep (see Weaken and Strengthen).
func (e *Env) Anticipate() *Anticipation {
	order := e.Order()
	n := len(order)
	a := &Anticipation{e: e, in: make([]int64, n*e.width), queued: make([]bool, n)}
	fill(a.in, rangecheck.AllChecks)
	for i := n - 1; i >= 0; i-- {
		a.push(i)
	}
	a.drain()
	return a
}

// In returns b's entry state, or nil when b is unreachable. The state
// aliases the solution and is valid until the next update. It has one
// value per family the registry held when the solution last grew
// (Width).
func (a *Anticipation) In(b *ir.Block) State {
	r := a.e.rowOf(b)
	if r < 0 {
		return nil
	}
	return row(a.in, r, a.e.width)
}

// Width returns the number of families the states cover.
func (a *Anticipation) Width() int { return a.e.width }

func (a *Anticipation) push(r int) {
	if !a.queued[r] {
		a.queued[r] = true
		a.queue = append(a.queue, int32(r))
	}
}

// drain recomputes queued blocks until no entry state changes, queueing
// the predecessors of every block whose entry state changed.
func (a *Anticipation) drain() {
	e := a.e
	w := e.width
	st := e.scratch
	for head := 0; head < len(a.queue); head++ {
		i := int(a.queue[head])
		a.queued[i] = false
		b := e.order[i]
		e.Visits++
		e.antExit(st, b, a.in)
		for j := len(b.Stmts) - 1; j >= 0; j-- {
			e.TransferBackward(st, b.Stmts[j])
		}
		inB := row(a.in, i, w)
		if slices.Equal(st, inB) {
			continue
		}
		copy(inB, st)
		for _, p := range b.Preds {
			if r := e.rowOf(p); r >= 0 {
				a.push(r)
			}
		}
	}
	a.queue = a.queue[:0]
}

// Weaken brings the solution up to date after unguarded checks were
// removed from the given blocks (and guarded checks added anywhere,
// which the backward transfer ignores). Removing a check only weakens
// facts, so the old solution lies above the new greatest fixpoint, and
// a descent from it that starts at the edited blocks reaches that
// fixpoint exactly.
func (a *Anticipation) Weaken(edited []*ir.Block) {
	for _, b := range edited {
		if r := a.e.rowOf(b); r >= 0 {
			a.push(r)
		}
	}
	a.drain()
}

// Strengthen brings the solution up to date after an unguarded check of
// family f with constant v was appended to block b0. A new check
// strengthens facts, which a descent cannot recover around a cycle, so
// f's column is solved again from AllChecks over the region the check
// can reach: the blocks that reach b0's entry without killing f and
// whose value is weaker than v. No other block can change: a path whose
// value changes runs through such blocks only, since a block whose every
// path already meets a check at least as strong as v keeps its value.
// A family the states do not cover yet widens them.
func (a *Anticipation) Strengthen(b0 *ir.Block, f *rangecheck.Family, v int64) {
	e := a.e
	if f.Index >= e.width {
		a.grow()
	}
	n := len(e.order)
	if a.mark == nil {
		a.mark, a.sumAt, a.sum = make([]uint32, n), make([]uint32, n), make([]colSum, n)
	}
	a.epoch++
	w, k := e.width, f.Index
	region := a.queue[:0]
	add := func(r int) {
		if r < 0 || a.mark[r] == a.epoch || a.summary(r, f).kills || a.in[r*w+k] <= v {
			return
		}
		a.mark[r] = a.epoch
		region = append(region, int32(r))
	}
	add(e.rowOf(b0))
	for j := 0; j < len(region); j++ {
		for _, p := range e.order[region[j]].Preds {
			add(e.rowOf(p))
		}
	}
	e.Visits += len(region)
	for _, r := range region {
		a.in[int(r)*w+k] = rangecheck.AllChecks
		a.queued[r] = true
	}
	a.queue = region
	a.solveColumn(f, func(r int) bool { return a.mark[r] == a.epoch })
}

// solveColumn iterates f's column over the queued rows until it is
// stable, queueing again only the predecessors inside the region.
func (a *Anticipation) solveColumn(f *rangecheck.Family, inRegion func(r int) bool) {
	e := a.e
	w, k := e.width, f.Index
	for head := 0; head < len(a.queue); head++ {
		i := int(a.queue[head])
		a.queued[i] = false
		b := e.order[i]
		e.Visits++
		sm := a.summary(i, f)
		v := sm.pre
		if !sm.kills {
			v = min(sm.gen, a.exit(b, k))
		}
		if v == a.in[i*w+k] {
			continue
		}
		a.in[i*w+k] = v
		for _, p := range b.Preds {
			if r := e.rowOf(p); r >= 0 && inRegion(r) {
				a.push(r)
			}
		}
	}
	a.queue = a.queue[:0]
}

// exit returns column k of b's exit state.
func (a *Anticipation) exit(b *ir.Block, k int) int64 {
	e := a.e
	w := e.width
	switch t := b.Term.(type) {
	case *ir.Goto:
		return a.in[e.rowOf(t.Target)*w+k]
	case *ir.If:
		return max(a.in[e.rowOf(t.Then)*w+k], a.in[e.rowOf(t.Else)*w+k])
	}
	return rangecheck.None
}

// summary returns row r's transfer for family f, computed once per
// Strengthen call.
func (a *Anticipation) summary(r int, f *rangecheck.Family) colSum {
	if a.sumAt[r] == a.epoch {
		return a.sum[r]
	}
	sm := colSum{gen: rangecheck.None, pre: rangecheck.None}
	for _, s := range a.e.order[r].Stmts {
		if chk, ok := s.(*ir.CheckStmt); ok {
			if chk.Guard == nil && a.e.FamilyOf(chk) == f {
				sm.gen = min(sm.gen, chk.Const)
				if !sm.kills {
					sm.pre = sm.gen
				}
			}
			continue
		}
		sm.kills = sm.kills || killsFamily(s, f)
	}
	a.sum[r], a.sumAt[r] = sm, a.epoch
	return sm
}

// killsFamily reports whether s kills f.
func killsFamily(s ir.Stmt, f *rangecheck.Family) bool {
	switch s := s.(type) {
	case *ir.AssignStmt:
		return f.KillsVar(s.Dst.ID)
	case *ir.StoreStmt:
		return f.KillsArray(s.Arr.ID)
	case *ir.CallStmt:
		return f.KilledByCall
	}
	return false
}

// grow widens the states to every family the registry holds and solves
// the new columns over the whole function.
func (a *Anticipation) grow() {
	e := a.e
	old, w := e.width, len(e.Reg.Families)
	n := len(e.order)
	in := make([]int64, n*w)
	fill(in, rangecheck.AllChecks)
	for r := 0; r < n; r++ {
		copy(in[r*w:r*w+old], a.in[r*old:(r+1)*old])
	}
	a.in = in
	e.width = w
	e.scratch = make(State, w)
	for len(e.present) < w {
		e.present = append(e.present, false)
	}
	if a.mark == nil {
		a.mark, a.sumAt, a.sum = make([]uint32, n), make([]uint32, n), make([]colSum, n)
	}
	for _, f := range e.Reg.Families[old:w] {
		a.epoch++
		for r := n - 1; r >= 0; r-- {
			a.push(r)
		}
		a.solveColumn(f, func(int) bool { return true })
	}
}

// antExit meets the entry states of b's successors into st: None at a
// return (nothing is anticipatable past the function's end).
func (e *Env) antExit(st State, b *ir.Block, in []int64) {
	var s1, s2 *ir.Block
	switch t := b.Term.(type) {
	case *ir.Goto:
		s1 = t.Target
	case *ir.If:
		s1, s2 = t.Then, t.Else
	}
	if s1 == nil {
		fill(st, rangecheck.None)
		return
	}
	fill(st, rangecheck.AllChecks)
	st.MeetInto(row(in, e.rowOf(s1), e.width))
	if s2 != nil {
		st.MeetInto(row(in, e.rowOf(s2), e.width))
	}
}
