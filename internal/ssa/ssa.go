// Package ssa builds a static single assignment overlay on the CFG IR:
// the IR itself is left untouched, and the overlay maps every scalar
// variable occurrence to the SSA value it reads. The induction variable
// analysis of paper §2.3 is built on this overlay, exactly as Nascent's
// analysis is built on demand-driven SSA (Gerlek, Stoltz & Wolfe).
//
// Phi placement uses iterated dominance frontiers; renaming walks the
// dominator tree. Subroutine calls conservatively define every global
// variable (MF passes scalars by value, so locals are unaffected).
package ssa

import (
	"fmt"
	"slices"

	"nascent/internal/dom"
	"nascent/internal/ir"
)

// ValueKind classifies SSA values.
type ValueKind int

// SSA value kinds.
const (
	// EntryDef is the implicit definition of a variable at function entry
	// (zero-initialized, or the incoming parameter value).
	EntryDef ValueKind = iota
	// AssignDef is a definition by an AssignStmt.
	AssignDef
	// CallDef is a conservative definition of a global by a CallStmt.
	CallDef
	// PhiDef merges values at a join point.
	PhiDef
)

func (k ValueKind) String() string {
	switch k {
	case EntryDef:
		return "entry"
	case AssignDef:
		return "assign"
	case CallDef:
		return "call"
	case PhiDef:
		return "phi"
	}
	return "?"
}

// Value is one SSA value of a scalar variable.
type Value struct {
	ID    int
	Var   *ir.Var
	Kind  ValueKind
	Block *ir.Block
	Stmt  ir.Stmt // defining AssignStmt or CallStmt (nil for entry/phi)
	// Args are the phi operands, parallel to Block.Preds (PhiDef only).
	Args []*Value
}

func (v *Value) String() string {
	return fmt.Sprintf("%s.%d(%s)", v.Var.Name, v.ID, v.Kind)
}

// Info is the SSA overlay of one function. Its per-block facts are
// dense, indexed by the block's position in Dom's reverse postorder, and
// its per-variable facts by the variable's position in the universe of
// scalars the function references.
type Info struct {
	Fn  *ir.Func
	Dom *dom.Tree
	// Values lists every value by ID: the phis, grouped by block in
	// reverse postorder, then each variable's entry definition, then the
	// definitions the dominator-tree walk meets.
	Values []*Value
	// UseOf maps each VarRef occurrence in the function body to the SSA
	// value it reads.
	UseOf map[*ir.VarRef]*Value
	// DefOf maps each AssignStmt to the value it defines.
	DefOf map[ir.Stmt]*Value

	slab     []Value // backs Values, sized exactly by placePhis
	universe []*ir.Var
	globals  int     // how many universe variables are global
	slot     []int32 // var ID -> 1 + position in universe, 0 if untracked
	phiStart []int32 // block position -> ID of its first phi
	// outRow gives each loop header and each block entering one 1 + its
	// row of out: the value of every tracked variable at the end of the
	// block (after all statements). Other blocks have 0. A loop header
	// is a block that dominates one of its predecessors.
	outRow []int32
	out    []*Value
}

// ValueAtEnd returns the SSA value of v at the end of block b, or nil if
// v is not tracked in this function or b is neither a loop header nor a
// block entering one (a preheader, once loop analysis has made one).
func (s *Info) ValueAtEnd(b *ir.Block, v *ir.Var) *Value {
	q := s.Dom.Pos(b)
	if q < 0 || s.outRow[q] == 0 || v.ID >= len(s.slot) || s.slot[v.ID] == 0 {
		return nil
	}
	return s.out[int(s.outRow[q]-1)*len(s.universe)+int(s.slot[v.ID]-1)]
}

// PhisAt returns the phi values at block b, in universe order.
func (s *Info) PhisAt(b *ir.Block) []*Value {
	q := s.Dom.Pos(b)
	if q < 0 {
		return nil
	}
	return s.Values[s.phiStart[q]:s.phiStart[q+1]:s.phiStart[q+1]]
}

// Build constructs the SSA overlay of f using dominator tree t. The CFG
// must not be mutated while the overlay is in use.
func Build(f *ir.Func, t *dom.Tree) *Info {
	s := &Info{Fn: f, Dom: t}
	refs, defs, calls := s.scan()
	s.placePhis(defs, calls)
	s.rename(refs, len(defs))
	return s
}

// keepsExit reports whether b is a loop header (it dominates one of its
// predecessors) or enters one.
func (s *Info) keepsExit(b *ir.Block) bool {
	isHeader := func(h *ir.Block) bool {
		return slices.ContainsFunc(h.Preds, func(p *ir.Block) bool { return s.Dom.Dominates(h, p) })
	}
	if isHeader(b) {
		return true
	}
	return slices.ContainsFunc(b.Succs(), func(h *ir.Block) bool { return !s.Dom.Dominates(h, b) && isHeader(h) })
}

func (s *Info) newValue(v *ir.Var, k ValueKind, b *ir.Block, st ir.Stmt) *Value {
	val := &s.slab[len(s.Values)]
	*val = Value{ID: len(s.Values), Var: v, Kind: k, Block: b, Stmt: st}
	s.Values = append(s.Values, val)
	return val
}

// scan finds every scalar variable referenced by the function and, over
// the reachable blocks, counts the references, lists the assignments
// (as universe position << 32 | block position, sorted) and the
// positions of the blocks' calls, and numbers the blocks whose exit
// values are kept.
func (s *Info) scan() (refs int, defs []uint64, calls []int32) {
	s.slot = make([]int32, s.Fn.Program.NumVars)
	add := func(v *ir.Var) {
		if s.slot[v.ID] == 0 {
			s.universe = append(s.universe, v)
			s.slot[v.ID] = int32(len(s.universe))
			if v.Global {
				s.globals++
			}
		}
	}
	for _, p := range s.Fn.Params {
		add(p)
	}
	s.outRow = make([]int32, len(s.Dom.Order()))
	kept := 0
	for _, b := range s.Fn.Blocks {
		q := s.Dom.Pos(b)
		visit := func(x ir.Expr) {
			if r, ok := x.(*ir.VarRef); ok {
				add(r.Var)
				if q >= 0 {
					refs++
				}
			}
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *ir.AssignStmt:
				add(st.Dst)
				if q >= 0 {
					defs = append(defs, uint64(s.slot[st.Dst.ID]-1)<<32|uint64(q))
				}
			case *ir.CallStmt:
				if q >= 0 {
					calls = append(calls, int32(q))
				}
			}
			ir.ForEachStmtExpr(st, func(e ir.Expr) { ir.WalkExpr(e, visit) })
		}
		if t, ok := b.Term.(*ir.If); ok {
			ir.WalkExpr(t.Cond, visit)
		}
		if q >= 0 && s.keepsExit(b) {
			kept++
			s.outRow[q] = int32(kept)
		}
	}
	s.out = make([]*Value, kept*len(s.universe))
	slices.Sort(defs)
	return refs, defs, calls
}

// placePhis places phis at the iterated dominance frontiers of each
// variable's definitions, visiting blocks in a fixed order, and sizes
// the value slab exactly. The phis come first, ordered by block
// position, then by universe position.
func (s *Info) placePhis(defs []uint64, calls []int32) {
	order := s.Dom.Order()
	m, n := len(order), len(s.universe)+len(defs)+len(calls)*s.globals
	// Per block position, the last variable (as 1 + its position) that
	// placed a phi there or queued the block.
	stamps := make([]int32, 2*m)
	placed, queued := stamps[:m], stamps[m:]
	var phis []uint64 // block position << 32 | universe position
	var work []int32
	for u, v := range s.universe {
		stamp := int32(u + 1)
		queue := func(q int32) {
			if queued[q] != stamp {
				queued[q] = stamp
				work = append(work, q)
			}
		}
		queue(0) // the entry block defines every variable
		for ; len(defs) > 0 && int(defs[0]>>32) == u; defs = defs[1:] {
			queue(int32(uint32(defs[0])))
		}
		if v.Global {
			for _, q := range calls {
				queue(q)
			}
		}
		for len(work) > 0 {
			b := order[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, df := range s.Dom.Frontier(b) {
				if q := int32(s.Dom.Pos(df)); placed[q] != stamp {
					placed[q] = stamp
					phis = append(phis, uint64(q)<<32|uint64(u))
					queue(q)
				}
			}
		}
	}
	slices.Sort(phis)

	n += len(phis)
	s.slab, s.Values = make([]Value, n), make([]*Value, 0, n)
	s.phiStart = make([]int32, m+1)
	args := 0
	for _, p := range phis {
		s.phiStart[p>>32+1]++
		args += len(order[p>>32].Preds)
	}
	for q := range m {
		s.phiStart[q+1] += s.phiStart[q]
	}
	argSlab := make([]*Value, args)
	for _, p := range phis {
		b := order[p>>32]
		phi := s.newValue(s.universe[uint32(p)], PhiDef, b, nil)
		phi.Args, argSlab = argSlab[:len(b.Preds):len(b.Preds)], argSlab[len(b.Preds):]
	}
}

func (s *Info) rename(refs, assigns int) {
	s.UseOf = make(map[*ir.VarRef]*Value, refs)
	s.DefOf = make(map[ir.Stmt]*Value, assigns)
	// cur holds each variable's current value; log records what each
	// definition in the dominator-tree walk replaced, to undo on return.
	cur := make([]*Value, len(s.universe))
	var log []*Value
	entry := s.Fn.Entry()
	for u, v := range s.universe {
		cur[u] = s.newValue(v, EntryDef, entry, nil)
	}
	push := func(val *Value) {
		u := s.slot[val.Var.ID] - 1
		log = append(log, cur[u])
		cur[u] = val
	}
	renameExpr := func(x ir.Expr) {
		if r, ok := x.(*ir.VarRef); ok {
			if prev, dup := s.UseOf[r]; dup && prev != nil {
				panic(fmt.Sprintf("ssa: shared VarRef node for %s", r.Var.Name))
			}
			s.UseOf[r] = cur[s.slot[r.Var.ID]-1]
		}
	}

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(log)
		for _, phi := range s.PhisAt(b) {
			push(phi)
		}
		for _, st := range b.Stmts {
			ir.ForEachStmtExpr(st, func(e ir.Expr) { ir.WalkExpr(e, renameExpr) })
			switch st := st.(type) {
			case *ir.AssignStmt:
				val := s.newValue(st.Dst, AssignDef, b, st)
				s.DefOf[st] = val
				push(val)
			case *ir.CallStmt:
				for _, v := range s.universe {
					if v.Global {
						push(s.newValue(v, CallDef, b, st))
					}
				}
			}
		}
		if t, ok := b.Term.(*ir.If); ok {
			ir.WalkExpr(t.Cond, renameExpr)
		}
		if r := s.outRow[s.Dom.Pos(b)]; r > 0 {
			copy(s.out[int(r-1)*len(cur):], cur)
		}

		for _, succ := range b.Succs() {
			predIdx := slices.Index(succ.Preds, b)
			for _, phi := range s.PhisAt(succ) {
				phi.Args[predIdx] = cur[s.slot[phi.Var.ID]-1]
			}
		}

		for _, c := range s.Dom.Children(b) {
			walk(c)
		}
		for len(log) > mark {
			prev := log[len(log)-1]
			cur[s.slot[prev.Var.ID]-1] = prev
			log = log[:len(log)-1]
		}
	}
	walk(entry)
}
