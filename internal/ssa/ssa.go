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

// Info is the SSA overlay of one function.
type Info struct {
	Fn     *ir.Func
	Dom    *dom.Tree
	Values []*Value
	// UseOf maps each VarRef occurrence in the function body to the SSA
	// value it reads.
	UseOf map[*ir.VarRef]*Value
	// DefOf maps each AssignStmt to the value it defines.
	DefOf map[ir.Stmt]*Value
	// CallDefs maps each CallStmt to the global values it defines.
	CallDefs map[ir.Stmt][]*Value
	// PhisAt lists the phi values at each block, by increasing var ID.
	PhisAt map[*ir.Block][]*Value
	// OutValues maps each loop header and each block entering a loop
	// header (a preheader, once loop analysis has made one) to the
	// value of every tracked variable at the end of the block (after
	// all statements). A loop header is a block that dominates one of
	// its predecessors. Other blocks are absent.
	OutValues map[*ir.Block]map[int]*Value

	universe []*ir.Var
	varByID  map[int]*ir.Var
}

// ValueAtEnd returns the SSA value of v at the end of block b, or nil if
// v is not tracked in this function or b is not in OutValues.
func (s *Info) ValueAtEnd(b *ir.Block, v *ir.Var) *Value {
	return s.OutValues[b][v.ID]
}

// Build constructs the SSA overlay of f using dominator tree t. The CFG
// must not be mutated while the overlay is in use.
func Build(f *ir.Func, t *dom.Tree) *Info {
	s := &Info{
		Fn:        f,
		Dom:       t,
		UseOf:     make(map[*ir.VarRef]*Value),
		DefOf:     make(map[ir.Stmt]*Value),
		CallDefs:  make(map[ir.Stmt][]*Value),
		PhisAt:    make(map[*ir.Block][]*Value),
		OutValues: make(map[*ir.Block]map[int]*Value),
		varByID:   make(map[int]*ir.Var),
	}
	s.collectUniverse()
	defSites := s.collectDefSites()
	s.placePhis(defSites)
	s.rename()
	return s
}

// keepsExit reports whether OutValues records b: b is a loop header
// (it dominates one of its predecessors) or enters one.
func (s *Info) keepsExit(b *ir.Block, succs []*ir.Block) bool {
	isHeader := func(h *ir.Block) bool {
		return slices.ContainsFunc(h.Preds, func(p *ir.Block) bool { return s.Dom.Dominates(h, p) })
	}
	if isHeader(b) {
		return true
	}
	return slices.ContainsFunc(succs, func(h *ir.Block) bool { return !s.Dom.Dominates(h, b) && isHeader(h) })
}

func (s *Info) newValue(v *ir.Var, k ValueKind, b *ir.Block, st ir.Stmt) *Value {
	val := &Value{ID: len(s.Values), Var: v, Kind: k, Block: b, Stmt: st}
	s.Values = append(s.Values, val)
	return val
}

// collectUniverse finds every scalar variable referenced by the function.
func (s *Info) collectUniverse() {
	add := func(v *ir.Var) {
		if _, ok := s.varByID[v.ID]; !ok {
			s.varByID[v.ID] = v
			s.universe = append(s.universe, v)
		}
	}
	for _, p := range s.Fn.Params {
		add(p)
	}
	s.Fn.ForEachStmt(func(_ *ir.Block, _ int, st ir.Stmt) {
		if a, ok := st.(*ir.AssignStmt); ok {
			add(a.Dst)
		}
		for _, e := range ir.StmtExprs(st) {
			ir.WalkExpr(e, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					add(r.Var)
				}
			})
		}
	})
	for _, b := range s.Fn.Blocks {
		if t, ok := b.Term.(*ir.If); ok {
			ir.WalkExpr(t.Cond, func(x ir.Expr) {
				if r, ok := x.(*ir.VarRef); ok {
					add(r.Var)
				}
			})
		}
	}
}

// collectDefSites returns, per variable ID, the set of blocks containing
// a definition (including the entry block's implicit definition).
func (s *Info) collectDefSites() map[int]map[*ir.Block]bool {
	sites := make(map[int]map[*ir.Block]bool, len(s.universe))
	addSite := func(v *ir.Var, b *ir.Block) {
		m := sites[v.ID]
		if m == nil {
			m = make(map[*ir.Block]bool)
			sites[v.ID] = m
		}
		m[b] = true
	}
	entry := s.Fn.Entry()
	for _, v := range s.universe {
		addSite(v, entry)
	}
	s.Fn.ForEachStmt(func(b *ir.Block, _ int, st ir.Stmt) {
		switch st := st.(type) {
		case *ir.AssignStmt:
			addSite(st.Dst, b)
		case *ir.CallStmt:
			for _, v := range s.universe {
				if v.Global {
					addSite(v, b)
				}
			}
		}
	})
	return sites
}

func (s *Info) placePhis(defSites map[int]map[*ir.Block]bool) {
	for _, v := range s.universe {
		placed := make(map[*ir.Block]bool)
		work := make([]*ir.Block, 0, len(defSites[v.ID]))
		for b := range defSites[v.ID] {
			work = append(work, b)
		}
		inWork := make(map[*ir.Block]bool)
		for _, b := range work {
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range s.Dom.Frontier(b) {
				if placed[df] {
					continue
				}
				placed[df] = true
				phi := s.newValue(v, PhiDef, df, nil)
				phi.Args = make([]*Value, len(df.Preds))
				s.PhisAt[df] = append(s.PhisAt[df], phi)
				if !inWork[df] {
					inWork[df] = true
					work = append(work, df)
				}
			}
		}
	}
}

func (s *Info) rename() {
	stacks := make(map[int][]*Value, len(s.universe))
	entry := s.Fn.Entry()
	for _, v := range s.universe {
		stacks[v.ID] = []*Value{s.newValue(v, EntryDef, entry, nil)}
	}

	top := func(v *ir.Var) *Value {
		st := stacks[v.ID]
		return st[len(st)-1]
	}

	var renameExpr func(e ir.Expr)
	renameExpr = func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if r, ok := x.(*ir.VarRef); ok {
				if prev, dup := s.UseOf[r]; dup && prev != nil {
					panic(fmt.Sprintf("ssa: shared VarRef node for %s", r.Var.Name))
				}
				s.UseOf[r] = top(r.Var)
			}
		})
	}

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var pushed []*ir.Var
		push := func(val *Value) {
			stacks[val.Var.ID] = append(stacks[val.Var.ID], val)
			pushed = append(pushed, val.Var)
		}

		for _, phi := range s.PhisAt[b] {
			push(phi)
		}
		for _, st := range b.Stmts {
			for _, e := range ir.StmtExprs(st) {
				renameExpr(e)
			}
			switch st := st.(type) {
			case *ir.AssignStmt:
				val := s.newValue(st.Dst, AssignDef, b, st)
				s.DefOf[st] = val
				push(val)
			case *ir.CallStmt:
				var defs []*Value
				for _, v := range s.universe {
					if v.Global {
						val := s.newValue(v, CallDef, b, st)
						defs = append(defs, val)
						push(val)
					}
				}
				s.CallDefs[st] = defs
			}
		}
		if t, ok := b.Term.(*ir.If); ok {
			renameExpr(t.Cond)
		}

		succs := b.Succs()
		if s.keepsExit(b, succs) {
			out := make(map[int]*Value, len(s.universe))
			for _, v := range s.universe {
				out[v.ID] = top(v)
			}
			s.OutValues[b] = out
		}

		for _, succ := range succs {
			predIdx := -1
			for i, p := range succ.Preds {
				if p == b {
					predIdx = i
					break
				}
			}
			for _, phi := range s.PhisAt[succ] {
				phi.Args[predIdx] = top(phi.Var)
			}
		}

		for _, c := range s.Dom.Children(b) {
			walk(c)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			id := pushed[i].ID
			stacks[id] = stacks[id][:len(stacks[id])-1]
		}
	}
	walk(entry)
}

// DefinedIn reports whether value val is defined inside the given block
// set (phi and entry defs count as defined in their block).
func DefinedIn(val *Value, blocks map[*ir.Block]bool) bool {
	return blocks[val.Block]
}
