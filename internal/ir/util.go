package ir

import "slices"

// Defs returns the scalar variable defined by s, or nil. Only AssignStmt
// defines a scalar; CallStmt conservatively defines all globals (handled
// separately via CallKillsGlobals).
func Defs(s Stmt) *Var {
	if a, ok := s.(*AssignStmt); ok {
		return a.Dst
	}
	return nil
}

// ForEachStmtExpr calls fn on each expression evaluated by s, in
// evaluation order.
func ForEachStmtExpr(s Stmt, fn func(Expr)) {
	switch s := s.(type) {
	case *AssignStmt:
		fn(s.Src)
	case *StoreStmt:
		for _, e := range s.Idx {
			fn(e)
		}
		fn(s.Val)
	case *CheckStmt:
		if s.Guard != nil {
			fn(s.Guard)
		}
		for _, t := range s.Terms {
			fn(t.Atom)
		}
	case *CallStmt:
		for _, e := range s.Args {
			fn(e)
		}
	case *PrintStmt:
		for _, e := range s.Args {
			fn(e)
		}
	}
}

// ReplaceStmt replaces the statement at index i of block b.
func (b *Block) ReplaceStmt(i int, s Stmt) { b.Stmts[i] = s }

// InsertStmts inserts stmts before index i of block b, in place when
// b.Stmts has room.
func (b *Block) InsertStmts(i int, stmts ...Stmt) {
	b.Stmts = slices.Insert(b.Stmts, i, stmts...)
}

// RemoveStmt deletes the statement at index i of block b.
func (b *Block) RemoveStmt(i int) {
	b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
}

// ReplaceSucc rewires b's terminator so edges to old point to new.
func (b *Block) ReplaceSucc(old, new *Block) {
	switch t := b.Term.(type) {
	case *Goto:
		if t.Target == old {
			t.Target = new
		}
	case *If:
		if t.Then == old {
			t.Then = new
		}
		if t.Else == old {
			t.Else = new
		}
	}
}

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose destination has multiple predecessors.
// PRE insertion points then always exist: insertion "on an edge" becomes
// insertion into the split block. Returns the number of edges split.
func (f *Func) SplitCriticalEdges() int {
	f.RecomputePreds()
	n := 0
	for _, b := range append([]*Block{}, f.Blocks...) {
		succs := b.Succs()
		if len(succs) < 2 {
			continue
		}
		for _, s := range succs {
			if len(s.Preds) < 2 {
				continue
			}
			mid := f.NewBlock("split")
			mid.Term = &Goto{Target: s}
			b.ReplaceSucc(s, mid)
			n++
		}
	}
	if n > 0 {
		f.RecomputePreds()
	}
	return n
}

// ReversePostorder returns the blocks of f in reverse postorder from the
// entry. Unreachable blocks are omitted.
func (f *Func) ReversePostorder() []*Block {
	// Block IDs are unique within a function, so visited marks live in a
	// slice indexed by ID (grown for a successor outside f.Blocks).
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	seen := make([]bool, n)
	visit := func(b *Block) bool {
		if b.ID >= len(seen) {
			seen = append(seen, make([]bool, b.ID+1-len(seen))...)
		}
		if seen[b.ID] {
			return false
		}
		seen[b.ID] = true
		return true
	}
	order := make([]*Block, 0, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		for _, s := range b.Succs() {
			if visit(s) {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	visit(f.Entry())
	dfs(f.Entry())
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// refreshes predecessor lists. Returns the number of blocks removed.
func (f *Func) RemoveUnreachable() int {
	reach := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.ReversePostorder() {
		reach[b] = true
	}
	kept := f.Blocks[:0]
	removed := 0
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	f.RecomputePreds()
	return removed
}

// ForEachStmt calls fn for every statement in the function, in block
// order. fn receives the containing block and statement index.
func (f *Func) ForEachStmt(fn func(b *Block, i int, s Stmt)) {
	for _, b := range f.Blocks {
		for i, s := range b.Stmts {
			fn(b, i, s)
		}
	}
}

// CountChecks returns the number of CheckStmts in the function.
func (f *Func) CountChecks() int {
	n := 0
	f.ForEachStmt(func(_ *Block, _ int, s Stmt) {
		if _, ok := s.(*CheckStmt); ok {
			n++
		}
	})
	return n
}

// CountChecks returns the number of CheckStmts in the program.
func (p *Program) CountChecks() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.CountChecks()
	}
	return n
}
