package ir

import "slices"

// Snapshot returns a restorable copy of f's CFG shape: blocks,
// statement slices, terminators and DoLoop info are copied, while the
// statements and expressions themselves are shared with f, like the
// Var, Array and callee Func pointers. The copy is not registered with
// any Program.
//
// The optimizer snapshots each function before transforming it so that a
// failing pass can be undone with RestoreFrom, leaving the function with
// its naive (fully checked) body instead of a half-transformed one. So a
// pass between Snapshot and RestoreFrom may insert, remove, reorder or
// replace statements and rewire terminators, but must not edit a
// statement or expression in place: it replaces a statement with an
// edited copy instead.
func (f *Func) Snapshot() *Func {
	snap := &Func{}
	f.copyShape(snap, f.Program)
	return snap
}

// Fork returns a copy-on-write copy of p for one optimizer run. Each
// function's CFG shape is copied as Snapshot copies it, and each
// CallStmt is replaced by one that calls the fork's own function; every
// other statement, expression, Var and Array is shared with p.
//
// p must never change while forks of it live. Optimizing a fork keeps
// that rule for free, since a pass replaces a statement rather than
// editing it (see Snapshot). Each forked function remembers its origin
// in p, so a failed pass restores it with RestoreOrigin and needs no
// Snapshot of its own.
func (p *Program) Fork() *Program {
	q := &Program{
		Funcs:        make([]*Func, len(p.Funcs)),
		Globals:      slices.Clip(p.Globals),
		GlobalArrays: slices.Clip(p.GlobalArrays),
		funcByName:   make(map[string]*Func, len(p.Funcs)),
		NumVars:      p.NumVars,
		NumArrays:    p.NumArrays,
	}
	funcs := make([]Func, len(p.Funcs))
	for i, f := range p.Funcs {
		q.Funcs[i] = &funcs[i]
		q.funcByName[f.Name] = &funcs[i]
	}
	for i, f := range p.Funcs {
		f.copyShape(q.Funcs[i], q)
		q.Funcs[i].origin = f
	}
	return q
}

// Forked reports whether f belongs to a Fork and can be restored from
// its origin.
func (f *Func) Forked() bool { return f.origin != nil }

// RestoreOrigin replaces the body of a forked function with a fresh copy
// of the function it was forked from: its unoptimized lowering.
func (f *Func) RestoreOrigin() {
	fresh := &Func{}
	f.origin.copyShape(fresh, f.Program)
	f.RestoreFrom(fresh)
}

// copyShape fills dst with a copy of f's CFG shape that belongs to
// prog. When prog is not f's own program, every CallStmt is replaced by
// one whose callee is prog's function of the same index.
func (f *Func) copyShape(dst *Func, prog *Program) {
	*dst = Func{
		Name:        f.Name,
		Index:       f.Index,
		IsMain:      f.IsMain,
		Params:      append([]*Var(nil), f.Params...),
		Locals:      append([]*Var(nil), f.Locals...),
		Arrays:      append([]*Array(nil), f.Arrays...),
		Program:     prog,
		nextBlockID: f.nextBlockID,
	}
	maxID, nstmts := 0, 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
		nstmts += len(b.Stmts)
	}
	// Block IDs are unique within a function: remap through a slice.
	remap := make([]*Block, maxID+1)
	blocks := make([]Block, len(f.Blocks))
	dst.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{ID: b.ID, Label: b.Label, Func: dst}
		remap[b.ID] = nb
		dst.Blocks[i] = nb
	}
	at := func(b *Block) *Block {
		if b == nil {
			return nil
		}
		return remap[b.ID]
	}
	// One backing array holds every block's statements; each block's
	// slice is clipped, so a pass that grows one block reallocates it
	// instead of writing into the next.
	stmts := make([]Stmt, 0, nstmts)
	for i, b := range f.Blocks {
		nb := dst.Blocks[i]
		start := len(stmts)
		for _, s := range b.Stmts {
			if c, ok := s.(*CallStmt); ok && prog != f.Program {
				call := *c
				call.Callee = prog.Funcs[c.Callee.Index]
				s = &call
			}
			stmts = append(stmts, s)
		}
		nb.Stmts = stmts[start:len(stmts):len(stmts)]
		switch t := b.Term.(type) {
		case *Goto:
			nb.Term = &Goto{Target: at(t.Target)}
		case *If:
			nb.Term = &If{Cond: t.Cond, Then: at(t.Then), Else: at(t.Else)}
		case *Ret:
			nb.Term = &Ret{}
		}
	}
	dst.RecomputePreds()
	if len(f.DoLoops) > 0 {
		loops := make([]DoLoopInfo, len(f.DoLoops))
		dst.DoLoops = make([]*DoLoopInfo, len(f.DoLoops))
		for i, l := range f.DoLoops {
			loops[i] = *l
			dl := &loops[i]
			dl.Preheader, dl.Header, dl.BodyEntry, dl.Latch = at(l.Preheader), at(l.Header), at(l.BodyEntry), at(l.Latch)
			dst.DoLoops[i] = dl
		}
	}
}

// RestoreFrom replaces f's body with snap's (a value previously returned
// by f.Snapshot). The snapshot's blocks are adopted directly, so a
// snapshot must not be restored twice.
func (f *Func) RestoreFrom(snap *Func) {
	f.Params = snap.Params
	f.Locals = snap.Locals
	f.Arrays = snap.Arrays
	f.Blocks = snap.Blocks
	f.DoLoops = snap.DoLoops
	f.nextBlockID = snap.nextBlockID
	for _, b := range f.Blocks {
		b.Func = f
	}
}
