package ir

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
	snap := &Func{
		Name:        f.Name,
		Index:       f.Index,
		IsMain:      f.IsMain,
		Params:      append([]*Var(nil), f.Params...),
		Locals:      append([]*Var(nil), f.Locals...),
		Arrays:      append([]*Array(nil), f.Arrays...),
		Program:     f.Program,
		nextBlockID: f.nextBlockID,
	}
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	// Block IDs are unique within a function: remap through a slice.
	remap := make([]*Block, maxID+1)
	blocks := make([]Block, len(f.Blocks))
	snap.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{ID: b.ID, Label: b.Label, Func: snap}
		remap[b.ID] = nb
		snap.Blocks[i] = nb
	}
	at := func(b *Block) *Block {
		if b == nil {
			return nil
		}
		return remap[b.ID]
	}
	for i, b := range f.Blocks {
		nb := snap.Blocks[i]
		nb.Stmts = append([]Stmt(nil), b.Stmts...)
		switch t := b.Term.(type) {
		case *Goto:
			nb.Term = &Goto{Target: at(t.Target)}
		case *If:
			nb.Term = &If{Cond: t.Cond, Then: at(t.Then), Else: at(t.Else)}
		case *Ret:
			nb.Term = &Ret{}
		}
	}
	snap.RecomputePreds()
	for _, l := range f.DoLoops {
		dl := *l
		dl.Preheader, dl.Header, dl.BodyEntry, dl.Latch = at(l.Preheader), at(l.Header), at(l.BodyEntry), at(l.Latch)
		snap.DoLoops = append(snap.DoLoops, &dl)
	}
	return snap
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
