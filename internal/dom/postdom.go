package dom

import "nascent/internal/ir"

// PostTree is the postdominator tree of a function: a postdominates b
// when every path from b to function exit passes through a. It is
// computed over the reversed CFG with a virtual exit joining all Ret
// blocks, and indexed like Tree.
type PostTree struct {
	order []*ir.Block // reverse postorder of the reversed CFG
	pos   []int32     // block ID -> 1 + position in order, 0 if no exit is reached
	ipdom []int32     // position -> position of its ipdom (itself for exits), -1 if none
	nest  nesting
}

// ComputePost builds the postdominator tree of f.
func ComputePost(f *ir.Func) *PostTree {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	// Reverse postorder over the reversed CFG, starting from every exit
	// block (Ret terminators) in block order.
	seen := make([]bool, n)
	order := make([]*ir.Block, 0, len(f.Blocks))
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, p := range b.Preds {
			if !seen[p.ID] {
				dfs(p)
			}
		}
		order = append(order, b)
	}
	for _, b := range f.Blocks {
		if isExit(b) && !seen[b.ID] {
			dfs(b)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	// Exit blocks are roots: their ipdom is the virtual exit, but for
	// the intersect walk each root maps to itself.
	t := &PostTree{order: order, pos: positions(order)}
	t.ipdom = solve(order, t.pos, isExit, (*ir.Block).Succs)
	return t
}

func isExit(b *ir.Block) bool {
	_, ok := b.Term.(*ir.Ret)
	return ok
}

// IPDom returns the immediate postdominator of b (b itself for exit
// blocks; nil if b cannot reach an exit).
func (t *PostTree) IPDom(b *ir.Block) *ir.Block {
	if q := at(t.pos, b); q >= 0 && t.ipdom[q] >= 0 {
		return t.order[t.ipdom[q]]
	}
	return nil
}

// PostDominates reports whether a postdominates b (every block
// postdominates itself). The first call numbers the tree (see nesting).
func (t *PostTree) PostDominates(a, b *ir.Block) bool {
	if t.IPDom(a) == nil || t.IPDom(b) == nil {
		return false
	}
	if t.nest.enter == nil {
		t.nest = newNesting(t.order, t.IPDom)
	}
	return t.nest.contains(a, b)
}
