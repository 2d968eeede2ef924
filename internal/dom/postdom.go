package dom

import "nascent/internal/ir"

// PostTree is the postdominator tree of a function: a postdominates b
// when every path from b to function exit passes through a. It is
// computed over the reversed CFG with a virtual exit joining all Ret
// blocks.
type PostTree struct {
	fn       *ir.Func
	order    []*ir.Block // reverse postorder of the reversed CFG
	rpoIndex map[*ir.Block]int
	ipdom    map[*ir.Block]*ir.Block // nil for virtual-exit roots
	nest     nesting
}

// ComputePost builds the postdominator tree of f.
func ComputePost(f *ir.Func) *PostTree {
	t := &PostTree{
		fn:       f,
		rpoIndex: make(map[*ir.Block]int),
		ipdom:    make(map[*ir.Block]*ir.Block),
	}

	// Reverse postorder over the reversed CFG, starting from every exit
	// block (Ret terminators).
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, p := range b.Preds {
			if !seen[p] {
				dfs(p)
			}
		}
		t.order = append(t.order, b)
	}
	var exits []*ir.Block
	for _, b := range f.Blocks {
		if _, ok := b.Term.(*ir.Ret); ok {
			exits = append(exits, b)
		}
	}
	for _, e := range exits {
		if !seen[e] {
			dfs(e)
		}
	}
	for i, j := 0, len(t.order)-1; i < j; i, j = i+1, j-1 {
		t.order[i], t.order[j] = t.order[j], t.order[i]
	}
	for i, b := range t.order {
		t.rpoIndex[b] = i
	}

	// Exit blocks are roots (their ipdom is the virtual exit = nil, but
	// for the intersect walk each root maps to itself).
	isRoot := make(map[*ir.Block]bool, len(exits))
	for _, e := range exits {
		isRoot[e] = true
		t.ipdom[e] = e
	}

	changed := true
	for changed {
		changed = false
		for _, b := range t.order {
			if isRoot[b] {
				continue
			}
			var newIdom *ir.Block
			for _, s := range b.Succs() {
				if _, ok := t.ipdom[s]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = t.intersect(s, newIdom)
				}
			}
			if newIdom != nil && t.ipdom[b] != newIdom {
				t.ipdom[b] = newIdom
				changed = true
			}
		}
	}
	return t
}

func (t *PostTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoIndex[a] > t.rpoIndex[b] {
			if t.ipdom[a] == a {
				return b // reached a root: the virtual exit dominates
			}
			a = t.ipdom[a]
		}
		for t.rpoIndex[b] > t.rpoIndex[a] {
			if t.ipdom[b] == b {
				return a
			}
			b = t.ipdom[b]
		}
	}
	return a
}

// IPDom returns the immediate postdominator of b (b itself for exit
// blocks; nil if b cannot reach an exit).
func (t *PostTree) IPDom(b *ir.Block) *ir.Block { return t.ipdom[b] }

// PostDominates reports whether a postdominates b (every block
// postdominates itself). The first call numbers the tree (see nesting).
func (t *PostTree) PostDominates(a, b *ir.Block) bool {
	_, okA := t.ipdom[a]
	_, okB := t.ipdom[b]
	if !okA || !okB {
		return false
	}
	if t.nest.enter == nil {
		t.nest = newNesting(t.order, t.IPDom)
	}
	return t.nest.contains(a, b)
}
