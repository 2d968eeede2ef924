// Package dom computes dominator trees, dominance frontiers, and
// postdominators using the iterative algorithm of Cooper, Harvey &
// Kennedy ("A Simple, Fast Dominance Algorithm").
package dom

import "nascent/internal/ir"

// Tree is the dominator tree of a function.
type Tree struct {
	order    []*ir.Block       // reverse postorder
	rpoIndex map[*ir.Block]int // block -> position in order
	idom     map[*ir.Block]*ir.Block
	children map[*ir.Block][]*ir.Block
	frontier map[*ir.Block][]*ir.Block
	nest     nesting
}

// Compute builds the dominator tree of f. Unreachable blocks are ignored.
func Compute(f *ir.Func) *Tree {
	t := &Tree{
		order:    f.ReversePostorder(),
		rpoIndex: make(map[*ir.Block]int),
		idom:     make(map[*ir.Block]*ir.Block),
		children: make(map[*ir.Block][]*ir.Block),
	}
	for i, b := range t.order {
		t.rpoIndex[b] = i
	}
	entry := f.Entry()
	t.idom[entry] = entry

	changed := true
	for changed {
		changed = false
		for _, b := range t.order[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if _, ok := t.idom[p]; !ok {
					continue // unprocessed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}

	for _, b := range t.order[1:] {
		if id := t.idom[b]; id != nil {
			t.children[id] = append(t.children[id], b)
		}
	}
	return t
}

func (t *Tree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoIndex[a] > t.rpoIndex[b] {
			a = t.idom[a]
		}
		for t.rpoIndex[b] > t.rpoIndex[a] {
			b = t.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (the entry's IDom is itself).
func (t *Tree) IDom(b *ir.Block) *ir.Block { return t.idom[b] }

// Children returns the dominator-tree children of b.
func (t *Tree) Children(b *ir.Block) []*ir.Block { return t.children[b] }

// Reachable reports whether b was reachable when the tree was computed.
func (t *Tree) Reachable(b *ir.Block) bool {
	_, ok := t.idom[b]
	return ok
}

// Dominates reports whether a dominates b (every block dominates
// itself). The first call numbers the tree (see nesting), like
// Frontier computes frontiers on first use.
func (t *Tree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	if t.nest.enter == nil {
		t.nest = newNesting(t.order, t.IDom)
	}
	return t.nest.contains(a, b)
}

// nesting numbers a forest of blocks in DFS order, so that "a is b or
// an ancestor of b" is one interval test rather than a walk up the
// tree: in a deep loop nest that walk is as long as the nest. Indexed
// by block ID.
type nesting struct{ enter, exit []int32 }

// newNesting numbers blocks. parent maps each block to its parent,
// which must be among blocks, or to nil or the block itself for a root.
func newNesting(blocks []*ir.Block, parent func(*ir.Block) *ir.Block) nesting {
	m := 0
	for _, b := range blocks {
		m = max(m, b.ID+1)
	}
	// One slab: enter and exit, then each block's parent, first child
	// and next sibling, stored as ID+1 so that 0 means none.
	slab := make([]int32, 5*m)
	n := nesting{enter: slab[:m:m], exit: slab[m : 2*m : 2*m]}
	up, first, next := slab[2*m:3*m], slab[3*m:4*m], slab[4*m:]
	for _, b := range blocks {
		if p := parent(b); p != nil && p != b {
			up[b.ID] = int32(p.ID) + 1
			next[b.ID] = first[p.ID]
			first[p.ID] = int32(b.ID) + 1
		}
	}
	clock := int32(0)
	for _, r := range blocks {
		if up[r.ID] != 0 {
			continue
		}
		root := int32(r.ID)
		id := root
	walk:
		for {
			n.enter[id] = clock
			clock++
			if c := first[id]; c != 0 {
				id = c - 1
				continue
			}
			for {
				n.exit[id] = clock
				clock++
				if id == root {
					break walk
				}
				if s := next[id]; s != 0 {
					id = s - 1
					continue walk
				}
				id = up[id] - 1
			}
		}
	}
	return n
}

// contains reports whether a is b or an ancestor of b. Both must be
// among the numbered blocks.
func (n nesting) contains(a, b *ir.Block) bool {
	return n.enter[a.ID] <= n.enter[b.ID] && n.exit[b.ID] <= n.exit[a.ID]
}

// Order returns the blocks in reverse postorder.
func (t *Tree) Order() []*ir.Block { return t.order }

// Frontier returns the dominance frontier of b, computing all frontiers
// lazily on first use.
func (t *Tree) Frontier(b *ir.Block) []*ir.Block {
	if t.frontier == nil {
		t.frontier = make(map[*ir.Block][]*ir.Block)
		for _, x := range t.order {
			if len(x.Preds) < 2 {
				continue
			}
			for _, p := range x.Preds {
				if !t.Reachable(p) {
					continue
				}
				runner := p
				for runner != t.idom[x] {
					t.frontier[runner] = append(t.frontier[runner], x)
					runner = t.idom[runner]
				}
			}
		}
	}
	return t.frontier[b]
}
