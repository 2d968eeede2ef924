// Package dom computes dominator trees, dominance frontiers, and
// postdominators using the iterative algorithm of Cooper, Harvey &
// Kennedy ("A Simple, Fast Dominance Algorithm").
package dom

import "nascent/internal/ir"

// Tree is the dominator tree of a function. Its facts are dense: a
// block's position in reverse postorder is found by block ID, and tree
// facts are indexed by that position.
type Tree struct {
	order []*ir.Block // reverse postorder
	pos   []int32     // block ID -> 1 + position in order, 0 if unreachable
	idom  []int32     // position -> position of its immediate dominator
	// Children and dominance frontiers, grouped by position on first use.
	children, frontier groups
	nest               nesting
}

// Compute builds the dominator tree of f. Unreachable blocks are ignored.
func Compute(f *ir.Func) *Tree {
	order := f.ReversePostorder()
	t := &Tree{order: order, pos: positions(order)}
	entry := func(b *ir.Block) bool { return b == order[0] }
	t.idom = solve(order, t.pos, entry, func(b *ir.Block) []*ir.Block { return b.Preds })
	return t
}

// positions maps each block ID to 1 + its position in order, 0 for a
// block not in order.
func positions(order []*ir.Block) []int32 {
	n := 0
	for _, b := range order {
		n = max(n, b.ID+1)
	}
	pos := make([]int32, n)
	for i, b := range order {
		pos[b.ID] = int32(i) + 1
	}
	return pos
}

// at returns b's position in the order pos numbers, or -1.
func at(pos []int32, b *ir.Block) int32 {
	if b.ID < len(pos) {
		return pos[b.ID] - 1
	}
	return -1
}

// solve returns the immediate dominator, as a position, of each block in
// order, over the graph in which in(b) lists the edges into b; a root is
// its own parent. Two walks up from blocks under different roots meet
// only at a virtual root above them all; solve then keeps the other
// walk's block.
func solve(order []*ir.Block, pos []int32, root func(*ir.Block) bool, in func(*ir.Block) []*ir.Block) []int32 {
	parent := make([]int32, len(order))
	for i, b := range order {
		parent[i] = -1 // not yet processed
		if root(b) {
			parent[i] = int32(i)
		}
	}
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				if parent[a] == a {
					return b
				}
				a = parent[a]
			}
			for b > a {
				if parent[b] == b {
					return a
				}
				b = parent[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i, b := range order {
			if parent[i] == int32(i) {
				continue
			}
			newIdom := int32(-1)
			for _, p := range in(b) {
				if q := at(pos, p); q < 0 || parent[q] < 0 {
					continue // unprocessed or unreachable
				} else if newIdom < 0 {
					newIdom = q
				} else {
					newIdom = intersect(q, newIdom)
				}
			}
			if newIdom >= 0 && parent[i] != newIdom {
				parent[i] = newIdom
				changed = true
			}
		}
	}
	return parent
}

// Pos returns b's position in reverse postorder (the index into Order),
// or -1 if b was unreachable when the tree was computed.
func (t *Tree) Pos(b *ir.Block) int { return int(at(t.pos, b)) }

// IDom returns the immediate dominator of b (the entry's IDom is itself).
func (t *Tree) IDom(b *ir.Block) *ir.Block {
	if q := t.Pos(b); q >= 0 {
		return t.order[t.idom[q]]
	}
	return nil
}

// Children returns the dominator-tree children of b, in reverse
// postorder.
func (t *Tree) Children(b *ir.Block) []*ir.Block {
	if t.children.start == nil {
		t.children.build(len(t.order), func(add func(int32, *ir.Block)) {
			for i, c := range t.order[1:] {
				add(t.idom[i+1], c)
			}
		})
	}
	return t.children.of(t.Pos(b))
}

// Reachable reports whether b was reachable when the tree was computed.
func (t *Tree) Reachable(b *ir.Block) bool { return t.Pos(b) >= 0 }

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

// groups lists blocks per position: those of position q are
// items[start[q]:start[q+1]].
type groups struct {
	start []int32
	items []*ir.Block
}

// build groups the (position, block) pairs that each yields, keeping
// their order within a position. each runs twice: to count, then to
// fill.
func (g *groups) build(n int, each func(add func(int32, *ir.Block))) {
	g.start = make([]int32, n+1)
	each(func(q int32, _ *ir.Block) { g.start[q+1]++ })
	for q := range n {
		g.start[q+1] += g.start[q]
	}
	g.items = make([]*ir.Block, g.start[n])
	each(func(q int32, b *ir.Block) {
		g.items[g.start[q]] = b
		g.start[q]++ // ends at the start of q+1
	})
	copy(g.start[1:], g.start[:n])
	g.start[0] = 0
}

func (g *groups) of(q int) []*ir.Block {
	if q < 0 {
		return nil
	}
	return g.items[g.start[q]:g.start[q+1]:g.start[q+1]]
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
	if t.frontier.start == nil {
		t.frontier.build(len(t.order), func(add func(int32, *ir.Block)) {
			for i, x := range t.order {
				if len(x.Preds) < 2 {
					continue
				}
				for _, p := range x.Preds {
					for r := t.Pos(p); r >= 0 && int32(r) != t.idom[i]; r = int(t.idom[r]) {
						add(int32(r), x)
					}
				}
			}
		})
	}
	return t.frontier.of(t.Pos(b))
}
