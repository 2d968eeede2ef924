// Package loops identifies natural loops, builds the loop nesting forest,
// guarantees preheaders, and matches loops to the DO-loop metadata
// recorded at lowering time (trip counts and basic loop variables feed the
// preheader insertion schemes of paper §3.3).
//
// Membership is stored as intervals: the forest numbers every block in a
// pre-order of the loop tree (a loop's own blocks, then its children's),
// so the blocks of a loop, nested loops included, hold consecutive
// positions and Contains is one interval test.
package loops

import (
	"slices"
	"sort"

	"nascent/internal/dom"
	"nascent/internal/ir"
)

// Loop is one natural loop.
type Loop struct {
	Header    *ir.Block
	Latches   []*ir.Block // sources of back edges
	Parent    *Loop
	Children  []*Loop
	Depth     int // 1 for outermost
	Index     int // position in Forest.Loops
	Preheader *ir.Block
	Do        *ir.DoLoopInfo // non-nil for counted loops

	forest *Forest
	lo, hi int   // the loop's blocks hold positions lo..hi-1
	own    int   // blocks whose innermost loop is this one
	size   int   // own plus the children's sizes
	top    *Loop // while Analyze walks: toward the outermost loop found
	next   int   // while numbering: the next free position in the loop
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool {
	p := l.forest.Pos(b)
	return l.lo <= p && p < l.hi
}

// Span returns the loop's positions in Forest.Order: its blocks are
// Order()[lo:hi].
func (l *Loop) Span() (lo, hi int) { return l.lo, l.hi }

// Body returns the loop's blocks (header and nested loops included) in
// forest order. The slice aliases the forest: do not modify it.
func (l *Loop) Body() []*ir.Block { return l.forest.order[l.lo:l.hi] }

// Exits returns the edges leaving the loop as (from, to) pairs, in
// forest order.
func (l *Loop) Exits() [][2]*ir.Block {
	var out [][2]*ir.Block
	for _, b := range l.Body() {
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				out = append(out, [2]*ir.Block{b, s})
			}
		}
	}
	return out
}

// Forest is the loop nesting forest of a function.
type Forest struct {
	fn *ir.Func
	// Loops in innermost-first order (children before parents), the
	// processing order for preheader insertion (paper §3.3).
	Loops []*Loop
	// NewPreheaders counts the preheaders Analyze created. When it is
	// zero the CFG is unchanged, so a dominator tree computed before
	// Analyze still holds.
	NewPreheaders int

	order  []*ir.Block // blocks by position
	pos    []int32     // block ID -> position, -1 if not numbered
	inner  []*Loop     // block ID -> innermost loop containing it
	byHead []*Loop     // block ID -> loop with that header
}

// Order returns the function's blocks in the forest's pre-order: blocks
// outside every loop first, then each outermost loop's blocks in turn,
// a loop's own blocks before those of its children.
func (f *Forest) Order() []*ir.Block { return f.order }

// Pos returns b's position in Order, or -1 for a block created after
// Analyze.
func (f *Forest) Pos(b *ir.Block) int {
	if b.ID < len(f.pos) {
		return int(f.pos[b.ID])
	}
	return -1
}

// LoopOf returns the innermost loop containing b, or nil.
func (f *Forest) LoopOf(b *ir.Block) *Loop {
	if b.ID < len(f.inner) {
		return f.inner[b.ID]
	}
	return nil
}

// ByHeader returns the loop with the given header block, or nil.
func (f *Forest) ByHeader(h *ir.Block) *Loop {
	if h.ID < len(f.byHead) {
		return f.byHead[h.ID]
	}
	return nil
}

// Depth returns the loop nesting depth of b (0 outside all loops).
func (f *Forest) Depth(b *ir.Block) int {
	if l := f.LoopOf(b); l != nil {
		return l.Depth
	}
	return 0
}

// Analyze finds natural loops of f using the dominator tree, builds the
// nesting forest, creates missing preheaders (mutating the CFG), and
// attaches DO-loop metadata.
//
// Irreducible flow cannot occur: MF has only structured control flow.
// So each loop is found by one backward walk from its latches, headers
// taken innermost first (reverse RPO); the walk steps over a nested
// loop already found by jumping to its header, which makes the whole
// forest linear in the size of the CFG.
func Analyze(f *ir.Func, t *dom.Tree) *Forest {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, b.ID+1)
	}
	forest := &Forest{fn: f, inner: make([]*Loop, n), byHead: make([]*Loop, n)}

	// Back edges: tail -> header where header dominates tail, latches in
	// RPO order of their tails. Loops sharing a header are one loop.
	order := t.Order()
	var headers []*Loop
	for _, b := range order {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := forest.byHead[s.ID]
				if l == nil {
					l = &Loop{Header: s, forest: forest}
					forest.byHead[s.ID] = l
					headers = append(headers, l)
				}
				l.Latches = append(l.Latches, b)
			}
		}
	}
	rpo := make([]int32, n)
	for i, b := range order {
		rpo[b.ID] = int32(i)
	}
	sort.Slice(headers, func(i, j int) bool { return rpo[headers[i].Header.ID] > rpo[headers[j].Header.ID] })

	// outermost returns the outermost loop found so far around l,
	// compressing the chain of top links it walks.
	outermost := func(l *Loop) *Loop {
		r := l
		for r.top != nil {
			r = r.top
		}
		for l != r {
			next := l.top
			l.top = r
			l = next
		}
		return r
	}
	var work []*ir.Block
	for _, l := range headers { // inner headers before outer ones
		forest.inner[l.Header.ID] = l
		l.own = 1
		work = append(work[:0], l.Latches...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if !t.Reachable(b) {
				continue
			}
			sub := forest.inner[b.ID]
			if sub == nil {
				forest.inner[b.ID] = l
				l.own++
				work = append(work, b.Preds...)
				continue
			}
			if sub = outermost(sub); sub == l {
				continue
			}
			// A nested loop: adopt it and continue from its entries.
			sub.Parent = l
			sub.top = l
			work = append(work, sub.Header.Preds...)
		}
	}

	// Sizes before any preheader exists order the loops innermost first,
	// ties by header ID.
	for _, l := range headers { // children before parents
		l.size += l.own
		if l.Parent != nil {
			l.Parent.size += l.size
		}
	}
	forest.Loops = headers
	sort.Slice(forest.Loops, func(i, j int) bool {
		a, b := forest.Loops[i], forest.Loops[j]
		if a.size != b.size {
			return a.size < b.size
		}
		return a.Header.ID < b.Header.ID
	})
	for i, l := range forest.Loops {
		l.Index = i
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	for i := len(forest.Loops) - 1; i >= 0; i-- { // parents first
		l := forest.Loops[i]
		l.Depth = 1
		if l.Parent != nil {
			l.Depth = l.Parent.Depth + 1
		}
	}

	// Preheaders and DO metadata.
	for _, d := range f.DoLoops {
		if l := forest.ByHeader(d.Header); l != nil {
			l.Do = d
		}
	}
	for _, l := range forest.Loops {
		l.Preheader = forest.ensurePreheader(f, l)
	}
	forest.number()
	return forest
}

// number lays the blocks out in the forest's pre-order and records each
// loop's interval.
func (forest *Forest) number() {
	f := forest.fn
	outside := 0
	for _, b := range f.Blocks {
		if forest.inner[b.ID] == nil {
			outside++
		}
	}
	for _, l := range forest.Loops {
		l.size = l.own
	}
	for _, l := range forest.Loops { // children before parents
		if l.Parent != nil {
			l.Parent.size += l.size
		}
	}
	// Parents before children: a loop's children follow its own blocks,
	// outermost loops follow the blocks outside every loop. A loop's
	// next is the position its next child starts at.
	start := outside
	for i := len(forest.Loops) - 1; i >= 0; i-- {
		l := forest.Loops[i]
		if l.Parent == nil {
			l.lo = start
			start += l.size
		} else {
			l.lo = l.Parent.next
			l.Parent.next += l.size
		}
		l.hi = l.lo + l.size
		l.next = l.lo + l.own
	}
	// Each loop's own blocks, and the blocks outside every loop, fill
	// their slots in block order; next now counts a loop's own slots.
	for _, l := range forest.Loops {
		l.next = l.lo
	}
	forest.order = make([]*ir.Block, len(f.Blocks))
	forest.pos = make([]int32, len(forest.inner))
	for i := range forest.pos {
		forest.pos[i] = -1
	}
	free := 0
	for _, b := range f.Blocks {
		p := free
		if l := forest.inner[b.ID]; l != nil {
			p = l.next
			l.next++
		} else {
			free++
		}
		forest.order[p] = b
		forest.pos[b.ID] = int32(p)
	}
}

// ensurePreheader returns the unique block outside the loop whose only
// successor is the header, creating one (and rewiring entry edges) if
// needed. The header's predecessors inside the loop are its latches.
func (forest *Forest) ensurePreheader(f *ir.Func, l *Loop) *ir.Block {
	var outsidePreds []*ir.Block
	for _, p := range l.Header.Preds {
		if !slices.Contains(l.Latches, p) {
			outsidePreds = append(outsidePreds, p)
		}
	}
	if len(outsidePreds) == 1 {
		p := outsidePreds[0]
		if len(p.Succs()) == 1 {
			return p
		}
	}
	pre := f.NewBlock("preheader")
	forest.NewPreheaders++
	pre.Term = &ir.Goto{Target: l.Header}
	for _, p := range outsidePreds {
		p.ReplaceSucc(l.Header, pre)
	}
	f.RecomputePreds()
	// The new preheader belongs to every loop enclosing this one.
	for len(forest.inner) <= pre.ID {
		forest.inner = append(forest.inner, nil)
	}
	if l.Parent != nil {
		forest.inner[pre.ID] = l.Parent
		l.Parent.own++
	}
	return pre
}
