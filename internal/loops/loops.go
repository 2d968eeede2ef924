// Package loops identifies natural loops, builds the loop nesting forest,
// guarantees preheaders, and matches loops to the DO-loop metadata
// recorded at lowering time (trip counts and basic loop variables feed the
// preheader insertion schemes of paper §3.3).
package loops

import (
	"sort"

	"nascent/internal/dom"
	"nascent/internal/ir"
)

// Loop is one natural loop.
type Loop struct {
	Header    *ir.Block
	Blocks    map[*ir.Block]bool // includes Header
	Latches   []*ir.Block        // sources of back edges
	Parent    *Loop
	Children  []*Loop
	Depth     int // 1 for outermost
	Preheader *ir.Block
	Do        *ir.DoLoopInfo // non-nil for counted loops
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// Exits returns the edges leaving the loop as (from, to) pairs, in
// deterministic order.
func (l *Loop) Exits() [][2]*ir.Block {
	var out [][2]*ir.Block
	blocks := l.sortedBlocks()
	for _, b := range blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] {
				out = append(out, [2]*ir.Block{b, s})
			}
		}
	}
	return out
}

// SortedBlocks returns the loop's blocks ordered by block ID, for
// deterministic iteration.
func (l *Loop) SortedBlocks() []*ir.Block { return l.sortedBlocks() }

func (l *Loop) sortedBlocks() []*ir.Block {
	out := make([]*ir.Block, 0, len(l.Blocks))
	for b := range l.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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
	byHead        map[*ir.Block]*Loop
	inner         map[*ir.Block]*Loop // innermost loop containing each block
}

// LoopOf returns the innermost loop containing b, or nil.
func (f *Forest) LoopOf(b *ir.Block) *Loop { return f.inner[b] }

// ByHeader returns the loop with the given header block, or nil.
func (f *Forest) ByHeader(h *ir.Block) *Loop { return f.byHead[h] }

// Depth returns the loop nesting depth of b (0 outside all loops).
func (f *Forest) Depth(b *ir.Block) int {
	if l := f.inner[b]; l != nil {
		return l.Depth
	}
	return 0
}

// Analyze finds natural loops of f using the dominator tree, builds the
// nesting forest, creates missing preheaders (mutating the CFG), and
// attaches DO-loop metadata.
//
// Irreducible flow cannot occur: MF has only structured control flow.
func Analyze(f *ir.Func, t *dom.Tree) *Forest {
	forest := &Forest{
		fn:     f,
		byHead: make(map[*ir.Block]*Loop),
		inner:  make(map[*ir.Block]*Loop),
	}

	// Back edges: tail -> header where header dominates tail. Merge loops
	// sharing a header.
	for _, b := range t.Order() {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := forest.byHead[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
					forest.byHead[s] = l
				}
				l.Latches = append(l.Latches, b)
				collectBody(l, b)
			}
		}
	}

	// Collect loops ordered by decreasing body size => children before
	// parents is innermost-first when sizes differ; nesting fixed below.
	for _, l := range forest.byHead {
		forest.Loops = append(forest.Loops, l)
	}
	sort.Slice(forest.Loops, func(i, j int) bool {
		if len(forest.Loops[i].Blocks) != len(forest.Loops[j].Blocks) {
			return len(forest.Loops[i].Blocks) < len(forest.Loops[j].Blocks)
		}
		return forest.Loops[i].Header.ID < forest.Loops[j].Header.ID
	})

	// Nesting: the parent of l is the smallest loop strictly containing
	// l's header other than l itself.
	for i, l := range forest.Loops {
		for _, cand := range forest.Loops[i+1:] {
			if cand != l && cand.Blocks[l.Header] {
				l.Parent = cand
				cand.Children = append(cand.Children, l)
				break
			}
		}
	}
	for _, l := range forest.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}

	// Innermost loop per block.
	for _, l := range forest.Loops { // innermost first
		for b := range l.Blocks {
			if forest.inner[b] == nil {
				forest.inner[b] = l
			}
		}
	}

	// Preheaders and DO metadata.
	doByHeader := make(map[*ir.Block]*ir.DoLoopInfo)
	for _, d := range f.DoLoops {
		doByHeader[d.Header] = d
	}
	for _, l := range forest.Loops {
		l.Preheader = forest.ensurePreheader(f, l)
		if d := doByHeader[l.Header]; d != nil {
			l.Do = d
		}
	}
	return forest
}

func collectBody(l *Loop, tail *ir.Block) {
	if l.Blocks[tail] {
		return
	}
	l.Blocks[tail] = true
	for _, p := range tail.Preds {
		collectBody(l, p)
	}
}

// ensurePreheader returns the unique block outside the loop whose only
// successor is the header, creating one (and rewiring entry edges) if
// needed.
func (forest *Forest) ensurePreheader(f *ir.Func, l *Loop) *ir.Block {
	var outsidePreds []*ir.Block
	for _, p := range l.Header.Preds {
		if !l.Blocks[p] {
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
	for anc := l.Parent; anc != nil; anc = anc.Parent {
		anc.Blocks[pre] = true
	}
	if l.Parent != nil {
		forest.inner[pre] = l.Parent
	}
	return pre
}
