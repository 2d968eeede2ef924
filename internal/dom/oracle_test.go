package dom_test

import (
	"slices"
	"testing"

	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/testutil"
)

// reach returns the blocks reachable from the roots along next without
// passing through the removed block (nil removes none).
func reach(roots []*ir.Block, removed *ir.Block, next func(*ir.Block) []*ir.Block) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	var work []*ir.Block
	for _, r := range roots {
		if r != removed && !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range next(b) {
			if s != removed && !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

func preds(b *ir.Block) []*ir.Block { return b.Preds }

// TestDominatorsMatchDefinition checks the dense trees against the
// definitions, independently of any dominator algorithm: a dominates b
// iff b is reachable and removing a leaves b unreachable from entry;
// a postdominates b iff b reaches an exit and removing a leaves it none
// to reach. Children and dominance frontiers follow from the same
// relation: c is a child of b iff b is c's immediate dominator, and y is
// in b's frontier iff b dominates a predecessor of y but does not
// strictly dominate y.
func TestDominatorsMatchDefinition(t *testing.T) {
	testutil.ForEachFunc(t, func(name string, f *ir.Func) {
		tree, post := dom.Compute(f), dom.ComputePost(f)
		entry := []*ir.Block{f.Entry()}
		var exits []*ir.Block
		for _, b := range f.Blocks {
			if _, ok := b.Term.(*ir.Ret); ok {
				exits = append(exits, b)
			}
		}
		reachable := reach(entry, nil, (*ir.Block).Succs)
		exiting := reach(exits, nil, preds)
		dominates := map[[2]*ir.Block]bool{}
		for _, a := range f.Blocks {
			without := reach(entry, a, (*ir.Block).Succs)
			withoutPost := reach(exits, a, preds)
			for _, b := range f.Blocks {
				want := reachable[b] && (a == b || !without[b])
				dominates[[2]*ir.Block{a, b}] = want
				if got := tree.Dominates(a, b); got != want {
					t.Fatalf("%s: Dominates(b%d, b%d) = %v, want %v", name, a.ID, b.ID, got, want)
				}
				want = exiting[b] && (a == b || !withoutPost[b])
				if got := post.PostDominates(a, b); got != want {
					t.Fatalf("%s: PostDominates(b%d, b%d) = %v, want %v", name, a.ID, b.ID, got, want)
				}
			}
		}
		strictly := func(a, b *ir.Block) bool { return a != b && dominates[[2]*ir.Block{a, b}] }
		for _, b := range f.Blocks {
			if !reachable[b] {
				continue
			}
			var kids, frontier []*ir.Block
			for _, c := range tree.Order() {
				if c != f.Entry() && tree.IDom(c) == b {
					kids = append(kids, c)
				}
				if slices.ContainsFunc(c.Preds, func(p *ir.Block) bool { return dominates[[2]*ir.Block{b, p}] }) && !strictly(b, c) {
					frontier = append(frontier, c)
				}
			}
			if got := tree.Children(b); !slices.Equal(got, kids) {
				t.Fatalf("%s: Children(b%d) = %v, want %v", name, b.ID, got, kids)
			}
			// The frontier may list a block once per path into it.
			got := slices.Clone(tree.Frontier(b))
			slices.SortFunc(got, func(x, y *ir.Block) int { return tree.Pos(x) - tree.Pos(y) })
			if got = slices.Compact(got); !slices.Equal(got, frontier) {
				t.Fatalf("%s: Frontier(b%d) = %v, want %v", name, b.ID, got, frontier)
			}
		}
	})
}
