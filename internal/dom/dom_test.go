package dom_test

import (
	"testing"

	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

func TestDiamond(t *testing.T) {
	a := testutil.BuildIR(t, `program p
  if (i < 5) then
    j = 1
  else
    j = 2
  endif
  k = 3
end
`, false)
	f := a.Main()
	tree := dom.Compute(f)
	entry := f.Entry()
	ifTerm := entry.Term.(*ir.If)
	thenB, elseB := ifTerm.Then, ifTerm.Else
	join := thenB.Succs()[0]

	if tree.IDom(thenB) != entry || tree.IDom(elseB) != entry {
		t.Error("branch arms not immediately dominated by entry")
	}
	if tree.IDom(join) != entry {
		t.Errorf("join idom = b%d, want entry", tree.IDom(join).ID)
	}
	if !tree.Dominates(entry, join) || tree.Dominates(thenB, join) {
		t.Error("dominance relation wrong at join")
	}
	// Frontier of each arm is the join block.
	fr := tree.Frontier(thenB)
	if len(fr) != 1 || fr[0] != join {
		t.Errorf("frontier(then) = %v", fr)
	}
}

func TestLoopDominance(t *testing.T) {
	a := testutil.BuildIR(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
  k = 1
end
`, false)
	f := a.Main()
	tree := dom.Compute(f)
	dl := f.DoLoops[0]
	if !tree.Dominates(dl.Header, dl.BodyEntry) {
		t.Error("header must dominate body")
	}
	if !tree.Dominates(dl.Header, dl.Latch) {
		t.Error("header must dominate latch")
	}
	if tree.Dominates(dl.BodyEntry, dl.Header) {
		t.Error("body must not dominate header")
	}
	// Back edge: latch's frontier includes the header.
	found := false
	for _, b := range tree.Frontier(dl.Latch) {
		if b == dl.Header {
			found = true
		}
	}
	if !found {
		t.Errorf("frontier(latch) = %v, want to include header", tree.Frontier(dl.Latch))
	}
}

func TestSelfDominance(t *testing.T) {
	a := testutil.BuildIR(t, "program p\n  i = 1\nend\n", false)
	f := a.Main()
	tree := dom.Compute(f)
	for _, b := range tree.Order() {
		if !tree.Dominates(b, b) {
			t.Errorf("block b%d does not dominate itself", b.ID)
		}
	}
	if tree.IDom(f.Entry()) != f.Entry() {
		t.Error("entry idom should be itself")
	}
}

func TestNestedLoopsOrder(t *testing.T) {
	a := testutil.BuildIR(t, `program p
  integer i, j
  do i = 1, 4
    do j = 1, 4
      k = i + j
    enddo
  enddo
end
`, false)
	f := a.Main()
	tree := dom.Compute(f)
	outer, inner := f.DoLoops[0], f.DoLoops[1]
	if !tree.Dominates(outer.Header, inner.Header) {
		t.Error("outer header must dominate inner header")
	}
	if tree.Dominates(inner.Header, outer.Header) {
		t.Error("inner header must not dominate outer header")
	}
	// RPO puts the entry first.
	if tree.Order()[0] != f.Entry() {
		t.Error("RPO does not start at entry")
	}
}

// TestIntervalsMatchTreeWalk checks the interval form of Dominates and
// PostDominates against a walk up the idom and ipdom chains, for every
// pair of blocks of every suite function (critical edges split, as the
// optimizer sees them).
func TestIntervalsMatchTreeWalk(t *testing.T) {
	for _, sp := range suite.Programs {
		p := testutil.BuildIR(t, sp.Source, true)
		for _, f := range p.Funcs {
			f.SplitCriticalEdges()
			tree, post := dom.Compute(f), dom.ComputePost(f)
			for _, a := range f.Blocks {
				for _, b := range f.Blocks {
					if got, want := tree.Dominates(a, b), walkDominates(tree, a, b); got != want {
						t.Fatalf("%s/%s: Dominates(b%d, b%d) = %v, tree walk says %v", sp.Name, f.Name, a.ID, b.ID, got, want)
					}
					if got, want := post.PostDominates(a, b), walkPostDominates(post, a, b); got != want {
						t.Fatalf("%s/%s: PostDominates(b%d, b%d) = %v, tree walk says %v", sp.Name, f.Name, a.ID, b.ID, got, want)
					}
				}
			}
		}
	}
}

func walkDominates(t *dom.Tree, a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		if t.IDom(b) == b {
			return false
		}
		b = t.IDom(b)
	}
}

func walkPostDominates(t *dom.PostTree, a, b *ir.Block) bool {
	cur := t.IPDom(b)
	if cur == nil {
		return false
	}
	if a == b {
		return true
	}
	for cur != a {
		next := t.IPDom(cur)
		if next == nil || next == cur {
			return false
		}
		cur = next
	}
	return true
}
