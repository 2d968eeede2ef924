package loops_test

import (
	"testing"

	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

func analyze(t *testing.T, src string) (*ir.Func, *loops.Forest) {
	t.Helper()
	p := testutil.BuildIR(t, src, false)
	f := p.Main()
	tree := dom.Compute(f)
	forest := loops.Analyze(f, tree)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f, forest
}

func TestSingleDoLoop(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`)
	if len(forest.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(forest.Loops))
	}
	l := forest.Loops[0]
	dl := f.DoLoops[0]
	if l.Header != dl.Header {
		t.Error("loop header mismatch")
	}
	if l.Do != dl {
		t.Error("DO metadata not attached")
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
	if !l.Contains(dl.BodyEntry) || !l.Contains(dl.Latch) || !l.Contains(dl.Header) {
		t.Error("loop body incomplete")
	}
	if l.Preheader != dl.Preheader {
		t.Errorf("preheader b%d, want lowering preheader b%d", l.Preheader.ID, dl.Preheader.ID)
	}
}

func TestNestedLoopsForest(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i, j, k
  do i = 1, 4
    do j = 1, 4
      do k = 1, 4
        s = s + 1.0
      enddo
    enddo
  enddo
end
`)
	if len(forest.Loops) != 3 {
		t.Fatalf("found %d loops, want 3", len(forest.Loops))
	}
	// Innermost-first ordering.
	if forest.Loops[0].Depth != 3 || forest.Loops[2].Depth != 1 {
		t.Errorf("depths = %d,%d,%d want 3,2,1",
			forest.Loops[0].Depth, forest.Loops[1].Depth, forest.Loops[2].Depth)
	}
	inner, mid, outer := forest.Loops[0], forest.Loops[1], forest.Loops[2]
	if inner.Parent != mid || mid.Parent != outer || outer.Parent != nil {
		t.Error("nesting chain wrong")
	}
	if len(outer.Children) != 1 || outer.Children[0] != mid {
		t.Error("children lists wrong")
	}
	// Inner blocks belong to all three loops.
	innerBody := f.DoLoops[2].BodyEntry
	if !inner.Contains(innerBody) || !mid.Contains(innerBody) || !outer.Contains(innerBody) {
		t.Error("inner body not contained in enclosing loops")
	}
}

func TestWhileLoopDetected(t *testing.T) {
	_, forest := analyze(t, `program p
  integer i
  i = 0
  while (i < 10)
    i = i + 1
  endwhile
end
`)
	if len(forest.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(forest.Loops))
	}
	l := forest.Loops[0]
	if l.Do != nil {
		t.Error("while loop must not have DO metadata")
	}
	if l.Preheader == nil {
		t.Error("while loop has no preheader")
	}
	if got := l.Preheader.Succs(); len(got) != 1 || got[0] != l.Header {
		t.Error("preheader does not feed the header")
	}
}

func TestSequentialLoopsShareNothing(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i, j
  do i = 1, 4
    x = 1.0
  enddo
  do j = 1, 4
    y = 2.0
  enddo
end
`)
	if len(forest.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(forest.Loops))
	}
	a, b := forest.Loops[0], forest.Loops[1]
	if a.Parent != nil || b.Parent != nil {
		t.Error("sequential loops must not nest")
	}
	for _, blk := range a.Body() {
		if b.Contains(blk) {
			t.Errorf("block b%d shared by both loops", blk.ID)
		}
	}
	_ = f
}

func TestLoopExits(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i
  do i = 1, 10
    j = i
  enddo
end
`)
	l := forest.Loops[0]
	exits := l.Exits()
	if len(exits) != 1 {
		t.Fatalf("got %d exits, want 1", len(exits))
	}
	if exits[0][0] != f.DoLoops[0].Header {
		t.Error("exit should leave from the header")
	}
	if l.Contains(exits[0][1]) {
		t.Error("exit target inside loop")
	}
}

func TestLoopOfAndDepth(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i, j
  do i = 1, 4
    do j = 1, 4
      s = s + 1.0
    enddo
  enddo
  k = 1
end
`)
	innerBody := f.DoLoops[1].BodyEntry
	if forest.Depth(innerBody) != 2 {
		t.Errorf("inner body depth = %d, want 2", forest.Depth(innerBody))
	}
	if forest.Depth(f.Entry()) != 0 {
		t.Error("entry should be outside all loops")
	}
	if forest.LoopOf(innerBody) != forest.Loops[0] {
		t.Error("LoopOf(inner body) is not innermost loop")
	}
	// The inner loop's preheader lives inside the outer loop.
	if forest.LoopOf(forest.Loops[0].Preheader) != forest.Loops[1] {
		t.Error("inner preheader should belong to outer loop")
	}
}

func TestPreheaderCreatedForMultiEntryEdges(t *testing.T) {
	// A while loop whose header is reached from two places: if/else join
	// then loop — after critical edge splitting the header still has a
	// unique outside pred path, but construct guarantees a preheader
	// either way.
	p := testutil.BuildIR(t, `program p
  integer i
  if (k > 0) then
    i = 0
  else
    i = 5
  endif
  while (i < 10)
    i = i + 1
  endwhile
end
`, false)
	f := p.Main()
	tree := dom.Compute(f)
	forest := loops.Analyze(f, tree)
	l := forest.Loops[0]
	if l.Preheader == nil {
		t.Fatal("no preheader")
	}
	if succ := l.Preheader.Succs(); len(succ) != 1 || succ[0] != l.Header {
		t.Error("preheader must have the header as its only successor")
	}
	if l.Contains(l.Preheader) {
		t.Error("preheader must be outside the loop")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestByHeaderAndExitsNested(t *testing.T) {
	f, forest := analyze(t, `program p
  integer i, j
  do i = 1, 5
    do j = 1, 5
      s = s + 1.0
    enddo
  enddo
end
`)
	inner := forest.ByHeader(f.DoLoops[1].Header)
	outer := forest.ByHeader(f.DoLoops[0].Header)
	if inner == nil || outer == nil {
		t.Fatal("ByHeader failed")
	}
	if forest.ByHeader(f.Entry()) != nil {
		t.Error("entry is not a loop header")
	}
	// The inner loop's exit edge leads into the outer loop body.
	for _, e := range inner.Exits() {
		if !outer.Contains(e[1]) {
			t.Errorf("inner exit leaves the outer loop: b%d", e[1].ID)
		}
	}
	// The inner body is a sub-interval of the outer one.
	ilo, ihi := inner.Span()
	olo, ohi := outer.Span()
	if ilo <= olo || ihi > ohi {
		t.Errorf("inner span [%d,%d) not strictly inside outer [%d,%d)", ilo, ihi, olo, ohi)
	}
}

// TestIntervalsMatchNaturalLoops checks the pre-order intervals against
// the textbook definition over every suite function: a loop's body is its
// header plus every block that reaches a latch without passing through
// the header (plus the preheaders Analyze created for nested loops). It
// also checks the forest against that definition: parents are the
// smallest enclosing loops, and LoopOf names the smallest loop holding
// each block.
func TestIntervalsMatchNaturalLoops(t *testing.T) {
	for _, sp := range suite.Programs {
		p := testutil.BuildIR(t, sp.Source, true)
		for _, f := range p.Funcs {
			f.SplitCriticalEdges()
			forest := loops.Analyze(f, dom.Compute(f))
			if got := len(forest.Order()); got != len(f.Blocks) {
				t.Fatalf("%s/%s: Order has %d blocks, function %d", sp.Name, f.Name, got, len(f.Blocks))
			}
			for i, b := range forest.Order() {
				if forest.Pos(b) != i {
					t.Fatalf("%s/%s: Pos(b%d) = %d, want %d", sp.Name, f.Name, b.ID, forest.Pos(b), i)
				}
			}
			body := make(map[*loops.Loop]map[*ir.Block]bool)
			for _, l := range forest.Loops {
				set := map[*ir.Block]bool{l.Header: true}
				var walk func(b *ir.Block)
				walk = func(b *ir.Block) {
					if set[b] {
						return
					}
					set[b] = true
					for _, p := range b.Preds {
						walk(p)
					}
				}
				for _, latch := range l.Latches {
					walk(latch)
				}
				// A preheader Analyze created sits in every enclosing loop.
				body[l] = set
			}
			for _, l := range forest.Loops {
				for anc := l.Parent; anc != nil; anc = anc.Parent {
					body[anc][l.Preheader] = true
				}
			}
			for i, l := range forest.Loops {
				set := body[l]
				for _, b := range f.Blocks {
					if l.Contains(b) != set[b] {
						t.Errorf("%s/%s: loop b%d Contains(b%d) = %v, natural loop says %v",
							sp.Name, f.Name, l.Header.ID, b.ID, l.Contains(b), set[b])
					}
				}
				if len(l.Body()) != len(set) {
					t.Errorf("%s/%s: loop b%d body has %d blocks, want %d", sp.Name, f.Name, l.Header.ID, len(l.Body()), len(set))
				}
				var want *loops.Loop
				for _, cand := range forest.Loops[i+1:] {
					if body[cand][l.Header] && (want == nil || len(body[cand]) < len(body[want])) {
						want = cand
					}
				}
				if l.Parent != want {
					t.Errorf("%s/%s: loop b%d has the wrong parent", sp.Name, f.Name, l.Header.ID)
				}
			}
			for _, b := range f.Blocks {
				var want *loops.Loop
				for _, l := range forest.Loops {
					if body[l][b] && (want == nil || len(body[l]) < len(body[want])) {
						want = l
					}
				}
				if forest.LoopOf(b) != want {
					t.Errorf("%s/%s: LoopOf(b%d) is not the smallest loop holding it", sp.Name, f.Name, b.ID)
				}
			}
		}
	}
}

// TestNewPreheadersCountsCreatedBlocks checks that Forest.NewPreheaders
// is exactly the number of blocks Analyze added, so zero means the CFG
// (and a dominator tree computed before Analyze) is unchanged: over
// every suite function after critical-edge splitting, as core runs it,
// and again on the same function, which must need no new preheader.
func TestNewPreheadersCountsCreatedBlocks(t *testing.T) {
	// A loop entered from two blocks has no preheader until Analyze
	// makes one: entry branches to a and b, both jump to header h.
	p := &ir.Program{}
	f := &ir.Func{Name: "main", IsMain: true}
	p.RegisterFunc(f)
	entry, a, b, h, body, exit := f.NewBlock("entry"), f.NewBlock("a"), f.NewBlock("b"),
		f.NewBlock("h"), f.NewBlock("body"), f.NewBlock("exit")
	cond := &ir.Bin{Op: ir.OpLt, L: &ir.ConstInt{V: 0}, R: &ir.ConstInt{V: 1}, Typ: ir.Bool}
	entry.Term = &ir.If{Cond: cond, Then: a, Else: b}
	a.Term = &ir.Goto{Target: h}
	b.Term = &ir.Goto{Target: h}
	h.Term = &ir.If{Cond: cond, Then: body, Else: exit}
	body.Term = &ir.Goto{Target: h}
	exit.Term = &ir.Ret{}
	f.RecomputePreds()
	if forest := loops.Analyze(f, dom.Compute(f)); forest.NewPreheaders != 1 || len(f.Blocks) != 7 {
		t.Errorf("two-entry loop: NewPreheaders = %d with %d blocks, want 1 and 7", forest.NewPreheaders, len(f.Blocks))
	}

	created := 0
	for _, sp := range suite.Programs {
		p := testutil.BuildIR(t, sp.Source, true)
		for _, f := range p.Funcs {
			f.SplitCriticalEdges()
			n := len(f.Blocks)
			forest := loops.Analyze(f, dom.Compute(f))
			if got := len(f.Blocks) - n; forest.NewPreheaders != got {
				t.Errorf("%s/%s: NewPreheaders = %d, Analyze added %d blocks", sp.Name, f.Name, forest.NewPreheaders, got)
			}
			created += forest.NewPreheaders
			if again := loops.Analyze(f, dom.Compute(f)); again.NewPreheaders != 0 {
				t.Errorf("%s/%s: second Analyze created %d preheaders", sp.Name, f.Name, again.NewPreheaders)
			}
		}
	}
	t.Logf("%d preheaders created over the suite", created)
}
