package core

import (
	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/loops"
)

// The paper (§3.3) notes that safe-earliest placement cannot hoist checks
// out of while loops because the loop may execute zero times, and that
// "a CFG transformation such as loop rotation can help the safe-earliest
// placement in such cases by converting while loops into repeat loops".
// rotateWhileLoops is that transformation, enabled by Options.Rotate.
//
// A while loop
//
//	H: [checks] if c goto B else X     (preds: preheader P, latch L)
//
// becomes a guarded repeat loop: H keeps the entry test, and each latch
// branches on a fresh copy of the test instead of returning to H:
//
//	H: [checks] if c goto B else X     (pred: P only — the guard)
//	T: [checks'] if c' goto B else X   (the rotated bottom test)
//
// The loop's header is now B; invariant checks in the body become
// anticipatable on the (now unconditional-once-entered) entry edge H→B,
// where the safe-earliest scheme places them — once per loop entry.
func rotateWhileLoops(f *ir.Func) int {
	tree := dom.Compute(f)
	forest := loops.Analyze(f, tree)

	counted := make(map[*ir.Block]bool, len(f.DoLoops))
	for _, d := range f.DoLoops {
		counted[d.Header] = true
	}

	rotated := 0
	for _, l := range forest.Loops {
		h := l.Header
		if counted[h] {
			continue // DO loops are already bottom-tested via trip counts
		}
		ifTerm, ok := h.Term.(*ir.If)
		if !ok {
			continue
		}
		inThen := l.Contains(ifTerm.Then)
		inElse := l.Contains(ifTerm.Else)
		if inThen == inElse {
			continue // both or neither arm in the loop: not a while shape
		}
		// The header must not be reachable from inside without passing
		// its own test — true for natural loops by construction. Build
		// the rotated bottom test.
		t := f.NewBlock("rotated")
		for _, s := range h.Stmts {
			t.Stmts = append(t.Stmts, ir.CloneStmt(s))
		}
		t.Term = &ir.If{
			Cond: ir.CloneExpr(ifTerm.Cond),
			Then: ifTerm.Then,
			Else: ifTerm.Else,
		}
		for _, latch := range append([]*ir.Block{}, l.Latches...) {
			latch.ReplaceSucc(h, t)
		}
		rotated++
	}
	if rotated > 0 {
		f.RecomputePreds()
	}
	return rotated
}
