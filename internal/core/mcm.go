package core

import (
	"strconv"

	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/loops"
	"nascent/internal/rangecheck"
)

// The paper's related-work section (§5) describes Markstein, Cocke &
// Markstein's 1982 algorithm as "a restricted form of preheader check
// insertion: the only checks that it considers for preheader insertion
// are the checks present in articulation nodes in the loop body (because
// these nodes post-dominate the loop entry nodes and dominate the loop
// exit nodes) and which have simple range expressions", and suggests
// implementing it for comparison with loop-limit substitution. This file
// is that comparison implementation.
//
// mcmHoist hoists, for each counted loop processed innermost first:
//   - only checks that appear in articulation blocks of the loop body
//     (blocks that execute on every iteration: dominated by the body
//     entry and dominating every latch);
//   - only checks with simple range expressions: a single term with
//     coefficient ±1 whose atom is a scalar variable that is either
//     invariant in the loop or the loop's own DO variable.
//
// Unlike LLS it performs no general induction analysis and no
// substitution of arbitrary linear forms.
func (c *funcCtx) mcmHoist() {
	c.checks = newCheckIndex(c)
	for _, l := range c.forest.Loops { // innermost first
		c.mcmHoistLoop(l)
		c.rehoistCondChecks(l)
	}
	if workProbe != nil {
		workProbe(c.fn.Name, c.work)
	}
}

func (c *funcCtx) mcmHoistLoop(l *loops.Loop) {
	if !c.opts.Mode.CrossFamily() {
		return // see hoistLoop: insertion pays only through the implication
	}
	if l.Do == nil {
		return
	}
	guard, gok := c.ind.GuardExpr(l)
	if !gok {
		return
	}
	h := c.ind.HVar(l)
	inserted := make(map[hoistKey]bool)

	// Like the LLS cover (see eliminateCovered): a hoisted check covers
	// the value at loop-body entry, so an occurrence downstream of an
	// in-body definition of its variable must stay.
	unkilledMemo := make(map[*rangecheck.Family]*unkilled)
	unkilledAt := func(fam *rangecheck.Family, b *ir.Block) bool {
		u, ok := unkilledMemo[fam]
		if !ok {
			u = c.unkilledAtEntry(l, fam)
			unkilledMemo[fam] = u
		}
		return u.at(b)
	}

	blocks := c.checks.in(l)
	c.work += len(blocks)
	pre := l.Preheader
	inserts := 0
	for _, b := range blocks {
		if !c.articulation(l, b) {
			continue
		}
		orig := append([]ir.Stmt{}, b.Stmts...)
		kept := b.Stmts[:0]
		for i, s := range orig {
			chk, ok := s.(*ir.CheckStmt)
			if !ok || chk.Guard != nil || !mcmSimple(chk) {
				kept = append(kept, s)
				continue
			}
			fam := c.reg.FamilyOf(chk)
			killedHere := false
			for _, prev := range orig[:i] {
				if kills(prev, fam) {
					killedHere = true
					break
				}
			}
			if !unkilledAt(fam, b) || killedHere {
				kept = append(kept, s)
				continue
			}
			ie := c.ind.IEOfFormAt(chk.Terms, l, l.Header)
			var hoisted linform.Form
			switch ie.Class {
			case induction.Invariant:
				hoisted = ie.Form
			case induction.Linear:
				// Simple expressions over the DO variable only: the same
				// limit substitution MCM performs on induction variables.
				if slope := ie.Form.CoefOfVar(h); slope > 0 {
					lastH, ok := c.ind.LastH(l)
					if !ok {
						kept = append(kept, s)
						continue
					}
					hoisted = ie.Form.SubstVar(h, lastH)
				} else {
					hoisted = ie.Form.SubstVar(h, linform.Form{})
				}
			default:
				kept = append(kept, s)
				continue
			}
			terms := ir.NormalizeTerms(cloneTerms(hoisted.Terms))
			konst := chk.Const - hoisted.Const
			key := hoistKey{c.reg.TermsID(terms), konst}
			if !inserted[key] {
				inserted[key] = true
				var g ir.Expr
				if guard != nil {
					g = ir.CloneExpr(guard)
				}
				inserts++
				pre.InsertStmts(len(pre.Stmts), &ir.CheckStmt{
					Terms: terms,
					Const: konst,
					Guard: g,
					Note:  "MCM hoisted from loop b" + strconv.Itoa(l.Header.ID),
				})
				c.res.Inserted++
			}
			c.res.EliminatedCover++
			// The hoisted check covers this occurrence directly.
			continue
		}
		if len(kept) < len(orig) {
			b.Stmts = kept
			c.checks.update(b)
		}
	}
	if inserts > 0 {
		c.checks.update(pre)
	}
}

// articulation reports whether b executes on every iteration of l: it is
// dominated by the loop-body entry and postdominates it (the paper's
// description of Markstein et al.: articulation nodes "post-dominate the
// loop entry nodes and dominate the loop exit nodes").
func (c *funcCtx) articulation(l *loops.Loop, b *ir.Block) bool {
	if b != l.Do.BodyEntry && !c.dom.Dominates(l.Do.BodyEntry, b) {
		return false
	}
	return c.pdom.PostDominates(b, l.Do.BodyEntry)
}

// mcmSimple reports whether the check's range expression is "simple" in
// the Markstein sense: one scalar variable with coefficient ±1.
func mcmSimple(chk *ir.CheckStmt) bool {
	if len(chk.Terms) != 1 {
		return len(chk.Terms) == 0
	}
	t := chk.Terms[0]
	if t.Coef != 1 && t.Coef != -1 {
		return false
	}
	_, isVar := t.Atom.(*ir.VarRef)
	return isVar
}
