package ssa_test

import (
	"maps"
	"testing"

	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/ssa"
	"nascent/internal/testutil"
)

// TestSSANumberingDeterministic: two builds of the overlay of one
// function number every value alike.
func TestSSANumberingDeterministic(t *testing.T) {
	testutil.ForEachFunc(t, func(name string, f *ir.Func) {
		tree := dom.Compute(f)
		first, second := ssa.Build(f, tree), ssa.Build(f, tree)
		if len(first.Values) != len(second.Values) {
			t.Fatalf("%s: %d values, then %d", name, len(first.Values), len(second.Values))
		}
		for i, v := range first.Values {
			w := second.Values[i]
			if v.ID != i || w.ID != i || v.Var != w.Var || v.Kind != w.Kind || v.Block != w.Block {
				t.Fatalf("%s: value %d is %v in b%d, then %v in b%d", name, i, v, v.Block.ID, w, w.Block.ID)
			}
		}
	})
}

// TestSSAUseIsReachingDefinition checks the overlay against a brute-force
// reaching-definitions walk: the definitions that reach a use along some
// path from entry (an assignment, a call for a global, or the implicit
// definition at entry) are exactly those the value UseOf names stands
// for once its phis are followed to their operands. Likewise each phi
// operand stands for the definitions reaching the end of its edge's
// predecessor.
func TestSSAUseIsReachingDefinition(t *testing.T) {
	testutil.ForEachFunc(t, func(name string, f *ir.Func) {
		tree := dom.Compute(f)
		info := ssa.Build(f, tree)
		for _, phi := range info.Values {
			if phi.Kind != ssa.PhiDef {
				continue
			}
			for i, p := range phi.Block.Preds {
				arg := phi.Args[i]
				if !tree.Reachable(p) {
					if arg != nil {
						t.Fatalf("%s: %v reads %v from unreachable b%d", name, phi, arg, p.ID)
					}
					continue
				}
				if got, want := denotes(arg), reaching(tree, p, len(p.Stmts), phi.Var); arg == nil || !maps.Equal(got, want) {
					t.Fatalf("%s: %v reads %v from b%d, which stands for %d definitions; %d reach it",
						name, phi, arg, p.ID, len(got), len(want))
				}
			}
		}
		for _, b := range f.Blocks {
			check := func(i int, e ir.Expr) {
				ir.WalkExpr(e, func(x ir.Expr) {
					r, ok := x.(*ir.VarRef)
					if !ok {
						return
					}
					use := info.UseOf[r]
					if !tree.Reachable(b) {
						if use != nil {
							t.Fatalf("%s: use of %s in unreachable b%d reads %v", name, r.Var, b.ID, use)
						}
						return
					}
					if use == nil || use.Var != r.Var {
						t.Fatalf("%s: use of %s in b%d reads %v", name, r.Var, b.ID, use)
					}
					if got, want := denotes(use), reaching(tree, b, i, r.Var); !maps.Equal(got, want) {
						t.Fatalf("%s: use of %s in b%d reads %v, which stands for %d definitions; %d reach it",
							name, r.Var, b.ID, use, len(got), len(want))
					}
				})
			}
			for i, st := range b.Stmts {
				ir.ForEachStmtExpr(st, func(e ir.Expr) { check(i, e) })
			}
			if cond, ok := b.Term.(*ir.If); ok {
				check(len(b.Stmts), cond.Cond)
			}
		}
	})
}

// defs is a set of definitions: statements, and nil for the one at entry.
type defs map[ir.Stmt]bool

// denotes returns the definitions val stands for: its own, or for a phi
// those of its operands.
func denotes(val *ssa.Value) defs {
	out := defs{}
	seen := map[*ssa.Value]bool{}
	var visit func(v *ssa.Value)
	visit = func(v *ssa.Value) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		if v.Kind == ssa.PhiDef {
			for _, a := range v.Args {
				visit(a)
			}
			return
		}
		out[v.Stmt] = true // nil for the entry definition
	}
	visit(val)
	return out
}

// reaching walks backward from statement i of block b (i = len(b.Stmts)
// for the terminator) over the reachable blocks, stopping each path at
// the first definition of v.
func reaching(tree *dom.Tree, b *ir.Block, i int, v *ir.Var) defs {
	out := defs{}
	seen := map[*ir.Block]bool{}
	type point struct {
		b *ir.Block
		i int
	}
	work := []point{{b, i}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		found := false
		for j := p.i - 1; j >= 0 && !found; j-- {
			switch st := p.b.Stmts[j].(type) {
			case *ir.AssignStmt:
				found = st.Dst == v
			case *ir.CallStmt:
				found = v.Global
			}
			if found {
				out[p.b.Stmts[j]] = true
			}
		}
		if found {
			continue
		}
		if p.b == tree.Order()[0] {
			out[nil] = true
		}
		for _, pred := range p.b.Preds {
			if tree.Reachable(pred) && !seen[pred] {
				seen[pred] = true
				work = append(work, point{pred, len(pred.Stmts)})
			}
		}
	}
	return out
}
