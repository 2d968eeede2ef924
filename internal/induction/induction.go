// Package induction implements SSA-based induction variable analysis in
// the style the paper inherits from Gerlek, Stoltz & Wolfe (§2.3,
// Figure 2): every loop is assigned a basic loop variable h taking values
// 0,1,2,... per iteration, and every value is associated with an
// induction expression (IE) classified as invariant, linear, polynomial,
// or unknown in h.
//
// IEs are linear forms (internal/linform) whose atoms are either the
// loop's virtual variable h or expressions that are invariant in the loop
// and materializable at the loop preheader. This representation is what
// the preheader insertion schemes (LI, LLS) and INX-check construction
// consume directly.
package induction

import (
	"fmt"
	"strconv"

	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/loops"
	"nascent/internal/ssa"
)

// Class classifies an induction expression.
type Class int

// IE classes, in increasing "complexity" order.
const (
	// Invariant: the value does not change while the loop runs, and the
	// IE form is materializable at the loop preheader.
	Invariant Class = iota
	// Linear: value = Base + Slope·h with constant Slope ≠ 0.
	Linear
	// Polynomial: a recognized induction sequence that is not linear with
	// a constant slope (e.g. h·(h+1)/2, or linear with a symbolic slope).
	// The optimizer treats it as Unknown; it exists for reporting parity
	// with the paper's classification (Figure 2).
	Polynomial
	// Unknown: not a recognized sequence.
	Unknown
)

func (c Class) String() string {
	switch c {
	case Invariant:
		return "invariant"
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	}
	return "unknown"
}

// IE is an induction expression relative to one loop.
type IE struct {
	Class Class
	// Form is valid for Invariant (no h atom) and Linear (h atom with
	// constant coefficient = the slope). Atoms other than h are
	// preheader-materializable expressions.
	Form linform.Form
}

func (e IE) String() string {
	return fmt.Sprintf("%s[%s]", e.Class, e.Form)
}

// Analysis holds induction information for one function, by
// loops.Loop.Index and ssa.Value.ID.
type Analysis struct {
	Fn     *ir.Func
	Forest *loops.Forest
	SSA    *ssa.Info

	hvars []*ir.Var // a loop's basic variable h, once made
	// memo holds each IE computed, by loop index and value ID. Few values
	// are asked about per loop, so this map is smaller than a row of
	// IEs, or of indexes into them, per loop.
	memo map[memoKey]IE
	// Loop side-effect summaries: hasCall, and a row of words bits per
	// loop in effects, set at the ID of each variable assigned in the
	// loop and at arrayBit + the ID of each array stored.
	hasCall         []bool
	effects         []uint64
	words, arrayBit int
}

// Analyze runs induction analysis for every loop of f.
func Analyze(f *ir.Func, forest *loops.Forest, info *ssa.Info) *Analysis {
	n := len(forest.Loops)
	a := &Analysis{Fn: f, Forest: forest, SSA: info, hvars: make([]*ir.Var, n),
		memo: map[memoKey]IE{}, hasCall: make([]bool, n), arrayBit: f.Program.NumVars}
	a.words = (f.Program.NumVars + f.Program.NumArrays + 63) / 64
	a.effects = make([]uint64, n*a.words)
	// Each block's effects go to its innermost loop; each loop then
	// passes its effects to its parent (children come first in Loops),
	// so effects in inner loops affect outer loops too.
	for _, b := range f.Blocks {
		l := forest.LoopOf(b)
		if l == nil {
			continue
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *ir.StoreStmt:
				a.setEffect(l.Index, a.arrayBit+st.Arr.ID)
			case *ir.AssignStmt:
				a.setEffect(l.Index, st.Dst.ID)
			case *ir.CallStmt:
				a.hasCall[l.Index] = true
			}
		}
	}
	for _, l := range forest.Loops {
		if p := l.Parent; p != nil {
			a.hasCall[p.Index] = a.hasCall[p.Index] || a.hasCall[l.Index]
			for w := range a.words {
				a.effects[p.Index*a.words+w] |= a.effects[l.Index*a.words+w]
			}
		}
	}
	return a
}

func (a *Analysis) setEffect(loop, bit int) { a.effects[loop*a.words+bit/64] |= 1 << (bit % 64) }

// assigns reports whether loop l assigns v. A variable made after
// Analyze (an h variable) is not in the summary.
func (a *Analysis) assigns(l *loops.Loop, v *ir.Var) bool {
	return v.ID < a.arrayBit && a.effect(l, v.ID)
}

// stores reports whether loop l stores to arr.
func (a *Analysis) stores(l *loops.Loop, arr *ir.Array) bool { return a.effect(l, a.arrayBit+arr.ID) }

func (a *Analysis) effect(l *loops.Loop, bit int) bool {
	return bit < a.words*64 && a.effects[l.Index*a.words+bit/64]&(1<<(bit%64)) != 0
}

// LoopStableTerms reports whether the value every atom of terms reads is
// the same at every point of loop l (no assignment to its variables, no
// store to its arrays, no interfering call inside l). The loop's own
// basic variable h is exempt: its in-loop defs are exactly the iteration
// count the terms mean to read. Checks placed inside the loop body (INX
// rewriting) require this; checks hoisted to the preheader only require
// preheader stability, which IE construction already guarantees.
func (a *Analysis) LoopStableTerms(l *loops.Loop, terms []ir.CheckTerm) bool {
	ok := true
	for _, t := range terms {
		ir.WalkExpr(t.Atom, func(x ir.Expr) {
			switch x := x.(type) {
			case *ir.VarRef:
				if a.hvars[l.Index] == x.Var {
					return
				}
				if a.assigns(l, x.Var) || (a.hasCall[l.Index] && x.Var.Global) {
					ok = false
				}
			case *ir.Load:
				if a.stores(l, x.Arr) || (a.hasCall[l.Index] && x.Arr.Global) {
					ok = false
				}
			}
		})
	}
	return ok
}

// HVar returns the virtual basic loop variable h of l, creating it on
// first use. The variable is registered with the function so it can be
// materialized (h=0 in the preheader, h=h+1 at each latch) when INX
// checks are placed in the loop body.
func (a *Analysis) HVar(l *loops.Loop) *ir.Var {
	if v := a.hvars[l.Index]; v != nil {
		return v
	}
	v := a.Fn.NewTemp("h.b"+strconv.Itoa(l.Header.ID), ir.Int)
	a.hvars[l.Index] = v
	return v
}

// ieOfHVar classifies the basic variable of loop l2 relative to loop l:
// linear (slope 1) for l itself, invariant for ancestors of l (an outer
// h does not change while an inner loop runs), unknown otherwise.
func (a *Analysis) ieOfHVar(h *ir.Var, l2, l *loops.Loop) IE {
	cls := Linear
	if l2 != l {
		cls = Invariant
		anc := l.Parent
		for anc != nil && anc != l2 {
			anc = anc.Parent
		}
		if anc == nil {
			return IE{Class: Unknown}
		}
	}
	return IE{Class: cls, Form: linform.Form{Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: h}}}}}
}

// loopOfH returns the loop whose basic variable is v, or nil.
func (a *Analysis) loopOfH(v *ir.Var) *loops.Loop {
	for i, h := range a.hvars {
		if h != nil && h.ID == v.ID {
			return a.Forest.Loops[i]
		}
	}
	return nil
}

// SlopeOf splits an IE form into (slope of h, rest without h).
func (a *Analysis) SlopeOf(l *loops.Loop, f linform.Form) (int64, linform.Form) {
	h := a.HVar(l)
	return f.CoefOfVar(h), f.WithoutVar(h)
}

// ---------------------------------------------------------------------------
// IE computation

// IEOfExpr computes the induction expression of an in-body expression e
// relative to loop l. The VarRef occurrences of e must belong to the
// function body (the SSA overlay must know them).
func (a *Analysis) IEOfExpr(e ir.Expr, l *loops.Loop) IE {
	return a.combine(linform.Decompose(e), l, func(atom ir.Expr) IE {
		if vr, ok := atom.(*ir.VarRef); ok && a.SSA.UseOf[vr] != nil {
			return a.IEOfValue(a.SSA.UseOf[vr], l)
		}
		// A variable read the overlay does not know (in a synthesized
		// expression) is treated as opaque.
		return a.IEOfOpaqueAtom(atom, l, nil)
	})
}

// combine sums the IEs of f's terms, each atom classified by ieOf.
func (a *Analysis) combine(f linform.Form, l *loops.Loop, ieOf func(atom ir.Expr) IE) IE {
	acc := linform.Form{Const: f.Const}
	cls := Invariant
	for _, t := range f.Terms {
		ie := ieOf(t.Atom)
		if ie.Class == Polynomial || ie.Class == Unknown {
			return IE{Class: ie.Class}
		}
		if ie.Class == Linear {
			cls = Linear
		}
		acc = acc.Add(ie.Form.Scale(t.Coef))
	}
	// Adding linear parts may cancel the slope.
	if cls == Linear {
		if slope, _ := a.SlopeOf(l, acc); slope == 0 {
			cls = Invariant
		}
	}
	return IE{Class: cls, Form: acc}
}

// IEOfFormAt computes the combined induction expression of canonical
// check terms as read at the end of block at (typically the loop header,
// i.e. loop-body entry; see ssa.Info.ValueAtEnd). It is used to classify
// whole check families for preheader insertion.
func (a *Analysis) IEOfFormAt(terms []ir.CheckTerm, l *loops.Loop, at *ir.Block) IE {
	return a.combine(linform.Form{Terms: terms}, l, func(atom ir.Expr) IE {
		vr, ok := atom.(*ir.VarRef)
		if !ok {
			return a.IEOfOpaqueAtom(atom, l, at)
		}
		if l2 := a.loopOfH(vr.Var); l2 != nil {
			return a.ieOfHVar(vr.Var, l2, l)
		}
		if v := a.SSA.ValueAtEnd(at, vr.Var); v != nil {
			return a.IEOfValue(v, l)
		}
		return IE{Class: Unknown}
	})
}

// IEOfOpaqueAtom classifies a non-VarRef atom (load, product, division,
// intrinsic call) relative to loop l: it is invariant iff every variable
// it reads is preheader-stable and every array it loads is unmodified by
// the loop. When at is not nil, a variable read the SSA overlay does not
// know (in an atom cloned out of the function body) reads its value at
// the end of block at.
func (a *Analysis) IEOfOpaqueAtom(atom ir.Expr, l *loops.Loop, at *ir.Block) IE {
	ok := true
	ir.WalkExpr(atom, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.VarRef:
			use := a.SSA.UseOf[x]
			if use == nil && at != nil {
				use = a.SSA.ValueAtEnd(at, x.Var)
			}
			// A call in the loop may modify any global the atom reads.
			if use == nil || !a.stableAtPreheader(use, l) || (a.hasCall[l.Index] && x.Var.Global) {
				ok = false
			}
		case *ir.Load:
			if a.stores(l, x.Arr) || (a.hasCall[l.Index] && x.Arr.Global) {
				ok = false
			}
		}
	})
	if !ok {
		return IE{Class: Unknown}
	}
	return IE{Class: Invariant, Form: linform.Form{
		Terms: []ir.CheckTerm{{Coef: 1, Atom: ir.CloneExpr(atom)}},
	}}
}

// stableAtPreheader reports whether SSA value v is both defined outside l
// and equal to the value its variable holds at the end of l's preheader,
// so that naming the variable at the preheader (or anywhere in the loop)
// reads exactly v.
func (a *Analysis) stableAtPreheader(v *ssa.Value, l *loops.Loop) bool {
	if l.Contains(v.Block) {
		return false
	}
	return a.SSA.ValueAtEnd(l.Preheader, v.Var) == v
}

// IEOfValue computes the induction expression of SSA value v relative to
// loop l, memoized.
func (a *Analysis) IEOfValue(v *ssa.Value, l *loops.Loop) IE {
	key := memoKey{int32(l.Index), int32(v.ID)}
	if ie, ok := a.memo[key]; ok {
		return ie
	}
	// Mark in-progress: hitting this key again means an unrecognized
	// cycle (the recognized mu-cycle is solved explicitly below).
	a.memo[key] = IE{Class: Unknown}
	ie := a.computeIE(v, l)
	a.memo[key] = ie
	return ie
}

type memoKey struct{ loop, value int32 }

func (a *Analysis) computeIE(v *ssa.Value, l *loops.Loop) IE {
	// Defined outside the loop: invariant if preheader-stable.
	if !l.Contains(v.Block) {
		// Fold through the defining expression when possible: constants
		// (m = 5 in Figure 2) and affine chains over values that are
		// themselves still current at the preheader (j = i + 1 in a DO
		// lowering). This lets induction expressions bottom out at
		// variables that are stable across the whole loop, not just the
		// preheader snapshot of the defined variable.
		if v.Kind == ssa.AssignDef {
			src := v.Stmt.(*ir.AssignStmt).Src
			if c, ok := src.(*ir.ConstInt); ok {
				return IE{Class: Invariant, Form: linform.Form{Const: c.V}}
			}
			if src.Type() == ir.Int {
				if ie := a.IEOfExpr(src, l); ie.Class == Invariant {
					return ie
				}
			}
		}
		if a.stableAtPreheader(v, l) {
			return IE{Class: Invariant, Form: linform.Form{
				Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: v.Var}}},
			}}
		}
		return IE{Class: Unknown}
	}

	switch v.Kind {
	case ssa.AssignDef:
		return a.IEOfExpr(v.Stmt.(*ir.AssignStmt).Src, l)

	case ssa.PhiDef:
		if v.Block == l.Header {
			return a.solveMu(v, l)
		}
		// Join inside the loop (or an inner loop header): invariant only
		// if all operands agree.
		var first IE
		for i, arg := range v.Args {
			if arg == nil {
				return IE{Class: Unknown}
			}
			ie := a.IEOfValue(arg, l)
			if ie.Class == Polynomial || ie.Class == Unknown {
				return IE{Class: ie.Class}
			}
			if i == 0 {
				first = ie
			} else if ie.Class != first.Class || ie.Form.Key() != first.Form.Key() || ie.Form.Const != first.Form.Const {
				return IE{Class: Unknown}
			}
		}
		return first
	}
	return IE{Class: Unknown}
}

// solveMu recognizes the basic induction cycle around a loop-header phi:
//
//	mu = phi(init, tail)   with   tail = mu + step
//
// where init flows in from the preheader and step is a compile-time
// constant per back edge. The result is Linear: IE(init) + step·h.
// A step that is invariant-but-symbolic or itself linear yields
// Polynomial (recognized sequence, unusable for substitution).
func (a *Analysis) solveMu(mu *ssa.Value, l *loops.Loop) IE {
	var init *ssa.Value
	var tails []*ssa.Value
	for i, arg := range mu.Args {
		if arg == nil {
			return IE{Class: Unknown}
		}
		if l.Contains(mu.Block.Preds[i]) {
			tails = append(tails, arg)
		} else {
			if init != nil && init != arg {
				return IE{Class: Unknown}
			}
			init = arg
		}
	}
	if init == nil || len(tails) == 0 {
		return IE{Class: Unknown}
	}

	// Seed the memo so references to mu inside the cycle resolve to the
	// symbolic atom μ (a fresh marker variable). IEOfValue memoizes the
	// result in its place.
	muMarker := &ir.Var{Name: "µ", Type: ir.Int, ID: -1 - mu.ID}
	a.memo[memoKey{int32(l.Index), int32(mu.ID)}] = IE{Class: Linear, Form: linform.Form{
		Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: muMarker}}},
	}}

	step := int64(0)
	polynomial := false
	for i, tail := range tails {
		// Clear tail memos so they re-resolve against the seeded mu.
		delete(a.memo, memoKey{int32(l.Index), int32(tail.ID)})
		ie := a.IEOfValue(tail, l)
		delete(a.memo, memoKey{int32(l.Index), int32(tail.ID)})
		if ie.Class == Unknown {
			return IE{Class: Unknown}
		}
		if ie.Class == Polynomial {
			polynomial = true
			continue
		}
		if ie.Form.CoefOfVar(muMarker) != 1 {
			return IE{Class: Unknown}
		}
		rest := ie.Form.WithoutVar(muMarker)
		if !rest.IsConst() {
			// Symbolic or h-dependent step: recognized but not linear.
			polynomial = true
			continue
		}
		if i > 0 && rest.Const != step {
			// Different steps on different back edges.
			return IE{Class: Unknown}
		}
		step = rest.Const
	}
	if polynomial {
		return IE{Class: Polynomial}
	}

	initIE := a.IEOfValue(init, l)
	if initIE.Class != Invariant {
		return IE{Class: Unknown}
	}
	if step == 0 {
		return IE{Class: Invariant, Form: initIE.Form}
	}
	h := linform.Form{Terms: []ir.CheckTerm{{Coef: step, Atom: &ir.VarRef{Var: a.HVar(l)}}}}
	return IE{Class: Linear, Form: initIE.Form.Add(h)}
}

// ---------------------------------------------------------------------------
// Trip counts and guards

// TripCount returns the symbolic trip count max(0, T) of a counted loop
// as the form T, with ok=false when the loop is not a DO loop or the trip
// count is not expressible (non-unit step with symbolic bounds).
// The form's atoms are valid at the end of the loop preheader.
func (a *Analysis) TripCount(l *loops.Loop) (linform.Form, bool) {
	d := l.Do
	if d == nil {
		return linform.Form{}, false
	}
	lo := linform.Decompose(d.Lo)
	hi := linform.Decompose(d.Limit)
	switch {
	case d.Step == 1:
		return hi.Sub(lo).Add(linform.Form{Const: 1}), true
	case d.Step == -1:
		return lo.Sub(hi).Add(linform.Form{Const: 1}), true
	case lo.IsConst() && hi.IsConst():
		var t int64
		if d.Step > 0 {
			t = (hi.Const - lo.Const + d.Step) / d.Step
		} else {
			t = (lo.Const - hi.Const - d.Step) / (-d.Step)
		}
		if t < 0 {
			t = 0
		}
		return linform.Form{Const: t}, true
	}
	return linform.Form{}, false
}

// GuardExpr returns the loop-entry guard "trip count > 0" as an IR
// expression over preheader-visible values, or (nil, true) when the loop
// provably executes at least once, or (nil, false) for non-DO loops.
func (a *Analysis) GuardExpr(l *loops.Loop) (ir.Expr, bool) {
	d := l.Do
	if d == nil {
		return nil, false
	}
	lo := linform.Decompose(d.Lo)
	hi := linform.Decompose(d.Limit)
	if lo.IsConst() && hi.IsConst() {
		if (d.Step > 0 && lo.Const <= hi.Const) || (d.Step < 0 && lo.Const >= hi.Const) {
			return nil, true // always executes
		}
		// Zero-trip loop: hoisting would be useless; signal "no guard
		// available" so callers skip it.
		return nil, false
	}
	op := ir.OpLe
	if d.Step < 0 {
		op = ir.OpGe
	}
	return &ir.Bin{Op: op, L: ir.CloneExpr(d.Lo), R: ir.CloneExpr(d.Limit), Typ: ir.Bool}, true
}

// LastH returns the form of the final h value (trip−1), valid at the
// preheader, with ok=false when the trip count is unavailable.
func (a *Analysis) LastH(l *loops.Loop) (linform.Form, bool) {
	t, ok := a.TripCount(l)
	if !ok {
		return linform.Form{}, false
	}
	return t.Add(linform.Form{Const: -1}), true
}
