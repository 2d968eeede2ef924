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

// Analysis holds induction information for one function.
type Analysis struct {
	Fn     *ir.Func
	Forest *loops.Forest
	SSA    *ssa.Info

	hvars   map[*loops.Loop]*ir.Var
	loopOfH map[int]*loops.Loop // h variable ID -> its loop
	memo    map[memoKey]IE
	// loop side-effect summaries
	storesArr  map[*loops.Loop]map[int]bool // array IDs stored in loop
	assignedIn map[*loops.Loop]map[int]bool // var IDs assigned in loop
	hasCall    map[*loops.Loop]bool
}

type memoKey struct {
	val  *ssa.Value
	loop *loops.Loop
}

// Analyze runs induction analysis for every loop of f.
func Analyze(f *ir.Func, forest *loops.Forest, info *ssa.Info) *Analysis {
	a := &Analysis{
		Fn:         f,
		Forest:     forest,
		SSA:        info,
		hvars:      make(map[*loops.Loop]*ir.Var),
		loopOfH:    make(map[int]*loops.Loop),
		memo:       make(map[memoKey]IE),
		storesArr:  make(map[*loops.Loop]map[int]bool),
		assignedIn: make(map[*loops.Loop]map[int]bool),
		hasCall:    make(map[*loops.Loop]bool),
	}
	for _, l := range forest.Loops {
		a.storesArr[l] = make(map[int]bool)
		a.assignedIn[l] = make(map[int]bool)
	}
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
				a.storesArr[l][st.Arr.ID] = true
			case *ir.AssignStmt:
				a.assignedIn[l][st.Dst.ID] = true
			case *ir.CallStmt:
				a.hasCall[l] = true
			}
		}
	}
	for _, l := range forest.Loops {
		p := l.Parent
		if p == nil {
			continue
		}
		if a.hasCall[l] {
			a.hasCall[p] = true
		}
		for id := range a.storesArr[l] {
			a.storesArr[p][id] = true
		}
		for id := range a.assignedIn[l] {
			a.assignedIn[p][id] = true
		}
	}
	return a
}

// LoopStableTerms reports whether the value every atom of terms reads is
// the same at every point of loop l (no assignment to its variables, no
// store to its arrays, no interfering call inside l). The loop's own
// basic variable h is exempt: its in-loop defs are exactly the iteration
// count the terms mean to read. Checks placed inside the loop body (INX
// rewriting) require this; checks hoisted to the preheader only require
// preheader stability, which IE construction already guarantees.
func (a *Analysis) LoopStableTerms(l *loops.Loop, terms []ir.CheckTerm) bool {
	assigned := a.assignedIn[l]
	ok := true
	for _, t := range terms {
		ir.WalkExpr(t.Atom, func(x ir.Expr) {
			switch x := x.(type) {
			case *ir.VarRef:
				if a.hvars[l] == x.Var {
					return
				}
				if assigned[x.Var.ID] || (a.hasCall[l] && x.Var.Global) {
					ok = false
				}
			case *ir.Load:
				if a.storesArr[l][x.Arr.ID] || (a.hasCall[l] && x.Arr.Global) {
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
	if v, ok := a.hvars[l]; ok {
		return v
	}
	v := a.Fn.NewTemp(fmt.Sprintf("h.b%d", l.Header.ID), ir.Int)
	a.hvars[l] = v
	a.loopOfH[v.ID] = l
	return v
}

// ieOfHVar classifies the basic variable of loop l2 relative to loop l:
// linear (slope 1) for l itself, invariant for ancestors of l (an outer
// h does not change while an inner loop runs), unknown otherwise.
func (a *Analysis) ieOfHVar(h *ir.Var, l2, l *loops.Loop) IE {
	if l2 == l {
		return IE{Class: Linear, Form: linform.Form{
			Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: h}}},
		}}
	}
	for anc := l.Parent; anc != nil; anc = anc.Parent {
		if anc == l2 {
			return IE{Class: Invariant, Form: linform.Form{
				Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: h}}},
			}}
		}
	}
	return IE{Class: Unknown}
}

// IsHVar reports whether v is the basic loop variable of l.
func (a *Analysis) IsHVar(l *loops.Loop, v *ir.Var) bool {
	return a.hvars[l] == v
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
	f := linform.Decompose(e)
	acc := linform.Form{Const: f.Const}
	cls := Invariant
	for _, t := range f.Terms {
		var ie IE
		if vr, ok := t.Atom.(*ir.VarRef); ok {
			use := a.SSA.UseOf[vr]
			if use == nil {
				// Expression not part of the function body (e.g. a
				// synthesized expression): fall back to treating the
				// variable as opaque.
				ie = a.opaqueAtomIE(t.Atom, l)
			} else {
				ie = a.ieOfValue(use, l)
			}
		} else {
			ie = a.opaqueAtomIE(t.Atom, l)
		}
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

// IEOfValue computes the induction expression of an SSA value relative
// to loop l (exported for the INX check rewriter).
func (a *Analysis) IEOfValue(v *ssa.Value, l *loops.Loop) IE {
	return a.ieOfValue(v, l)
}

// IEOfOpaqueAtom classifies a non-affine atom relative to loop l
// (exported for the INX check rewriter).
func (a *Analysis) IEOfOpaqueAtom(atom ir.Expr, l *loops.Loop) IE {
	return a.opaqueAtomIE(atom, l)
}

// IEOfFormAt computes the combined induction expression of canonical
// check terms as read at a program point whose variable values are vals
// (typically ssa.Info.OutValues[loop.Header], i.e. loop-body entry). It
// is used to classify whole check families for preheader insertion.
func (a *Analysis) IEOfFormAt(terms []ir.CheckTerm, l *loops.Loop, vals map[int]*ssa.Value) IE {
	acc := linform.Form{}
	cls := Invariant
	for _, t := range terms {
		var ie IE
		if vr, ok := t.Atom.(*ir.VarRef); ok {
			if l2 := a.loopOfH[vr.Var.ID]; l2 != nil {
				ie = a.ieOfHVar(vr.Var, l2, l)
			} else if v := vals[vr.Var.ID]; v != nil {
				ie = a.ieOfValue(v, l)
			} else {
				return IE{Class: Unknown}
			}
		} else {
			ie = a.opaqueAtomIEAt(t.Atom, l, vals)
		}
		if ie.Class == Polynomial || ie.Class == Unknown {
			return IE{Class: ie.Class}
		}
		if ie.Class == Linear {
			cls = Linear
		}
		acc = acc.Add(ie.Form.Scale(t.Coef))
	}
	if cls == Linear {
		if slope, _ := a.SlopeOf(l, acc); slope == 0 {
			cls = Invariant
		}
	}
	return IE{Class: cls, Form: acc}
}

// opaqueAtomIE classifies a non-VarRef atom (load, product, division,
// intrinsic call): it is invariant iff every variable it reads is
// preheader-stable and every array it loads is unmodified by the loop.
func (a *Analysis) opaqueAtomIE(atom ir.Expr, l *loops.Loop) IE {
	return a.opaqueAtomIEAt(atom, l, nil)
}

// opaqueAtomIEAt is opaqueAtomIE with an optional explicit resolution of
// variable reads (for atoms cloned out of the function body, whose nodes
// the SSA overlay does not know).
func (a *Analysis) opaqueAtomIEAt(atom ir.Expr, l *loops.Loop, vals map[int]*ssa.Value) IE {
	ok := true
	ir.WalkExpr(atom, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.VarRef:
			use := a.SSA.UseOf[x]
			if use == nil && vals != nil {
				use = vals[x.Var.ID]
			}
			if use == nil || !a.stableAtPreheader(use, l) {
				ok = false
			}
		case *ir.Load:
			if a.storesArr[l][x.Arr.ID] || (a.hasCall[l] && x.Arr.Global) {
				ok = false
			}
		}
	})
	if a.hasCall[l] {
		// A call may modify any global read inside the atom.
		ir.WalkExpr(atom, func(x ir.Expr) {
			if vr, ok2 := x.(*ir.VarRef); ok2 && vr.Var.Global {
				ok = false
			}
		})
	}
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

// ieOfValue computes the IE of SSA value v relative to loop l, memoized.
func (a *Analysis) ieOfValue(v *ssa.Value, l *loops.Loop) IE {
	key := memoKey{v, l}
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

	case ssa.CallDef:
		return IE{Class: Unknown}

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
			ie := a.ieOfValue(arg, l)
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
	// symbolic atom μ (a fresh marker variable).
	muMarker := &ir.Var{Name: "µ", Type: ir.Int, ID: -1 - mu.ID}
	key := memoKey{mu, l}
	a.memo[key] = IE{Class: Linear, Form: linform.Form{
		Terms: []ir.CheckTerm{{Coef: 1, Atom: &ir.VarRef{Var: muMarker}}},
	}}

	step := int64(0)
	polynomial := false
	for i, tail := range tails {
		// Clear tail memos so they re-resolve against the seeded mu.
		delete(a.memo, memoKey{tail, l})
		ie := a.ieOfValue(tail, l)
		delete(a.memo, memoKey{tail, l})
		if ie.Class == Unknown {
			a.memo[key] = IE{Class: Unknown}
			return IE{Class: Unknown}
		}
		if ie.Class == Polynomial {
			polynomial = true
			continue
		}
		if ie.Form.CoefOfVar(muMarker) != 1 {
			a.memo[key] = IE{Class: Unknown}
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
			a.memo[key] = IE{Class: Unknown}
			return IE{Class: Unknown}
		}
		step = rest.Const
	}
	if polynomial {
		a.memo[key] = IE{Class: Polynomial}
		return IE{Class: Polynomial}
	}

	initIE := a.ieOfValue(init, l)
	if initIE.Class != Invariant {
		a.memo[key] = IE{Class: Unknown}
		return IE{Class: Unknown}
	}
	if step == 0 {
		res := IE{Class: Invariant, Form: initIE.Form}
		a.memo[key] = res
		return res
	}
	h := linform.Form{Terms: []ir.CheckTerm{{Coef: step, Atom: &ir.VarRef{Var: a.HVar(l)}}}}
	res := IE{Class: Linear, Form: initIE.Form.Add(h)}
	a.memo[key] = res
	return res
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
