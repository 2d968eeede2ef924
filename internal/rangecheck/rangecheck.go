// Package rangecheck defines check families and the Check Implication
// Graph (CIG) of paper §3.1.
//
// A family is the set of range checks sharing a canonical
// range-expression; within a family, a smaller range-constant is a
// stronger check. The CIG has one node per family and weighted edges:
// an edge (F → G, w) means Check(F ≤ k) implies Check(G ≤ k + w) for
// every k (paper Figure 4). Implications within a family need no edges —
// they follow from the constant ordering.
//
// The implication Mode reproduces the paper's Table 3 ablation: with
// ImplyNone, every (range-expression, constant) pair is its own family,
// so no check implies any other; with ImplyCross, within-family
// implications are disabled but cross-family edges (notably the
// preheader → loop-body implications of §3.3) are kept.
package rangecheck

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"nascent/internal/ir"
)

// Mode selects which check implications the optimizer may exploit.
type Mode int

// Implication modes (Table 3).
const (
	// ImplyFull uses all implications, within and across families.
	ImplyFull Mode = iota
	// ImplyNone uses no implications between distinct checks.
	ImplyNone
	// ImplyCross disables within-family implications but keeps
	// cross-family ones (paper's NI′/SE′ use ImplyNone; LLS′ uses
	// ImplyCross).
	ImplyCross
)

func (m Mode) String() string {
	switch m {
	case ImplyFull:
		return "full"
	case ImplyNone:
		return "none"
	case ImplyCross:
		return "cross-family-only"
	}
	return "?"
}

// WithinFamily reports whether within-family implications are usable.
func (m Mode) WithinFamily() bool { return m == ImplyFull }

// CrossFamily reports whether cross-family implications are usable.
func (m Mode) CrossFamily() bool { return m == ImplyFull || m == ImplyCross }

// None is the lattice value "no check available/anticipatable".
const None int64 = math.MaxInt64

// AllChecks is the lattice top "every check available" used to initialize
// optimistic dataflow iteration.
const AllChecks int64 = math.MinInt64

// Family is one CIG node.
type Family struct {
	// Index is the family's dense id within its Registry; dataflow
	// states hold one lattice value per id.
	Index int
	// Terms is a representative copy of the canonical range-expression.
	Terms []ir.CheckTerm
	// ExactConst is the single constant of the family under ImplyNone /
	// ImplyCross keying (where the constant is part of the identity);
	// unused (0) under ImplyFull.
	ExactConst int64
	// Kill sets, as sorted IDs: definitions of these variables / stores
	// to these arrays invalidate facts about the family (paper §3.2).
	KillVars   []int
	KillArrays []int
	// KilledByCall: the range-expression reads a global scalar or loads a
	// global array, either of which a subroutine call may modify.
	KilledByCall bool

	terms TermsID
}

// String renders the family as its range-expression.
func (f *Family) String() string { return ir.TermsString(f.Terms) }

// TermsID is the family's range-expression identity: families that
// differ only in their exact constant share it.
func (f *Family) TermsID() TermsID { return f.terms }

// KillsVar reports whether a definition of variable id kills f.
func (f *Family) KillsVar(id int) bool { return slices.Contains(f.KillVars, id) }

// KillsArray reports whether a store to array id kills f.
func (f *Family) KillsArray(id int) bool { return slices.Contains(f.KillArrays, id) }

// TermsID names a hash-consed canonical term list: two range-expressions
// get the same TermsID exactly when they have the same (coefficient,
// atom) pairs. 0 is the empty list (a compile-time check).
type TermsID int32

// atomID names a hash-consed atom (scalar variable or opaque
// subexpression); ids share one space with term lists.
type atomID = int32

// node is one hash-consing table entry. Atoms are keyed structurally,
// mirroring ir.Key: types are ignored, operators, variable and array IDs
// and constants are not. Lists (index tuples, call arguments, term
// lists) are cons cells: a = the rest of the list, b = the element.
type node struct {
	kind uint8
	op   int32
	a, b int32
	v    int64
}

const (
	nodeNil uint8 = iota
	nodeInt
	nodeFloat
	nodeVar
	nodeLoad
	nodeBin
	nodeUn
	nodeCall
	nodeArg  // cons cell of an expression list
	nodeTerm // cons cell of a term list: v = coefficient
)

// famKey identifies a family: its term list, plus the constant when
// within-family implications are off.
type famKey struct {
	terms TermsID
	konst int64
}

// pair is one (atom, coefficient) pair of a canonical term list.
type pair struct {
	atom atomID
	coef int64
}

// Registry interns the families of one function. It hash-conses every
// range-expression to a dense TermsID and every (TermsID, constant) to a
// family, so lookups allocate nothing once a family exists; the
// optimizer creates one Registry per function and shares it across all
// of that function's analyses.
type Registry struct {
	Mode     Mode
	Families []*Family

	nodes   map[node]int32
	byKey   map[famKey]*Family
	byTerms map[TermsID][]*Family
	byVar   [][]*Family // var ID -> families whose terms read it
	byArr   [][]*Family // array ID -> families whose terms load it
	byCall  []*Family   // families a call kills
	scratch []pair
}

// NewRegistry creates an empty registry for the given mode.
func NewRegistry(mode Mode) *Registry {
	return &Registry{
		Mode:    mode,
		nodes:   make(map[node]int32),
		byKey:   make(map[famKey]*Family),
		byTerms: make(map[TermsID][]*Family),
	}
}

func (r *Registry) cons(n node) int32 {
	if id, ok := r.nodes[n]; ok {
		return id
	}
	id := int32(len(r.nodes) + 1) // 0 is the empty list
	r.nodes[n] = id
	return id
}

// atom hash-conses an expression.
func (r *Registry) atom(e ir.Expr) atomID {
	switch e := e.(type) {
	case *ir.ConstInt:
		return r.cons(node{kind: nodeInt, v: e.V})
	case *ir.ConstFloat:
		bits := math.Float64bits(e.V)
		if e.V != e.V {
			bits = math.Float64bits(math.NaN()) // ir.Key renders every NaN alike
		}
		return r.cons(node{kind: nodeFloat, v: int64(bits)})
	case *ir.VarRef:
		return r.cons(node{kind: nodeVar, v: int64(e.Var.ID)})
	case *ir.Load:
		return r.cons(node{kind: nodeLoad, v: int64(e.Arr.ID), a: r.exprList(e.Idx)})
	case *ir.Bin:
		return r.cons(node{kind: nodeBin, op: int32(e.Op), a: r.atom(e.L), b: r.atom(e.R)})
	case *ir.Un:
		return r.cons(node{kind: nodeUn, op: int32(e.Op), a: r.atom(e.X)})
	case *ir.Call:
		return r.cons(node{kind: nodeCall, op: int32(e.Fn), a: r.exprList(e.Args)})
	}
	return r.cons(node{kind: nodeNil})
}

func (r *Registry) exprList(es []ir.Expr) int32 {
	var id int32
	for _, x := range es {
		id = r.cons(node{kind: nodeArg, a: id, b: r.atom(x)})
	}
	return id
}

// pairs loads terms into the registry's scratch buffer as (atom, coef)
// pairs.
func (r *Registry) pairs(terms []ir.CheckTerm) []pair {
	ts := r.scratch[:0]
	for _, t := range terms {
		ts = append(ts, pair{atom: r.atom(t.Atom), coef: t.Coef})
	}
	r.scratch = ts
	return ts
}

// list hash-conses a term list into its TermsID. The pairs are put in
// atom-id order with duplicate atoms merged and zero coefficients
// dropped, so the id does not depend on term order; for canonical terms
// (ir.NormalizeTerms) this is the same identity as ir.FamilyKey.
func (r *Registry) list(ts []pair) TermsID {
	for i := 1; i < len(ts); i++ { // insertion sort: lists are short
		for j := i; j > 0 && ts[j].atom < ts[j-1].atom; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	var id int32
	for i := 0; i < len(ts); {
		a, c := ts[i].atom, ts[i].coef
		for i++; i < len(ts) && ts[i].atom == a; i++ {
			c += ts[i].coef
		}
		if c != 0 {
			id = r.cons(node{kind: nodeTerm, a: id, b: a, v: c})
		}
	}
	return TermsID(id)
}

// TermsID returns the identity of a range-expression.
func (r *Registry) TermsID(terms []ir.CheckTerm) TermsID { return r.list(r.pairs(terms)) }

// Intern returns the family for the given canonical terms (and constant,
// relevant under ImplyNone/ImplyCross), creating it on first use.
func (r *Registry) Intern(terms []ir.CheckTerm, konst int64) *Family {
	key := famKey{terms: r.TermsID(terms)}
	if !r.Mode.WithinFamily() {
		key.konst = konst
	}
	if f, ok := r.byKey[key]; ok {
		return f
	}
	f := &Family{
		Index:      len(r.Families),
		Terms:      cloneTerms(terms),
		ExactConst: key.konst,
		terms:      key.terms,
	}
	for _, t := range terms {
		ir.WalkExpr(t.Atom, func(x ir.Expr) {
			switch x := x.(type) {
			case *ir.VarRef:
				f.KillVars = append(f.KillVars, x.Var.ID)
				f.KilledByCall = f.KilledByCall || x.Var.Global
			case *ir.Load:
				f.KillArrays = append(f.KillArrays, x.Arr.ID)
				f.KilledByCall = f.KilledByCall || x.Arr.Global
			}
		})
	}
	slices.Sort(f.KillVars)
	f.KillVars = slices.Compact(f.KillVars)
	slices.Sort(f.KillArrays)
	f.KillArrays = slices.Compact(f.KillArrays)
	for _, id := range f.KillVars {
		r.byVar = appendAt(r.byVar, id, f)
	}
	for _, id := range f.KillArrays {
		r.byArr = appendAt(r.byArr, id, f)
	}
	if f.KilledByCall {
		r.byCall = append(r.byCall, f)
	}
	r.byKey[key] = f
	r.byTerms[key.terms] = append(r.byTerms[key.terms], f)
	r.Families = append(r.Families, f)
	return f
}

// FamilyOf interns the family of a check statement.
func (r *Registry) FamilyOf(c *ir.CheckStmt) *Family {
	return r.Intern(c.Terms, c.Const)
}

// WithTerms returns the families whose range-expression is id, in
// interning order (several under exact-constant keying).
func (r *Registry) WithTerms(id TermsID) []*Family { return r.byTerms[id] }

// ReadingVar returns the families whose range-expression reads the
// variable with the given ID, in interning order.
func (r *Registry) ReadingVar(id int) []*Family { return at(r.byVar, id) }

// LoadingArray returns the families whose range-expression loads the
// array with the given ID, in interning order.
func (r *Registry) LoadingArray(id int) []*Family { return at(r.byArr, id) }

// KilledByCall returns the families a subroutine call kills.
func (r *Registry) KilledByCall() []*Family { return r.byCall }

// Substitute returns the identity of f's range-expression with its
// direct term cx·x replaced by (cx·sign)·y, together with cx. ok is
// false when x occurs in f only inside an opaque atom (or not at all).
func (r *Registry) Substitute(f *Family, x *ir.Var, sign int64, y *ir.Var) (src TermsID, cx int64, ok bool) {
	ts := r.pairs(f.Terms)
	xa := r.cons(node{kind: nodeVar, v: int64(x.ID)})
	for i, t := range ts {
		if t.atom == xa {
			cx = t.coef
			ts[i] = pair{atom: r.cons(node{kind: nodeVar, v: int64(y.ID)}), coef: cx * sign}
		}
	}
	if cx == 0 {
		return 0, 0, false
	}
	return r.list(ts), cx, true
}

func appendAt(idx [][]*Family, id int, f *Family) [][]*Family {
	for len(idx) <= id {
		idx = append(idx, nil)
	}
	idx[id] = append(idx[id], f)
	return idx
}

func at(idx [][]*Family, id int) []*Family {
	if id < len(idx) {
		return idx[id]
	}
	return nil
}

func cloneTerms(terms []ir.CheckTerm) []ir.CheckTerm {
	out := make([]ir.CheckTerm, len(terms))
	for i, t := range terms {
		out[i] = ir.CheckTerm{Coef: t.Coef, Atom: ir.CloneExpr(t.Atom)}
	}
	return out
}

// ---------------------------------------------------------------------------
// Check implication graph

// Edge is one weighted CIG edge: Check(From ≤ k) ⇒ Check(To ≤ k+Weight).
type Edge struct {
	From, To *Family
	Weight   int64
}

// CIG is the check implication graph: families plus weighted cross-family
// implication edges. Within-family implications are implicit in the
// constant ordering (when the mode allows them).
type CIG struct {
	Registry *Registry
	out      map[*Family][]*Edge
	numEdges int
}

// NewCIG creates an empty CIG over the registry.
func NewCIG(r *Registry) *CIG {
	return &CIG{Registry: r, out: make(map[*Family][]*Edge)}
}

// AddEdge records that Check(from ≤ k) implies Check(to ≤ k+w). If the
// edge exists, the minimum weight is kept (paper §3.1).
func (g *CIG) AddEdge(from, to *Family, w int64) {
	for _, e := range g.out[from] {
		if e.To == to {
			if w < e.Weight {
				e.Weight = w
			}
			return
		}
	}
	g.out[from] = append(g.out[from], &Edge{From: from, To: to, Weight: w})
	g.numEdges++
}

// Out returns the edges leaving family f.
func (g *CIG) Out(f *Family) []*Edge { return g.out[f] }

// NumEdges returns the number of distinct cross-family edges.
func (g *CIG) NumEdges() int { return g.numEdges }

// AsStrong reports whether Check(f ≤ cf) is as strong as Check(t ≤ ct),
// following within-family ordering and up to one cross-family edge hop
// plus transitive within-family ordering, honoring the mode. Multi-hop
// paths are searched breadth-first (the graph is tiny).
func (g *CIG) AsStrong(f *Family, cf int64, t *Family, ct int64) bool {
	type node struct {
		fam *Family
		c   int64
	}
	reached := func(n node) bool {
		if n.fam != t {
			return false
		}
		if g.Registry.Mode.WithinFamily() {
			return n.c <= ct
		}
		return n.c == ct
	}
	start := node{f, cf}
	if reached(start) {
		return true
	}
	if !g.Registry.Mode.CrossFamily() {
		return false
	}
	seen := map[*Family]int64{f: cf}
	queue := []node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.out[n.fam] {
			c := n.c + e.Weight
			if prev, ok := seen[e.To]; ok && prev <= c {
				continue
			}
			seen[e.To] = c
			nn := node{e.To, c}
			if reached(nn) {
				return true
			}
			queue = append(queue, nn)
		}
	}
	return false
}

// Dump renders the CIG for debugging and the Figure 3/4 examples.
func (g *CIG) Dump() string {
	var b strings.Builder
	fams := append([]*Family{}, g.Registry.Families...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].Index < fams[j].Index })
	for _, f := range fams {
		fmt.Fprintf(&b, "F%d: %s\n", f.Index, f)
		for _, e := range g.out[f] {
			fmt.Fprintf(&b, "  -> F%d (weight %d)\n", e.To.Index, e.Weight)
		}
	}
	return b.String()
}
