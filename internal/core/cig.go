package core

import (
	"nascent/internal/dataflow"
	"nascent/internal/ir"
	"nascent/internal/rangecheck"
)

// BuildCIG constructs the explicit check implication graph of a function
// (paper §3.1, Figures 3–4): one node per check family, plus weighted
// cross-family edges discovered from affine copy relations x := ±y + c
// in the function body. An edge (F → G, w) asserts Check(F ≤ k) ⇒
// Check(G ≤ k+w) at the points where the defining relation holds.
//
// The optimizer itself realizes these implications flow-sensitively in
// the availability transfer (which is sound at every point); the
// explicit graph exists for reporting, tooling (nacc -cig), and the
// paper's Figure 3/4 semantics.
func BuildCIG(f *ir.Func, mode rangecheck.Mode) *rangecheck.CIG {
	env := dataflow.NewEnv(f, rangecheck.NewRegistry(mode))
	g := rangecheck.NewCIG(env.Reg)
	// The edges are the availability transfer's affine shifts: for each
	// family F containing the defined variable x with a direct
	// coefficient cx, the source family substitutes cx·x by (cx·sign)·y;
	// performing (src ≤ k) implies (F ≤ k + cx·c). Self-shifts such as
	// i := i + 1 are within-family and need no edge.
	f.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		a, ok := s.(*ir.AssignStmt)
		if !ok {
			return
		}
		for _, sh := range env.Shifts(a) {
			if sh.From != sh.To {
				g.AddEdge(sh.From, sh.To, sh.Weight)
			}
		}
	})
	return g
}
