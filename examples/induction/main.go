// Figure 2 of the paper: induction variable analysis in Nascent. The
// loop assigns basic variable h; j=j+1 and k=k+m classify as linear
// (with m=5 constant-propagated, k's induction expression is 5h+8),
// 2*m+1 is invariant, and the trip count is n.
//
//	go run ./examples/induction
package main

import (
	"fmt"
	"log"
	"slices"

	"nascent/internal/dom"
	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/irbuild"
	"nascent/internal/loops"
	"nascent/internal/parser"
	"nascent/internal/sem"
	"nascent/internal/ssa"
)

const src = `program figure2
  integer i, j, k, m, n
  integer a(1:100)
  j = 0
  k = 3
  m = 5
  do i = 0, n - 1
    j = j + 1
    k = k + m
    a(k) = 2*m + 1
  enddo
end
`

func main() {
	file, err := parser.Parse("figure2.mf", src)
	if err != nil {
		log.Fatal(err)
	}
	semProg, err := sem.Analyze(file)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := irbuild.Build(semProg, irbuild.Options{})
	if err != nil {
		log.Fatal(err)
	}

	f := prog.Main()
	f.SplitCriticalEdges()
	tree := dom.Compute(f)
	forest := loops.Analyze(f, tree)
	tree = dom.Compute(f)
	info := ssa.Build(f, tree)
	ind := induction.Analyze(f, forest, info)
	loop := forest.Loops[0]

	fmt.Println("Paper Figure 2: induction variable analysis")
	fmt.Println()
	fmt.Printf("%-18s %-12s %s\n", "program expression", "class", "induction expression (h = basic loop variable)")

	show := func(label string, e ir.Expr) {
		ie := ind.IEOfExpr(e, loop)
		fmt.Printf("%-18s %-12s %s\n", label, ie.Class, ie.Form)
	}

	// Walk the loop body: report the IE of every assignment source and
	// store subscript/value.
	body := slices.Clone(loop.Body())
	slices.SortFunc(body, func(a, b *ir.Block) int { return a.ID - b.ID })
	for _, b := range body {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.AssignStmt:
				show(s.Dst.Name+" = "+ir.ExprString(s.Src), s.Src)
			case *ir.StoreStmt:
				show("subscript "+ir.ExprString(s.Idx[0]), s.Idx[0])
				show("value "+ir.ExprString(s.Val), s.Val)
			}
		}
	}

	trip, ok := ind.TripCount(loop)
	fmt.Println()
	if ok {
		fmt.Printf("trip count: max(0, %s)   (paper: max(0,n))\n", trip)
	} else {
		fmt.Println("trip count unavailable")
	}
}
