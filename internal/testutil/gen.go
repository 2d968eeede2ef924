package testutil

import (
	"fmt"
	"math/rand"
	"strings"
)

// The random program generator of the differential fuzz tests: valid MF
// programs with nested DO loops, while loops, conditionals and affine or
// non-affine subscripts, some of which trap.

// progGen generates random-but-valid MF programs.
type progGen struct {
	r   *rand.Rand
	b   strings.Builder
	ind int
	// loop variables currently in scope, usable in expressions
	scope []string
	depth int
}

const genN = 12 // array extent used by generated programs

func (g *progGen) line(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("  ", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// intExpr produces a random integer expression over in-scope variables.
func (g *progGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", 1+g.r.Intn(genN))
		case 1:
			if len(g.scope) > 0 {
				return g.scope[g.r.Intn(len(g.scope))]
			}
			return "m"
		default:
			return "m"
		}
	}
	l := g.intExpr(depth - 1)
	r := g.intExpr(depth - 1)
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %d)", l, 1+g.r.Intn(2))
	default:
		return fmt.Sprintf("(%s + %d)", l, g.r.Intn(3)-1)
	}
}

// subscript produces a subscript expression; usually clamped in-bounds,
// occasionally raw (possibly trapping).
func (g *progGen) subscript() string {
	e := g.intExpr(2)
	if g.r.Intn(10) == 0 {
		return e // may violate the bounds: the trap path
	}
	return fmt.Sprintf("min(max(%s, 1), %d)", e, genN)
}

func (g *progGen) stmt(depth int) {
	switch g.r.Intn(7) {
	case 0, 1: // array store
		g.line("a(%s) = b(%s) + 1.0", g.subscript(), g.subscript())
	case 2: // scalar update
		g.line("m = %s", g.intExpr(2))
	case 3: // 2-D access
		g.line("c(%s, %s) = c(%s, %s) * 0.5 + a(%s)",
			g.subscript(), g.subscript(), g.subscript(), g.subscript(), g.subscript())
	case 4: // conditional
		if depth > 0 {
			g.line("if (%s < %s) then", g.intExpr(1), g.intExpr(1))
			g.ind++
			g.stmt(depth - 1)
			g.ind--
			if g.r.Intn(2) == 0 {
				g.line("else")
				g.ind++
				g.stmt(depth - 1)
				g.ind--
			}
			g.line("endif")
		} else {
			g.line("a(%s) = 0.5", g.subscript())
		}
	case 5: // counted loop
		if depth > 0 && g.depth < 3 {
			v := fmt.Sprintf("i%d", g.depth)
			g.depth++
			lo := 1 + g.r.Intn(3)
			var hi string
			if g.r.Intn(2) == 0 {
				hi = fmt.Sprintf("%d", lo+g.r.Intn(genN-lo+1))
			} else {
				hi = "m"
			}
			step := []string{"", ", 1", ", 2", ", -1"}[g.r.Intn(4)]
			if step == ", -1" {
				g.line("do %s = %s, %d%s", v, hi, lo, step)
			} else {
				g.line("do %s = %d, %s%s", v, lo, hi, step)
			}
			g.ind++
			g.scope = append(g.scope, v)
			n := 1 + g.r.Intn(2)
			for i := 0; i < n; i++ {
				g.stmt(depth - 1)
			}
			g.scope = g.scope[:len(g.scope)-1]
			g.ind--
			g.line("enddo")
			g.depth--
		} else {
			g.line("b(%s) = a(%s)", g.subscript(), g.subscript())
		}
	case 6: // while loop
		if depth > 0 && g.depth < 2 {
			v := fmt.Sprintf("j%d", g.depth)
			g.depth++
			g.line("%s = %d", v, 1+g.r.Intn(3))
			g.line("while (%s < %d)", v, 4+g.r.Intn(genN-3))
			g.ind++
			g.scope = append(g.scope, v)
			g.stmt(depth - 1)
			g.line("%s = %s + %d", v, v, 1+g.r.Intn(2))
			g.scope = g.scope[:len(g.scope)-1]
			g.ind--
			g.line("endwhile")
			g.depth--
		} else {
			g.line("a(%s) = 1.5", g.subscript())
		}
	}
}

// Generate produces one complete random MF program from a seed. The
// same seed always yields the same program.
func Generate(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.line("program fuzz")
	g.line("  parameter n = %d", genN)
	g.line("  real a(n), b(n), c(n, n)")
	g.line("  integer m, i0, i1, i2, j0, j1")
	g.ind = 1
	g.line("m = %d", 1+g.r.Intn(genN))
	g.line("do i0 = 1, n")
	g.ind++
	g.scope = append(g.scope, "i0")
	g.line("a(i0) = float(i0)")
	g.line("b(i0) = float(n - i0)")
	g.scope = g.scope[:0]
	g.ind--
	g.line("enddo")
	nStmts := 3 + g.r.Intn(5)
	for i := 0; i < nStmts; i++ {
		g.stmt(2)
	}
	g.line("print a(1), b(n), m")
	g.ind = 0
	g.line("end")
	return g.b.String()
}
