package nascent_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/oracle"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// This file implements randomized differential testing of the range
// check optimizer: generate random MF programs and hand each one to the
// oracle (internal/oracle), which runs it naive and under every
// optimizer configuration and asserts the paper's behavior contract
// (§3). Two drivers share the generator: TestDifferentialFuzz sweeps a
// fixed seed range deterministically, and FuzzPipeline lets `go test
// -fuzz` mutate raw source far outside what the generator produces.

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

// generate produces one complete random MF program.
func generate(seed int64) string {
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

func TestDifferentialFuzz(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 8
	}
	variants := oracle.DefaultVariants()
	trapped, checked := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := generate(seed)
		rep, err := oracle.Verify(src, oracle.Config{
			Run: nascent.RunConfig{MaxInstructions: 20e6},
		})
		if err != nil {
			if strings.Contains(err.Error(), "compile") {
				t.Fatalf("seed %d: naive compile: %v\n%s", seed, err, src)
			}
			// Infinite loops in generated code exceed the budget: skip seed.
			continue
		}
		checked++
		if rep.Naive.Trapped {
			trapped++
		}
		if !rep.OK() {
			t.Fatalf("seed %d: %s\n%s", seed, rep.Summary(), src)
		}
	}
	t.Logf("fuzzed %d seeds (%d checked, %d trapping) x %d configurations",
		seeds, checked, trapped, len(variants))
}

// FuzzPipeline is the native fuzz target: arbitrary bytes go through
// the whole pipeline, which must return errors — never panic — and stay
// sound on every input that happens to compile. The seed corpus mixes
// generator output with hand-written edge cases so mutation starts from
// syntactically valid programs.
func FuzzPipeline(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(generate(seed))
	}
	f.Add("program p\n  real a(10)\n  a(11) = 1.0\nend\n")
	f.Add("program p\n  integer i\n  do i = 1, 0\n    i = i\n  enddo\nend\n")
	f.Add("program p\nend\n")
	variants := []oracle.Variant{
		{Scheme: nascent.SE},
		{Scheme: nascent.LLS, Kind: nascent.INX},
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Compile must contain every failure as an error.
		if _, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.ALL}); err != nil {
			return
		}
		// The input compiles: the optimizer must be sound on it.
		rep, err := oracle.Verify(src, oracle.Config{
			Variants: variants,
			Run:      nascent.RunConfig{MaxInstructions: 200000},
		})
		if err != nil {
			return // baseline exceeded its budget: nothing to compare
		}
		if !rep.OK() {
			t.Fatalf("%s\nsource:\n%s", rep.Summary(), src)
		}
	})
}

// FuzzEngineIdentity fuzzes the execution-engine contract directly:
// for any input that compiles, every registered engine — the
// tree-walking reference, the optimized VM, the guard/deopt VM, and
// the closure-compiled jit — and the unoptimized bytecode of
// vm.Compile, the first stage of every bytecode pipeline, must produce
// identical observables — instruction and check counters, output, trap
// note/class/position — or identical error text. The seed corpus is
// the conformance suite, whose cases pin exactly these observables,
// generator output so mutation starts from loop-heavy programs that
// exercise fusion, and the irregular stress programs, whose guards
// fail and deopt.
func FuzzEngineIdentity(f *testing.F) {
	for _, c := range conformance.Corpus {
		f.Add(c.Src)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(generate(seed))
	}
	for _, p := range suite.Irregular {
		f.Add(p.Source)
	}
	engines := nascent.AllEngines()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
		if err != nil {
			return
		}
		type run struct {
			name string
			res  nascent.RunResult
			err  error
		}
		runs := make([]run, 0, len(engines)+1)
		for _, e := range engines {
			r := run{name: e.String()}
			r.res, r.err = p.RunWith(nascent.RunConfig{MaxInstructions: 200000, Engine: e})
			runs = append(runs, r)
		}
		vp, err := vm.Compile(p.IR)
		if err != nil {
			t.Fatalf("vm.Compile: %v\nsource:\n%s", err, src)
		}
		plain := run{name: "vm.Compile"}
		plain.res, plain.err = vp.Run(nascent.RunConfig{MaxInstructions: 200000})
		runs = append(runs, plain)
		ref := runs[0]
		for _, got := range runs[1:] {
			if (ref.err == nil) != (got.err == nil) ||
				(ref.err != nil && ref.err.Error() != got.err.Error()) {
				t.Fatalf("%s error mismatch: tree=%v %s=%v\nsource:\n%s",
					got.name, ref.err, got.name, got.err, src)
			}
			if ref.err == nil && !reflect.DeepEqual(ref.res, got.res) {
				t.Fatalf("%s observables diverge:\ntree:  %+v\n%s: %+v\nsource:\n%s",
					got.name, ref.res, got.name, got.res, src)
			}
		}
	})
}
