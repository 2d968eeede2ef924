package nascent_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nascent"
	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/oracle"
	"nascent/internal/suite"
)

// TestOracleSuitePrograms runs the differential oracle over every
// benchmark program in the paper's Table 1 suite and over the irregular
// stress set: each program is compiled naive and under all twenty
// optimizer variants, executed under every engine, and checked against
// the soundness contract plus the engine-identity invariant (tree and
// the three bytecode engines must produce byte-identical Results for
// every variant). gather_tail traps naive, so the trap-verdict
// invariant requires every variant to trap as well.
func TestOracleSuitePrograms(t *testing.T) {
	progs := append(append([]suite.Program(nil), suite.Programs...), suite.Irregular...)
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := oracle.Verify(p.Source, oracle.Config{
				Engines: []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt, nascent.EngineVMRCE, nascent.EngineVMJit},
			})
			if err != nil {
				t.Fatalf("baseline failed: %v", err)
			}
			if !rep.OK() {
				t.Fatalf("%s", rep.Summary())
			}
			if wantTrap := p.Name == "gather_tail"; rep.Naive.Trapped != wantTrap {
				t.Errorf("naive trapped = %v, want %v", rep.Naive.Trapped, wantTrap)
			}
		})
	}
}

// oracleSrc is the subject program for miscompilation-injection tests:
// small, deterministic, with enough checked accesses that naive executes
// a measurable number of dynamic checks.
const oracleSrc = `program p
  integer i
  real a(10), b(10)
  do i = 1, 10
    a(i) = float(i)
  enddo
  do i = 1, 10
    b(i) = a(i) * 2.0
  enddo
  print a(10), b(1)
end
`

// TestOracleCatchesMiscompiles injects a deliberate miscompilation into
// the optimized program (via Config.Mutate) and asserts the oracle
// reports a structured Divergence of the expected invariant class.
// This is the oracle's own soundness test: a checker that cannot detect
// a planted bug proves nothing when it reports success.
func TestOracleCatchesMiscompiles(t *testing.T) {
	one := []oracle.Variant{{Scheme: nascent.LLS}}
	cases := []struct {
		name     string
		variants []oracle.Variant
		mutate   func(p *nascent.Program)
		want     oracle.Invariant
	}{
		{
			name: "extra-output",
			mutate: func(p *nascent.Program) {
				e := p.IR.Main().Entry()
				e.Stmts = append(e.Stmts, &ir.PrintStmt{Args: []ir.Expr{&ir.ConstInt{V: 42}}})
			},
			want: oracle.InvOutput,
		},
		{
			name: "spurious-trap",
			mutate: func(p *nascent.Program) {
				e := p.IR.Main().Entry()
				e.Stmts = append([]ir.Stmt{&ir.TrapStmt{Note: "injected"}}, e.Stmts...)
			},
			want: oracle.InvTrap,
		},
		{
			name: "check-explosion",
			mutate: func(p *nascent.Program) {
				// Empty-term checks always pass (0 <= 0) but each one
				// executed counts against the dynamic check budget.
				e := p.IR.Main().Entry()
				for i := 0; i < 100; i++ {
					e.Stmts = append(e.Stmts, &ir.CheckStmt{Note: "injected"})
				}
			},
			want: oracle.InvChecks,
		},
		{
			name:   "report-tamper",
			mutate: func(p *nascent.Program) { p.Opt.ChecksAfter++ },
			want:   oracle.InvReport,
		},
		{
			name: "crash-run",
			mutate: func(p *nascent.Program) {
				e := p.IR.Main().Entry()
				e.Stmts = append(e.Stmts, &ir.PrintStmt{Args: []ir.Expr{
					&ir.Bin{Op: ir.OpDiv, L: &ir.ConstInt{V: 1}, R: &ir.ConstInt{V: 0}, Typ: ir.Int},
				}})
			},
			want: oracle.InvRun,
		},
		{
			name:     "bad-scheme",
			variants: []oracle.Variant{{Scheme: nascent.Scheme(99)}},
			want:     oracle.InvCompile,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := oracle.Config{Variants: tc.variants}
			if cfg.Variants == nil {
				cfg.Variants = one
			}
			if tc.mutate != nil {
				cfg.Mutate = func(_ oracle.Variant, p *nascent.Program) { tc.mutate(p) }
			}
			rep, err := oracle.Verify(oracleSrc, cfg)
			if err != nil {
				t.Fatalf("baseline failed: %v", err)
			}
			if rep.OK() {
				t.Fatalf("oracle missed the injected %s miscompilation", tc.want)
			}
			found := false
			for _, d := range rep.Divergences {
				if d.Invariant == tc.want {
					found = true
					if d.Detail == "" {
						t.Error("divergence has empty Detail")
					}
					if d.NaiveIR == "" {
						t.Error("divergence has empty NaiveIR dump")
					}
				}
			}
			if !found {
				t.Fatalf("want a %s divergence, got:\n%s", tc.want, rep.Summary())
			}
		})
	}
}

// TestPipelineNeverPanics mutates valid programs and pushes whatever
// still compiles through every stage — parse, analyze, lower, optimize,
// execute — asserting the toolchain returns errors instead of panicking.
// Every surviving mutant additionally goes through the differential
// oracle: the optimizer must stay sound on every valid program, not
// just on hand-picked ones.
func TestPipelineNeverPanics(t *testing.T) {
	base := `program p
  parameter n = 8
  integer i, j, m
  real a(n), b(0:n)
  m = 3
  do i = 1, n
    a(i) = float(i)
  enddo
  j = 1
  while (j < m)
    b(j) = a(j) + a(min(j + 1, n))
    j = j + 1
  endwhile
  if (m > 2) then
    call f(m)
  endif
  print a(1), b(1)
end
subroutine f(k)
  m = k * 2
end
`
	// The sampled oracle runs use a small variant set so the whole test
	// stays well under the tier-1 time budget.
	oracleVariants := []oracle.Variant{
		{Scheme: nascent.SE},
		{Scheme: nascent.LLS, Kind: nascent.INX},
		{Scheme: nascent.MCM},
	}
	r := rand.New(rand.NewSource(99))
	compiled, ran, verified := 0, 0, 0
	trials := 6000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		b := []byte(base)
		for e := 0; e < 1+r.Intn(6); e++ {
			switch r.Intn(3) {
			case 0:
				if len(b) > 1 {
					i := r.Intn(len(b))
					b = append(b[:i], b[i+1:]...)
				}
			case 1:
				i := r.Intn(len(b))
				b = append(b[:i], append([]byte{b[r.Intn(len(b))]}, b[i:]...)...)
			case 2:
				b[r.Intn(len(b))] = byte(32 + r.Intn(95))
			}
		}
		src := string(b)
		for _, sch := range []nascent.Scheme{nascent.Naive, nascent.SE, nascent.LLS} {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("panic compiling mutated source (scheme %v): %v\n%s", sch, rec, src)
					}
				}()
				p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: sch})
				if err != nil {
					return
				}
				compiled++
				if _, err := p.RunWith(nascent.RunConfig{MaxInstructions: 200000}); err == nil {
					ran++
				}
				// Every surviving mutant goes through the oracle (once per
				// source: the naive compile attempt is the dedup point).
				if sch == nascent.Naive {
					rep, err := oracle.Verify(src, oracle.Config{
						Variants: oracleVariants,
						Run:      nascent.RunConfig{MaxInstructions: 200000},
					})
					if err != nil {
						return // baseline exceeded its budget: nothing to compare
					}
					verified++
					if !rep.OK() {
						t.Fatalf("oracle divergence on mutated source:\n%s\n%s", rep.Summary(), src)
					}
				}
			}()
		}
	}
	if compiled == 0 {
		t.Error("no mutated program compiled: mutation too destructive to exercise the back end")
	}
	if verified == 0 {
		t.Error("no mutant reached the oracle: sampling threshold too high")
	}
	t.Logf("mutants compiled: %d, ran: %d, oracle-verified: %d", compiled, ran, verified)
}

// TestLongSumCompilesInLinearTime compiles "i = 1+1+...+1" with 520k
// terms, about the 1 MiB source cap nascentd accepts. Semantic checking
// asks every operand for its position; when a Binary's position walked
// its whole left spine, this took quadratic time (9 s at only 32k
// terms). It now takes well under a second, so the bound is generous.
func TestLongSumCompilesInLinearTime(t *testing.T) {
	const terms = 520000
	src := "program p\n  integer i\n  i = " + strings.Repeat("1+", terms-1) + "1\n  print i\nend\n"
	start := time.Now()
	prog, err := nascent.Compile(src, nascent.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("compiling a %d-term sum took %v, want under 10s", terms, d)
	}
	res, err := prog.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := fmt.Sprintf("%d\n", terms); res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

// loopSource builds the two loop shapes that once made compile time
// superlinear: n DO loops one after another, or one nest n deep. Every
// loop shares the variable i and the invariant bound n = 1, and the
// innermost body (or every flat body) updates a(i).
func loopSource(n int, nested bool) string {
	var b strings.Builder
	b.WriteString("program p\n  integer i, n\n  real a(10)\n  n = 1\n")
	if nested {
		b.WriteString(strings.Repeat("do i = 1, n\n", n))
		b.WriteString("a(i) = a(i) + 1.0\n")
		b.WriteString(strings.Repeat("enddo\n", n))
	} else {
		b.WriteString(strings.Repeat("  do i = 1, n\n    a(i) = a(i) + 1.0\n  enddo\n", n))
	}
	b.WriteString("  print a(1)\nend\n")
	return b.String()
}

// TestDeepDoNestCompilesNaive lowers a 40,000-deep DO nest (a 0.7 MB
// source). Deciding whether each DO bound is invariant used to walk the
// whole loop body, which is quadratic in the depth: 76 s for this
// source. One pre-order index per unit makes it a range query, and the
// compile takes well under a second, so the bound is generous.
func TestDeepDoNestCompilesNaive(t *testing.T) {
	src := loopSource(40000, true)
	start := time.Now()
	if _, err := nascent.Compile(src, nascent.Options{BoundsChecks: true}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("compiling a 40,000-deep nest took %v, want under 5s", d)
	}
}

// TestHoistsEveryLoop compiles 2,000 loops in a row and a 1,000-deep
// nest under LLS. Preheader insertion once solved a whole-function
// dataflow problem per loop (10 s and 75 s for these shapes) and then
// stopped at a work budget, leaving the checks of all but a few loops in
// place. It now keeps one solution per function up to date, so every
// loop is hoisted: no diagnostic reports a stopped pass, no check is
// left inside a loop, and the program prints what the naive build
// prints.
func TestHoistsEveryLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		nested bool
	}{{"flat2000", 2000, false}, {"nest1000", 1000, true}} {
		t.Run(c.name, func(t *testing.T) {
			src := loopSource(c.n, c.nested)
			start := time.Now()
			opt, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
			if err != nil {
				t.Fatalf("LLS compile: %v", err)
			}
			if d := time.Since(start); d > 20*time.Second {
				t.Fatalf("LLS compile took %v, want under 20s", d)
			}
			if d := strings.Join(opt.Opt.Diagnostics, "\n"); strings.Contains(d, "stopped") {
				t.Errorf("diagnostics report a stopped pass: %q", d)
			}
			f := opt.IR.Main()
			forest := loops.Analyze(f, dom.Compute(f))
			if len(forest.Loops) != c.n {
				t.Fatalf("found %d loops, want %d", len(forest.Loops), c.n)
			}
			for _, b := range f.Blocks {
				if forest.LoopOf(b) == nil {
					continue
				}
				for _, s := range b.Stmts {
					if chk, ok := s.(*ir.CheckStmt); ok {
						t.Fatalf("loop block b%d keeps a check: %s", b.ID, chk)
					}
				}
			}
			naive, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
			if err != nil {
				t.Fatalf("naive compile: %v", err)
			}
			want, err := naive.Run()
			if err != nil {
				t.Fatalf("naive run: %v", err)
			}
			got, err := opt.Run()
			if err != nil {
				t.Fatalf("LLS run: %v", err)
			}
			if got.Output != want.Output || got.Trapped != want.Trapped {
				t.Errorf("LLS output %q (trapped %v), naive %q (trapped %v)", got.Output, got.Trapped, want.Output, want.Trapped)
			}
		})
	}
}
