package oracle

import (
	"strings"
	"testing"

	"nascent"
	"nascent/internal/ir"
)

func TestDefaultVariantsCoverTheGrid(t *testing.T) {
	vs := DefaultVariants()
	if len(vs) != 20 {
		t.Fatalf("DefaultVariants: %d variants, want 20 (8 schemes x 2 kinds + 2 ablations + 2 rotations)", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		s := v.String()
		if seen[s] {
			t.Errorf("duplicate variant %s", s)
		}
		seen[s] = true
		if !v.Options().BoundsChecks {
			t.Errorf("%s: oracle variants must compile with bounds checks", s)
		}
	}
	for _, want := range []string{"NI/PRX", "LLS/INX", "MCM/PRX", "LLS/PRX/none", "SE/PRX/rotate"} {
		if !seen[want] {
			t.Errorf("missing variant %s in %v", want, vs)
		}
	}
}

func TestFirstOutputDiff(t *testing.T) {
	d := firstOutputDiff("1\n2\n3\n", "1\n9\n3\n")
	if !strings.Contains(d, "line 2") || !strings.Contains(d, `"2"`) || !strings.Contains(d, `"9"`) {
		t.Errorf("firstOutputDiff = %q, want first difference at line 2", d)
	}
}

func TestVerifyRejectsBrokenBaseline(t *testing.T) {
	if _, err := Verify("program p\n  a(1) = 2.0\nend\n", Config{}); err == nil {
		t.Error("undeclared array should fail the baseline, not diverge")
	}
	if _, err := Verify("not a program", Config{}); err == nil {
		t.Error("unparsable source should fail the baseline")
	}
}

func TestReportErrAndSummary(t *testing.T) {
	r := &Report{Variants: 3}
	if r.Err() != nil || !strings.Contains(r.Summary(), "no divergence") {
		t.Errorf("clean report: Err=%v Summary=%q", r.Err(), r.Summary())
	}
	r.Divergences = append(r.Divergences, Divergence{
		Variant:   Variant{Scheme: nascent.LLS},
		Invariant: InvOutput,
		Detail:    "line 1 differs",
	})
	if r.Err() == nil || r.OK() {
		t.Error("divergent report must produce an error")
	}
	if s := r.Summary(); !strings.Contains(s, "output") || !strings.Contains(s, "LLS") {
		t.Errorf("Summary = %q, want variant and invariant named", s)
	}
}

// TestVerifyParallelMatchesSequential pins the oracle's ordered-reduce
// claim: Jobs only changes wall-clock, never the report.
func TestVerifyParallelMatchesSequential(t *testing.T) {
	// A program every scheme handles, with a deliberate mutation hook
	// exercised too: the divergence lists must match element-wise.
	src := `program p
  integer a(1:10)
  integer i
  do i = 1, 10
    a(i) = i
  enddo
  print a(10)
end
`
	seq, err := Verify(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Verify(src, Config{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Variants != par.Variants || len(seq.Divergences) != len(par.Divergences) {
		t.Fatalf("reports differ: seq %d/%d, par %d/%d",
			seq.Variants, len(seq.Divergences), par.Variants, len(par.Divergences))
	}
	for i := range seq.Divergences {
		if seq.Divergences[i].String() != par.Divergences[i].String() {
			t.Errorf("divergence %d differs: %s vs %s", i, seq.Divergences[i], par.Divergences[i])
		}
	}
	if seq.Naive != par.Naive {
		t.Errorf("naive baselines differ: %+v vs %+v", seq.Naive, par.Naive)
	}
}

// TestVerifySameFailureOnEveryEngine: a Mutate hook that panics fails
// every variant the same way on every engine. That is one run failure
// per variant, not an engine divergence, and it is InvRun, not
// InvCompile: the variant compiled before the hook failed.
func TestVerifySameFailureOnEveryEngine(t *testing.T) {
	src := `program p
  integer a(1:10)
  integer i
  do i = 1, 10
    a(i) = i
  enddo
  print a(10)
end
`
	variants := []Variant{{Scheme: nascent.NI}, {Scheme: nascent.LLS, Kind: nascent.INX}}
	rep, err := Verify(src, Config{
		Variants: variants,
		Engines:  []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt},
		Jobs:     2,
		Mutate:   func(Variant, *nascent.Program) { panic("boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != len(variants) {
		t.Fatalf("%d divergences, want one per variant:\n%s", len(rep.Divergences), rep.Summary())
	}
	for i, d := range rep.Divergences {
		if d.Variant != variants[i] || d.Invariant != InvRun {
			t.Errorf("divergence %d = %s, want %s: %s", i, d, variants[i], InvRun)
		}
		if d.OptIR == "" || !strings.Contains(d.Detail, "boom") {
			t.Errorf("divergence %d lacks the compiled program or the panic: %s", i, d)
		}
	}
}

// TestEvaluateRunsMutatedProgram: the Mutate hook edits the program
// that job then runs, on every engine, and only the jobs it is handed.
func TestEvaluateRunsMutatedProgram(t *testing.T) {
	src := `program p
  integer a(1:10)
  integer i
  do i = 1, 10
    a(i) = 3
  enddo
  print a(3)
end
`
	fe, err := nascent.AnalyzeShared(src, "")
	if err != nil {
		t.Fatal(err)
	}
	// The mutated variant runs first, so a leak into the shared
	// lowering would show in the NI runs after it.
	variants := []Variant{{Scheme: nascent.LLS}, {Scheme: nascent.NI}}
	engines := []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt}
	compile := func(v Variant) (*nascent.Program, error) { return fe.Compile(v.Options()) }
	mutate := func(v Variant, p *nascent.Program) {
		if v.Scheme != nascent.LLS {
			return
		}
		// Prepend an always-failing trap so the run must observe the
		// mutation. The entry block is shared with the other variants'
		// programs, so its statement list is replaced, not edited.
		entry := p.IR.Main().Blocks[0]
		entry.Stmts = append([]ir.Stmt{&ir.TrapStmt{Note: "injected"}}, entry.Stmts...)
	}
	run := nascent.RunConfig{MaxInstructions: 1e6}
	for _, jobs := range []int{1, 4} {
		results := evaluate(variants, engines, run, jobs, compile, mutate)
		if len(results) != len(variants)*len(engines) {
			t.Fatalf("jobs=%d: %d outcomes, want %d", jobs, len(results), len(variants)*len(engines))
		}
		for k, o := range results {
			v, e := variants[k/len(engines)], engines[k%len(engines)]
			if o.err != nil || o.prog == nil {
				t.Fatalf("jobs=%d: %s on %v: prog %v, err %v", jobs, v, e, o.prog != nil, o.err)
			}
			if v.Scheme == nascent.LLS {
				if !o.res.Trapped || !strings.Contains(o.res.TrapNote, "injected") {
					t.Errorf("jobs=%d: %s on %v: mutation not observed: %+v", jobs, v, e, o.res)
				}
			} else if o.res.Trapped || o.res.Output != "3\n" {
				t.Errorf("jobs=%d: %s on %v: unmutated run = %+v, want output 3", jobs, v, e, o.res)
			}
		}
	}
}
