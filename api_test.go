package nascent_test

import (
	"fmt"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/conformance"
	"nascent/internal/guard"
)

func TestCompileErrorsSurface(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"parse", "program p\n  x = = 1\nend\n", "parse"},
		{"sem", "program p\n  call nothere()\nend\n", "analyze"},
		{"noProgram", "subroutine f()\nend\n", "no program unit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := nascent.Compile(c.src, nascent.Options{})
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q missing %q", err.Error(), c.frag)
			}
		})
	}
}

func TestSchemeAndKindStrings(t *testing.T) {
	want := map[string]bool{
		"naive": true, "NI": true, "CS": true, "LNI": true,
		"SE": true, "LI": true, "LLS": true, "ALL": true, "MCM": true,
	}
	for _, s := range []nascent.Scheme{nascent.Naive, nascent.NI, nascent.CS, nascent.LNI,
		nascent.SE, nascent.LI, nascent.LLS, nascent.ALL, nascent.MCM} {
		if !want[s.String()] {
			t.Errorf("unexpected scheme name %q", s)
		}
	}
	if nascent.PRX.String() != "PRX" || nascent.INX.String() != "INX" {
		t.Error("check kind strings")
	}
	if nascent.ImplyFull.String() != "full" || nascent.ImplyNone.String() != "none" {
		t.Errorf("implication strings: %q %q", nascent.ImplyFull, nascent.ImplyNone)
	}
}

func TestOptReportPopulated(t *testing.T) {
	src := `program p
  real a(10)
  integer i
  do i = 1, 10
    a(i) = 1.0
  enddo
end
`
	naive, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Opt != nil {
		t.Error("naive compile must not carry an optimizer report")
	}
	opt, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Opt == nil {
		t.Fatal("no optimizer report")
	}
	if opt.Opt.ChecksBefore != naive.StaticChecks() {
		t.Errorf("ChecksBefore = %d, want %d", opt.Opt.ChecksBefore, naive.StaticChecks())
	}
	if opt.Opt.ChecksAfter != opt.StaticChecks() {
		t.Errorf("ChecksAfter = %d, want %d", opt.Opt.ChecksAfter, opt.StaticChecks())
	}
	total := opt.Opt.EliminatedAvail + opt.Opt.EliminatedCover + opt.Opt.EliminatedConst
	if total == 0 {
		t.Error("nothing recorded as eliminated")
	}
}

func TestDiagnosticsForCompileTimeViolation(t *testing.T) {
	src := `program p
  real a(10)
  a(11) = 1.0
end
`
	p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.NI})
	if err != nil {
		t.Fatal(err)
	}
	if p.Opt == nil || len(p.Opt.Diagnostics) == 0 {
		t.Fatal("expected a compile-time violation diagnostic")
	}
	if !strings.Contains(p.Opt.Diagnostics[0], "compile-time range violation") {
		t.Errorf("diagnostic = %q", p.Opt.Diagnostics[0])
	}
	if p.Opt.TrapsInserted != 1 {
		t.Errorf("TrapsInserted = %d", p.Opt.TrapsInserted)
	}
}

func TestRunWithLimit(t *testing.T) {
	src := `program p
  integer i
  i = 0
  while (i >= 0)
    i = i + 1
  endwhile
end
`
	p, err := nascent.Compile(src, nascent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunWith(nascent.RunConfig{MaxInstructions: 5000}); err == nil {
		t.Error("expected instruction-limit error")
	}
}

func TestDumpAndCIG(t *testing.T) {
	src := `program p
  real a(10)
  integer n, m
  n = 2
  m = n + 1
  a(n) = 1.0
  a(m) = 2.0
end
`
	p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dump()
	for _, want := range []string{"main p()", "check (", "a(n) = 1"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	cig := p.DumpCIG()
	if !strings.Contains(cig, "CIG of p") || !strings.Contains(cig, "weight 1") {
		t.Errorf("CIG dump missing expected content:\n%s", cig)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	// The optimizer must be fully deterministic: identical dumps across
	// repeated compilations (map-iteration order must never leak).
	src := `program p
  real a(50), b(50)
  integer i, j, n
  n = 20
  call f()
  do i = 1, n
    do j = 1, n
      a(i) = b(j) + a(i)
    enddo
  enddo
end
subroutine f()
  n = n + 0
end
`
	var first string
	for trial := 0; trial < 5; trial++ {
		p, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS, Kind: nascent.INX})
		if err != nil {
			t.Fatal(err)
		}
		d := p.Dump()
		if trial == 0 {
			first = d
		} else if d != first {
			t.Fatalf("nondeterministic compilation at trial %d:\n--- first\n%s\n--- now\n%s", trial, first, d)
		}
	}
}

// TestConformanceCorpusDeterministicAcrossJobs compiles and runs the
// conformance corpus on guard.Each at jobs ∈ {1, 4, 16}, on the tree
// walker and the bytecode pipeline, and asserts every pinned observable
// — instructions, checks, output, trap verdict — exactly: concurrent
// compiles and runs, which share recycled machines and compile
// scratches, never leak into a result. Run under -race it is also a
// data-race stress of that sharing.
func TestConformanceCorpusDeterministicAcrossJobs(t *testing.T) {
	if chaos.Active() {
		t.Fatalf("chaos registry enabled (%s) — determinism test needs it off", chaos.SpecString())
	}
	engines := []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt}
	corpus := conformance.Corpus
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("jobs=%d", workers), func(t *testing.T) {
			results := make([]nascent.RunResult, len(corpus)*len(engines))
			errs := guard.Each(len(results), workers, func(k int) error {
				c := corpus[k/len(engines)]
				prog, err := nascent.Compile(c.Src, nascent.Options{BoundsChecks: true, Filename: c.Name + ".mf"})
				if err != nil {
					return err
				}
				results[k], err = prog.RunWith(nascent.RunConfig{Engine: engines[k%len(engines)]})
				return err
			})
			for k, res := range results {
				c, e := corpus[k/len(engines)], engines[k%len(engines)]
				if errs[k] != nil {
					t.Errorf("%s on %v: %v", c.Name, e, errs[k])
					continue
				}
				if res.Instructions != c.Instr || res.Checks != c.Checks {
					t.Errorf("%s on %v: instr/checks = %d/%d, want %d/%d",
						c.Name, e, res.Instructions, res.Checks, c.Instr, c.Checks)
				}
				if res.Output != c.Output {
					t.Errorf("%s on %v: output = %q, want %q", c.Name, e, res.Output, c.Output)
				}
				if res.Trapped != c.Trapped || (c.Trapped && res.TrapNote != c.TrapNote) {
					t.Errorf("%s on %v: trapped = %v (%q), want %v (%q)",
						c.Name, e, res.Trapped, res.TrapNote, c.Trapped, c.TrapNote)
				}
			}
		})
	}
}
