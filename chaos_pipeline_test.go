package nascent_test

// Pipeline-wide fault-injection tests: every chaos site is driven at
// rate 1 through the public API and must produce its contracted
// outcome — an amplified typed error, a contained panic, a per-function
// degradation, or a typed resource abort. Chaos-off inertness is pinned
// at the end of the file.

import (
	"errors"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/chaos"
)

// chaosSrc executes ~100k instructions so the engines reach their poll
// points (poll cadence is coarser than short programs ever run).
const chaosSrc = `program chaosprobe
  integer a(1:100)
  integer i
  integer j
  do j = 1, 200
    do i = 1, 100
      a(i) = a(i) + j
    enddo
  enddo
  print a(1)
  print a(100)
end
`

const chaosWant = "20100\n20100\n"

func withChaos(t *testing.T, spec chaos.Spec) {
	t.Helper()
	chaos.Enable(spec)
	t.Cleanup(chaos.Disable)
}

func all(site chaos.Site) chaos.Spec { return chaos.Spec{Seed: 1, Rate: 1, Site: site} }

// TestChaosFrontendErrors drives the three error-amplification sites:
// each must surface as an ordinary compile error carrying the injected
// marker, never a panic or a silent success.
func TestChaosFrontendErrors(t *testing.T) {
	for _, site := range []chaos.Site{chaos.SiteLexError, chaos.SiteParseError, chaos.SiteSemError} {
		t.Run(string(site), func(t *testing.T) {
			withChaos(t, all(site))
			_, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true})
			if err == nil {
				t.Fatalf("%s injected but compile succeeded", site)
			}
			if !chaos.InjectedMessage(err) {
				t.Errorf("error lost the injection marker: %v", err)
			}
			if !strings.Contains(err.Error(), "replay: -chaos") {
				t.Errorf("error lost the replay spec: %v", err)
			}
		})
	}
}

// TestChaosLowerPanicContained checks an irbuild panic is contained by
// the stage guard as a typed InternalError tagged "lower".
func TestChaosLowerPanicContained(t *testing.T) {
	withChaos(t, all(chaos.SiteLowerPanic))
	_, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true})
	var ie *nascent.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InternalError", err)
	}
	if ie.Stage != "lower" {
		t.Errorf("Stage = %q, want lower", ie.Stage)
	}
	if !errors.Is(err, nascent.ErrInternal) {
		t.Error("InternalError must match ErrInternal")
	}
}

// TestChaosOptimizerDegrades drives both optimizer faults — an induced
// panic and a malformed-IR mutation the verifier must catch — and
// checks each degrades that function to its naive body: the compile
// succeeds with a diagnostic, and the program still runs correctly
// (with naive's check count, since nothing was optimized).
func TestChaosOptimizerDegrades(t *testing.T) {
	naiveProg, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveProg.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []chaos.Site{chaos.SiteOptPanic, chaos.SiteOptMalformed} {
		t.Run(string(site), func(t *testing.T) {
			withChaos(t, all(site))
			prog, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
			if err != nil {
				t.Fatalf("optimizer fault must degrade, not fail the compile: %v", err)
			}
			if prog.Opt == nil || len(prog.Opt.Diagnostics) == 0 {
				t.Error("degradation left no diagnostic")
			}
			res, err := prog.Run()
			if err != nil {
				t.Fatalf("degraded program failed to run: %v", err)
			}
			if res.Output != chaosWant {
				t.Errorf("degraded output = %q, want %q", res.Output, chaosWant)
			}
			if res.Checks != naive.Checks {
				t.Errorf("degraded checks = %d, want naive's %d", res.Checks, naive.Checks)
			}
		})
	}
}

// TestChaosPollBudgetAndCancel drives the spurious budget-exhaustion
// and delayed-cancellation sites of both engines: each must abort with
// a typed ResourceError.
func TestChaosPollBudgetAndCancel(t *testing.T) {
	cases := []struct {
		site   chaos.Site
		engine nascent.Engine
	}{
		{chaos.SiteTreeBudget, nascent.EngineTree},
		{chaos.SiteTreeCancel, nascent.EngineTree},
		{chaos.SiteVMBudget, nascent.EngineVMOpt},
		{chaos.SiteVMCancel, nascent.EngineVMOpt},
	}
	for _, c := range cases {
		t.Run(string(c.site), func(t *testing.T) {
			withChaos(t, all(c.site))
			prog, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			_, err = prog.RunWith(nascent.RunConfig{Engine: c.engine})
			if !errors.Is(err, nascent.ErrResourceExhausted) {
				t.Fatalf("err = %v, want ErrResourceExhausted", err)
			}
		})
	}
}

// TestChaosPollPanicContained checks an injected mid-run panic in
// EITHER engine is contained as an InternalError tagged "run" — the VM
// must use the same stage tag as the tree-walker, so downstream
// consumers (oracle taxonomy, exit codes) treat both identically.
func TestChaosPollPanicContained(t *testing.T) {
	cases := []struct {
		site   chaos.Site
		engine nascent.Engine
	}{
		{chaos.SiteTreePanic, nascent.EngineTree},
		{chaos.SiteVMPanic, nascent.EngineVMOpt},
	}
	for _, c := range cases {
		t.Run(string(c.site), func(t *testing.T) {
			withChaos(t, all(c.site))
			prog, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			_, err = prog.RunWith(nascent.RunConfig{Engine: c.engine})
			var ie *nascent.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *InternalError", err)
			}
			if ie.Stage != "run" {
				t.Errorf("Stage = %q, want run (tree and VM must share the containment tag)", ie.Stage)
			}
		})
	}
}

// TestChaosOffPipelineClean pins inertness: with the registry disabled
// the probe compiles, optimizes, and runs identically under both
// engines — no chaos residue survives a Disable.
func TestChaosOffPipelineClean(t *testing.T) {
	chaos.Disable()
	for _, engine := range []nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt} {
		prog, err := nascent.Compile(chaosSrc, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Opt.Diagnostics) != 0 {
			t.Errorf("chaos-off compile produced diagnostics: %v", prog.Opt.Diagnostics)
		}
		res, err := prog.RunWith(nascent.RunConfig{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != chaosWant {
			t.Errorf("%v output = %q, want %q", engine, res.Output, chaosWant)
		}
	}
}
