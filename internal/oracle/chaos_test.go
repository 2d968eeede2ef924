package oracle

import (
	"errors"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
)

const sweepSrc = `program probe
  integer a(1:20)
  integer i
  do i = 1, 20
    a(i) = i * 2
  enddo
  print a(1)
  print a(20)
end
`

// TestChaosSweepClean runs the acceptance sweep: 8 seeds, all sites
// armed, default rate — the pipeline must report zero violations
// (every faulted run is correct or a typed error).
func TestChaosSweepClean(t *testing.T) {
	rep, err := ChaosSweep(sweepSrc, oracleSweepConfig())
	if err != nil {
		t.Fatalf("baseline failed: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("chaos sweep found violations:\n%s", rep.Summary())
	}
	if rep.Seeds != 8 {
		t.Errorf("Seeds = %d, want 8", rep.Seeds)
	}
	if rep.Runs == 0 {
		t.Error("sweep performed no runs")
	}
	if rep.Faults == 0 {
		t.Error("sweep injected no faults — the rate/seed set exercises nothing")
	}
	if !strings.Contains(rep.Summary(), "no violations") {
		t.Errorf("Summary() = %q", rep.Summary())
	}
}

func oracleSweepConfig() ChaosConfig {
	return ChaosConfig{
		Jobs:    8,
		Engines: nascent.AllEngines(),
	}
}

// TestChaosSweepRejectsActiveRegistry pins the exclusivity guard.
func TestChaosSweepRejectsActiveRegistry(t *testing.T) {
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1})
	t.Cleanup(chaos.Disable)
	if _, err := ChaosSweep(sweepSrc, ChaosConfig{}); err == nil {
		t.Fatal("ChaosSweep ran with the registry already enabled")
	}
}

// TestJudgeCatchesSilentWrongResult plants the failure class the sweep
// exists to catch: a run that "succeeds" with wrong output must be
// reported as silent-wrong-result, with the replay spec attached.
func TestJudgeCatchesSilentWrongResult(t *testing.T) {
	spec := chaos.Spec{Seed: 7, Rate: 0.05}
	naive := nascent.RunResult{Output: "2\n40\n"}
	rep := &ChaosReport{}
	rep.judge(spec, "planted@tree", evalpool.Result{
		Res: nascent.RunResult{Output: "2\n41\n"},
	}, naive)
	if rep.OK() {
		t.Fatal("wrong output passed the judge")
	}
	v := rep.Violations[0]
	if v.Kind != "silent-wrong-result" {
		t.Errorf("Kind = %q, want silent-wrong-result", v.Kind)
	}
	if !strings.Contains(v.String(), "-chaos "+spec.String()) {
		t.Errorf("violation lacks replay spec: %s", v)
	}

	// A missed trap is the same class.
	rep = &ChaosReport{}
	rep.judge(spec, "planted@tree", evalpool.Result{
		Res: nascent.RunResult{Output: "2\n"},
	}, nascent.RunResult{Output: "2\n", Trapped: true, TrapNote: "a(21)"})
	if rep.OK() || rep.Violations[0].Kind != "silent-wrong-result" {
		t.Fatalf("missed trap not flagged: %+v", rep.Violations)
	}
}

// TestJudgeClassifiesErrors pins the typed-failure taxonomy boundary:
// typed failures count as TypedErrors, anything else is a violation.
func TestJudgeClassifiesErrors(t *testing.T) {
	spec := chaos.Spec{Seed: 1, Rate: 0.05}
	naive := nascent.RunResult{Output: "ok\n"}

	rep := &ChaosReport{}
	rep.judge(spec, "typed@tree", evalpool.Result{
		Err: &nascent.InternalError{Stage: "optimize", Recovered: "boom"},
	}, naive)
	if !rep.OK() || rep.TypedErrors != 1 {
		t.Errorf("InternalError misjudged: violations=%v typed=%d", rep.Violations, rep.TypedErrors)
	}

	rep = &ChaosReport{}
	rep.judge(spec, "untyped@tree", evalpool.Result{
		Err: errors.New("mystery failure"),
	}, naive)
	if rep.OK() {
		t.Fatal("untyped error passed the judge")
	}
	if rep.Violations[0].Kind != "untyped-error" {
		t.Errorf("Kind = %q, want untyped-error", rep.Violations[0].Kind)
	}
}

// TestTypedFailureTaxonomy covers every allowed failure family.
func TestTypedFailureTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"injected", &chaos.InjectedError{Site: chaos.SiteParseError, Key: "k"}, true},
		{"internal", &nascent.InternalError{Stage: "lower", Recovered: "x"}, true},
		{"resource", nascent.ErrResourceExhausted, true},
		{"injected-message", errors.New("run: chaos: injected panic at tree.poll.panic"), true},
		{"plain", errors.New("plain failure"), false},
		{"none", nil, false},
	}
	for _, c := range cases {
		if got := typedFailure(c.err); got != c.want {
			t.Errorf("typedFailure(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
