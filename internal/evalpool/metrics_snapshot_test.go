package evalpool

import (
	"encoding/json"
	"testing"

	"nascent"
)

// TestMetricsSnapshotFields pins the wire field set of MetricsSnapshot.
// nascentd serves it at GET /metrics; removing or renaming a field is a
// breaking API change and must show up as a deliberate edit here.
func TestMetricsSnapshotFields(t *testing.T) {
	p := New(1)
	src := "program p\n  real a(4)\n  integer i\n  do i = 1, 4\n    a(i) = float(i)\n  enddo\n  print a(4)\nend\n"
	res := p.Evaluate([]Job{
		{Name: "snap", Source: src, Opts: nascent.Options{BoundsChecks: true}},
		{Name: "snap-vmjit", Source: src, Opts: nascent.Options{BoundsChecks: true},
			Run: nascent.RunConfig{Engine: nascent.EngineVMJit}},
	})
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("evaluate %d: %v", i, res[i].Err)
		}
	}
	raw, err := json.Marshal(p.Metrics().Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	want := []string{
		"jobs", "errors",
		"frontend_compiles", "frontend_hits",
		"frontend_time_ns", "compile_time_ns", "run_time_ns",
		"instructions", "checks", "shared_runs",
		"retries", "worker_deaths", "timeouts", "quarantined",
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("snapshot missing field %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("snapshot has %d fields, want %d: %v", len(m), len(want), m)
	}

	snap := p.Metrics().Snapshot()
	if snap.Jobs != 2 || snap.Errors != 0 {
		t.Errorf("jobs/errors = %d/%d, want 2/0", snap.Jobs, snap.Errors)
	}
	if snap.Checks == 0 || snap.Instructions == 0 {
		t.Errorf("counters not populated: %+v", snap)
	}
	if snap.SharedRuns != 0 {
		t.Errorf("shared runs = %d without a run memo, want 0", snap.SharedRuns)
	}
	if snap.Retries != 0 || snap.WorkerDeaths != 0 || snap.Timeouts != 0 || snap.Quarantined != 0 {
		t.Errorf("supervision counters nonzero on a clean run: %+v", snap)
	}
}
