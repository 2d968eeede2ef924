package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// assertFields pins one wire object's exact field set, following the
// evalpool MetricsSnapshot convention: marshal to a map, require every
// expected key, and require no extras. Removing or renaming a field is
// a breaking API change and must show up as a deliberate edit here.
func assertFields(t *testing.T, label string, v any, want []string) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("%s missing field %q", label, k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("%s has %d fields, want %d: %v", label, len(m), len(want), m)
	}
}

// TestMetricsDocFields pins the field set of GET /metrics, top level
// and every section, with every optional section populated.
func TestMetricsDocFields(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.ProgCacheDir = t.TempDir()
		c.AuditEvery = 1
	})
	// A vmjit run populates one audit sample.
	req := RunRequest{CompileRequest: CompileRequest{Source: progOK, Engine: "vmjit"}}
	if w := do(t, s, "POST", "/run", req, nil); w.Code != http.StatusOK {
		t.Fatalf("run status = %d, body %s", w.Code, w.Body.String())
	}
	s.settleAudits()

	var m map[string]any
	if w := do(t, s, "GET", "/metrics", nil, &m); w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	want := []string{
		"uptime_ms", "draining", "requests", "admission", "cache",
		"disk_cache", "breaker", "pool", "audit", "chaos",
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing field %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("metrics has %d fields, want %d: %v", len(m), len(want), m)
	}

	audit, _ := m["audit"].(map[string]any)
	assertFields(t, "audit", audit, []string{"every", "sampled", "clean", "violations", "errors", "reference_seconds", "reference_reused"})
	if audit["sampled"].(float64) != 1 || audit["clean"].(float64) != 1 {
		t.Errorf("audit section = %v, want one clean sample", audit)
	}
	if audit["reference_seconds"].(float64) <= 0 {
		t.Errorf("audit.reference_seconds = %v after one audit, want > 0", audit["reference_seconds"])
	}

	requests, _ := m["requests"].(map[string]any)
	assertFields(t, "requests", requests, []string{
		"compile", "run", "verify", "report", "drill",
		"errors_4xx", "errors_5xx", "contained_panics",
	})

	// The pool section is evalpool's MetricsSnapshot. /run jobs are
	// Precompiled and never consult a run memo, so shared_runs stays 0.
	pool, _ := m["pool"].(map[string]any)
	assertFields(t, "pool", pool, []string{
		"jobs", "errors",
		"frontend_compiles", "frontend_hits",
		"frontend_time_ns", "compile_time_ns", "run_time_ns",
		"instructions", "checks", "shared_runs",
	})
	if pool["shared_runs"].(float64) != 0 {
		t.Errorf("pool.shared_runs = %v after a /run, want 0", pool["shared_runs"])
	}

	disk, _ := m["disk_cache"].(map[string]any)
	assertFields(t, "disk_cache", disk, []string{
		"hits", "misses", "corrupt", "bad_version", "puts", "write_errors",
	})

	admission, _ := m["admission"].(map[string]any)
	assertFields(t, "admission", admission, []string{
		"max_concurrent", "max_queue", "in_flight", "queued", "admitted", "shed",
	})
	cache, _ := m["cache"].(map[string]any)
	assertFields(t, "cache", cache, []string{"entries", "capacity", "hits", "misses", "evictions"})
	// breaker.open is omitted while no pair is tripped.
	breaker, _ := m["breaker"].(map[string]any)
	assertFields(t, "breaker", breaker, []string{"cooldown_ms", "trips", "degraded"})
	// chaos.spec is omitted while no spec is armed.
	chaosSec, _ := m["chaos"].(map[string]any)
	assertFields(t, "chaos", chaosSec, []string{"active", "fired"})
}

// TestHealthzFields pins GET /healthz's exact field set.
func TestHealthzFields(t *testing.T) {
	s := newTestServer(t, nil)
	var m map[string]any
	if w := do(t, s, "GET", "/healthz", nil, &m); w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", w.Code)
	}
	assertFields(t, "healthz", m, []string{"status", "uptime_ms", "in_flight", "queued"})
}
