package service

import (
	"net/http"
	"testing"

	"nascent"
	"nascent/internal/chaos"
)

// runVMOpt posts one /run for progOK on (ALL, vmopt) and returns the
// response.
func runVMOpt(t *testing.T, s *Server) *RunResponse {
	t.Helper()
	req := RunRequest{CompileRequest: CompileRequest{
		Source:  progOK,
		Options: Options{Scheme: "all"},
		Engine:  "vmopt",
	}}
	var resp RunResponse
	w := do(t, s, "POST", "/run", req, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("run status = %d, body %s", w.Code, w.Body.String())
	}
	return &resp
}

// TestSelfAuditCleanPass: with AuditEvery=1 every non-tree run is
// re-executed on the reference engine; identical observables count as
// clean, and a trapped run audits clean too (a trap is an observable,
// not a failure).
func TestSelfAuditCleanPass(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	runVMOpt(t, s)

	trap := RunRequest{CompileRequest: CompileRequest{
		Source:  progTrap,
		Options: Options{Scheme: "all"},
		Engine:  "vmopt",
	}}
	var trapResp RunResponse
	if w := do(t, s, "POST", "/run", trap, &trapResp); w.Code != http.StatusOK {
		t.Fatalf("trap run status = %d, body %s", w.Code, w.Body.String())
	}
	if !trapResp.Trapped {
		t.Fatal("checked out-of-range run did not trap")
	}

	// Tree-engine runs are never sampled: the reference auditing
	// itself proves nothing.
	tree := RunRequest{CompileRequest: CompileRequest{Source: progOK, Engine: "tree"}}
	if w := do(t, s, "POST", "/run", tree, nil); w.Code != http.StatusOK {
		t.Fatalf("tree run status = %d", w.Code)
	}

	s.settleAudits()
	a := s.auditSnapshot()
	if a.Sampled != 2 || a.Clean != 2 || a.Violations != 0 || a.Errors != 0 {
		t.Fatalf("audit counters = %+v, want 2 sampled, 2 clean", a)
	}
}

// TestSelfAuditSampling: AuditEvery=2 samples every other eligible run.
func TestSelfAuditSampling(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 2 })
	for i := 0; i < 4; i++ {
		runVMOpt(t, s)
	}
	s.settleAudits()
	if a := s.auditSnapshot(); a.Sampled != 2 {
		t.Fatalf("audit sampled = %d of 4 runs at every=2, want 2 (%+v)", a.Sampled, a)
	}
}

// TestSelfAuditDisabledByDefault: Config{} never audits.
func TestSelfAuditDisabledByDefault(t *testing.T) {
	s := newTestServer(t, nil)
	runVMOpt(t, s)
	s.settleAudits()
	if a := s.auditSnapshot(); a.Every != 0 || a.Sampled != 0 {
		t.Fatalf("audit ran while disabled: %+v", a)
	}
}

// TestSelfAuditChaosViolation arms service.audit.mismatch: the audit
// observes a divergent reference output for a response that was in
// fact correct, records a SelfAuditViolation, and trips the served
// pair's breaker so the next request degrades to the reference
// configuration.
func TestSelfAuditChaosViolation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteAuditMismatch})
	defer chaos.Disable()

	runVMOpt(t, s)
	s.settleAudits()
	chaos.Disable()

	a := s.auditSnapshot()
	if a.Violations != 1 || a.Clean != 0 || a.Errors != 0 {
		t.Fatalf("audit counters = %+v, want exactly 1 violation", a)
	}
	if !s.breaker.isOpen(nascent.ALL, nascent.EngineVMOpt) {
		t.Fatal("violation did not trip the (ALL, vmopt) breaker")
	}

	// The pair now serves degraded on the reference configuration.
	resp := runVMOpt(t, s)
	if resp.Compile.Degraded == nil {
		t.Fatal("post-violation run was not degraded")
	}
	if resp.Compile.Engine != "tree" {
		t.Fatalf("post-violation run served on %q, want tree", resp.Compile.Engine)
	}

	// A degraded (tree) run is not audited, so the counters are stable.
	s.settleAudits()
	if a := s.auditSnapshot(); a.Sampled != 1 {
		t.Fatalf("degraded run was sampled: %+v", a)
	}
}

// TestSelfAuditViolationError pins the typed error's rendering.
func TestSelfAuditViolationError(t *testing.T) {
	var err error = &SelfAuditViolation{CacheKey: "abc", Scheme: "ALL", Engine: "vmopt", Diff: "checks: served 1, reference 2"}
	want := "service: self-audit violation on ALL/vmopt (key abc): checks: served 1, reference 2"
	if err.Error() != want {
		t.Fatalf("violation error = %q, want %q", err.Error(), want)
	}
}
