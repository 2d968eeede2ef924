package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/vm"
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

// runReq posts one /run and fails the test unless it returns 200.
func runReq(t *testing.T, s *Server, req RunRequest) *RunResponse {
	t.Helper()
	var resp RunResponse
	if w := do(t, s, "POST", "/run", req, &resp); w.Code != http.StatusOK {
		t.Fatalf("run status = %d, body %s", w.Code, w.Body.String())
	}
	return &resp
}

// settled waits for every background audit and checks that each
// sampled response was settled exactly once.
func settled(t *testing.T, s *Server) auditStats {
	t.Helper()
	s.settleAudits()
	a := s.auditSnapshot()
	if a.Sampled != a.Clean+a.Violations+a.Errors {
		t.Fatalf("audit counters = %+v: sampled != clean + violations + errors", a)
	}
	return a
}

// TestSelfAuditReusesReference: a second sample of one request settles
// clean against the stored reference, with no fresh reference work.
func TestSelfAuditReusesReference(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	runVMOpt(t, s)
	first := settled(t, s)
	if first.Clean != 1 || first.ReferenceReused != 0 || s.auditRefs.len() != 1 {
		t.Fatalf("after one audit: %+v, %d stored, want 1 clean, 0 reused, 1 stored", first, s.auditRefs.len())
	}
	refNanos := s.nAuditRefNanos.Load()

	runVMOpt(t, s)
	a := settled(t, s)
	if a.Sampled != 2 || a.Clean != 2 || a.ReferenceReused != 1 {
		t.Fatalf("after a repeat audit: %+v, want 2 clean, 1 reused", a)
	}
	if got := s.nAuditRefNanos.Load(); got != refNanos {
		t.Fatalf("reference nanos moved %d -> %d on a reused reference", refNanos, got)
	}
}

// TestSelfAuditReferenceKey: every request field that can change the
// reference gets its own stored reference; the engine does not.
func TestSelfAuditReferenceKey(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	base := RunRequest{CompileRequest: CompileRequest{
		Source:  progOK,
		Options: Options{Scheme: "all"},
		Engine:  "vmopt",
	}}
	variants := []func(r *RunRequest){
		func(r *RunRequest) {},
		func(r *RunRequest) { r.Filename = "other.mf" },
		func(r *RunRequest) { r.Options.Scheme = "lls" },
		func(r *RunRequest) { r.Options.Kind = "inx" },
		func(r *RunRequest) { r.Options.Implications = "none" },
		func(r *RunRequest) { r.Options.RotateLoops = true },
		func(r *RunRequest) { r.Budget.MaxInstructions = 1_000_000 },
		func(r *RunRequest) { r.Budget.MaxOutputBytes = 4096 },
	}
	for i, mut := range variants {
		req := base
		mut(&req)
		runReq(t, s, req)
		a := settled(t, s)
		if n := s.auditRefs.len(); n != i+1 || a.ReferenceReused != 0 {
			t.Fatalf("variant %d: %d stored, %d reused; want %d stored, 0 reused", i, n, a.ReferenceReused, i+1)
		}
	}

	// vmrce and vmjit runs of the base request settle against the
	// reference its vmopt run stored.
	for _, engine := range []string{"vmrce", "vmjit"} {
		req := base
		req.Engine = engine
		runReq(t, s, req)
	}
	a := settled(t, s)
	if a.ReferenceReused != 2 || a.Violations != 0 || s.auditRefs.len() != len(variants) {
		t.Fatalf("engine variants: %+v, %d stored; want 2 reused, %d stored", a, s.auditRefs.len(), len(variants))
	}
}

// TestSelfAuditMemoBound: the reference memo holds at most
// Config.CacheEntries references.
func TestSelfAuditMemoBound(t *testing.T) {
	const entries = 4
	s := newTestServer(t, func(c *Config) {
		c.AuditEvery = 1
		c.CacheEntries = entries
	})
	for i := 0; i < entries+8; i++ {
		runReq(t, s, RunRequest{CompileRequest: CompileRequest{
			Source:   progOK,
			Filename: fmt.Sprintf("f%d.mf", i),
			Engine:   "vmopt",
		}})
	}
	if a := settled(t, s); a.Clean != entries+8 {
		t.Fatalf("audit counters = %+v, want %d clean", a, entries+8)
	}
	if n := s.auditRefs.len(); n > entries {
		t.Fatalf("memo holds %d references after %d keys, cap %d", n, entries+8, entries)
	}
}

// TestSelfAuditConcurrentSamples: audits of concurrent requests share
// and evict stored references without a false violation; the memo
// stays within its cap.
func TestSelfAuditConcurrentSamples(t *testing.T) {
	const entries = 2
	s := newTestServer(t, func(c *Config) {
		c.AuditEvery = 1
		c.CacheEntries = entries
	})
	var wg sync.WaitGroup
	const clients, runs = 4, 6
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				req := RunRequest{CompileRequest: CompileRequest{
					Source:   progOK,
					Filename: fmt.Sprintf("f%d.mf", (c+i)%3),
					Options:  Options{Scheme: "all"},
					Engine:   []string{"vmopt", "vmrce"}[i%2],
				}}
				raw, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/run", bytes.NewReader(raw)))
				if w.Code != http.StatusOK {
					t.Errorf("run status = %d, body %s", w.Code, w.Body.String())
				}
			}
		}(c)
	}
	wg.Wait()
	a := settled(t, s)
	if a.Sampled != clients*runs || a.Clean != a.Sampled {
		t.Fatalf("audit counters = %+v, want %d clean", a, clients*runs)
	}
	if n := s.auditRefs.len(); n > entries {
		t.Fatalf("memo holds %d references, cap %d", n, entries)
	}
}

// TestSelfAuditSkipsDegradedReference: a reference whose compile
// degraded a function is compared but never stored.
func TestSelfAuditSkipsDegradedReference(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 2 })
	// The first run is not sampled; it fills the compile cache so the
	// second serves without compiling and only the audit's reference
	// compile meets the armed site.
	runVMOpt(t, s)
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteOptPanic})
	defer chaos.Disable()
	runVMOpt(t, s)
	a := settled(t, s)
	chaos.Disable()
	if a.Sampled != 1 {
		t.Fatalf("audit counters = %+v, want 1 sampled", a)
	}
	if n := s.auditRefs.len(); n != 0 {
		t.Fatalf("a degraded reference was stored (%d entries)", n)
	}
}

// TestSelfAuditSkipsBudgetedReference: a reference run that hits its
// budget is an audit error and stores nothing.
func TestSelfAuditSkipsBudgetedReference(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	served := runVMOpt(t, s)
	settled(t, s)
	res, apiErr := s.resolve(&RunRequest{
		CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: "all"}, Engine: "vmopt"},
		Budget:         Budget{MaxInstructions: 5},
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	s.maybeAudit(res, served)
	a := settled(t, s)
	if a.Errors != 1 || a.Clean != 1 {
		t.Fatalf("audit counters = %+v, want 1 clean and 1 error", a)
	}
	if n := s.auditRefs.len(); n != 1 {
		t.Fatalf("memo holds %d references, want only the unbudgeted one", n)
	}
}

// TestSelfAuditChaosViolationStoredReference: the forged divergence
// still trips the breaker when a stored reference is in hand, and the
// violation comes from a fresh reference with one chaos decision.
func TestSelfAuditChaosViolationStoredReference(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	runVMOpt(t, s)
	settled(t, s)
	refNanos := s.nAuditRefNanos.Load()

	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteAuditMismatch})
	defer chaos.Disable()
	runVMOpt(t, s)
	a := settled(t, s)
	fired := chaos.Fired()
	chaos.Disable()

	if a.Violations != 1 || a.Clean != 1 || a.ReferenceReused != 0 {
		t.Fatalf("audit counters = %+v, want 1 clean then 1 violation", a)
	}
	if fired != 1 {
		t.Fatalf("chaos fired %d times for one audit, want 1", fired)
	}
	if s.nAuditRefNanos.Load() == refNanos {
		t.Fatal("violation recorded without a fresh reference")
	}
	if !s.breaker.isOpen(nascent.ALL, nascent.EngineVMOpt) {
		t.Fatal("violation did not trip the (ALL, vmopt) breaker")
	}
}

// TestSelfAuditCatchesCorruptEntry: a memory-cache entry swapped for a
// program compiled under another scheme — valid bytecode, wrong check
// count — is caught by the next sampled run. The stored reference
// sends the audit down the fresh path, which records the violation
// and trips the pair's breaker.
func TestSelfAuditCatchesCorruptEntry(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AuditEvery = 1 })
	served := runVMOpt(t, s)
	if a := settled(t, s); a.Clean != 1 || s.auditRefs.len() != 1 {
		t.Fatalf("first audit: %+v, %d stored; want 1 clean, 1 stored", a, s.auditRefs.len())
	}
	refNanos := s.nAuditRefNanos.Load()

	naive, err := nascent.Compile(progOK, nascent.Options{Filename: "input.mf", BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := vm.CompileEngine(naive.IR, nascent.EngineVMOpt)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	if len(s.cache.entries) != 1 {
		s.cache.mu.Unlock()
		t.Fatalf("cache holds %d entries, want 1", len(s.cache.entries))
	}
	for _, e := range s.cache.entries {
		e.c.vmProg = wrong
	}
	s.cache.mu.Unlock()

	corrupt := runVMOpt(t, s)
	if corrupt.Checks == served.Checks {
		t.Fatalf("swapped entry ran %d checks, same as the ALL program", corrupt.Checks)
	}
	a := settled(t, s)
	if a.Violations != 1 || a.Clean != 1 || a.ReferenceReused != 0 {
		t.Fatalf("audit counters = %+v, want 1 clean then 1 violation", a)
	}
	if s.nAuditRefNanos.Load() == refNanos {
		t.Fatal("reference_seconds did not grow: the violation skipped the fresh reference")
	}
	if !s.breaker.isOpen(nascent.ALL, nascent.EngineVMOpt) {
		t.Fatal("violation did not trip the (ALL, vmopt) breaker")
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
