package service

import (
	"context"
	"fmt"
	"time"

	"nascent"
	"nascent/internal/chaos"
)

// Self-audit: a sampled, in-service differential check of production
// traffic. Every Config.AuditEvery-th successful /run on a non-tree
// engine is re-executed — off the hot path, on a background goroutine —
// against a fresh compile on the tree reference engine, and the six
// observable fields (output, instruction count, check count, trap
// state, trap note, trap class) are compared. The fresh compile is
// deliberately independent of every cache layer (in-memory, disk,
// pool frontend memo), so the audit catches not just engine
// divergence but a corrupted or stale cache entry serving wrong
// results with a valid checksum.
//
// A divergence is a SelfAuditViolation: the violation counter moves,
// the served (scheme, engine) pair's circuit is tripped open so
// subsequent traffic degrades to the reference configuration, and the
// violation is logged with enough detail to reproduce. A reference
// run that itself fails (budget, cancellation) is inconclusive — an
// audit error, never a violation.
//
// The service.audit.mismatch chaos site fires here, keyed by the
// served response's cache key: it corrupts the reference output after
// a healthy comparison run, drilling the whole detect-trip-degrade
// path without a real miscompile.

// SelfAuditViolation reports that a sampled production response
// diverged from a fresh reference execution of the same request. Its
// existence in a log or metrics stream means the service served a
// wrong answer — the breaker trip that accompanies it is damage
// control, not a fix.
type SelfAuditViolation struct {
	// CacheKey is the content address of the audited request.
	CacheKey string
	// Scheme / Engine are the served (post-degradation) configuration.
	Scheme string
	Engine string
	// Diff names the first diverging field, with both values.
	Diff string
}

func (e *SelfAuditViolation) Error() string {
	return fmt.Sprintf("service: self-audit violation on %s/%s (key %s): %s",
		e.Scheme, e.Engine, e.CacheKey, e.Diff)
}

// auditStats is the audit section of GET /metrics.
type auditStats struct {
	// Every echoes Config.AuditEvery (0 = auditing disabled).
	Every int `json:"every"`
	// Sampled counts runs selected for audit; Clean + Violations +
	// Errors converges on it as background audits complete.
	Sampled    uint64 `json:"sampled"`
	Clean      uint64 `json:"clean"`
	Violations uint64 `json:"violations"`
	Errors     uint64 `json:"errors"`
	// ReferenceSeconds is the summed wall time of the audits'
	// reference compiles and tree runs: work done after the response,
	// which no request's latency shows.
	ReferenceSeconds float64 `json:"reference_seconds"`
}

func (s *Server) auditSnapshot() auditStats {
	return auditStats{
		Every:      s.cfg.AuditEvery,
		Sampled:    s.nAuditSampled.Load(),
		Clean:      s.nAuditClean.Load(),
		Violations: s.nAuditViolations.Load(),
		Errors:     s.nAuditErrors.Load(),

		ReferenceSeconds: time.Duration(s.nAuditRefNanos.Load()).Seconds(),
	}
}

// maybeAudit samples one successful /run response for self-audit. The
// caller still holds its in-flight registration, which orders the
// auditWG.Add here before Drain's auditWG.Wait.
func (s *Server) maybeAudit(res *resolved, resp *RunResponse) {
	every := s.cfg.AuditEvery
	if every <= 0 || res.engine == nascent.EngineTree {
		// The reference engine auditing itself proves nothing.
		return
	}
	if s.auditTick.Add(1)%uint64(every) != 0 {
		return
	}
	s.nAuditSampled.Add(1)
	s.auditWG.Add(1)
	go s.audit(res, resp)
}

// audit re-executes one served request on the reference configuration
// and compares observables. Runs on its own goroutine under baseCtx:
// drain cancels it at the next engine poll point.
func (s *Server) audit(res *resolved, served *RunResponse) {
	defer s.auditWG.Done()
	defer func() {
		if rec := recover(); rec != nil {
			s.nAuditErrors.Add(1)
			s.cfg.Logf("nascentd: self-audit panic contained: %v", rec)
		}
	}()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Ceilings.MaxTimeout)
	defer cancel()

	opts := res.opts
	opts.Filename = res.filename
	if opts.Filename == "" {
		opts.Filename = "input.mf"
	}
	start := time.Now()
	prog, err := nascent.Compile(res.source, opts)
	if err != nil {
		s.nAuditRefNanos.Add(int64(time.Since(start)))
		// The served run compiled this same (source, opts); a fresh
		// compile failing is itself suspicious, but inconclusive.
		s.nAuditErrors.Add(1)
		s.cfg.Logf("nascentd: self-audit reference compile failed (key %s): %v", served.Compile.CacheKey, err)
		return
	}
	runCfg := res.runCfg
	runCfg.Engine = nascent.EngineTree
	runCfg.Context = ctx
	ref, err := prog.RunWith(runCfg)
	s.nAuditRefNanos.Add(int64(time.Since(start)))
	if err != nil {
		if s.draining.Load() {
			return // drain cancelled the audit: abandoned, not an error
		}
		s.nAuditErrors.Add(1)
		s.cfg.Logf("nascentd: self-audit reference run failed (key %s): %v", served.Compile.CacheKey, err)
		return
	}
	if chaos.Active() && chaos.Fire(chaos.SiteAuditMismatch, served.Compile.CacheKey) {
		ref.Output += "\x00chaos: forced audit divergence"
	}
	if d := diffAudit(served, ref); d != "" {
		v := &SelfAuditViolation{
			CacheKey: served.Compile.CacheKey,
			Scheme:   res.opts.Scheme.String(),
			Engine:   res.engine.String(),
			Diff:     d,
		}
		s.nAuditViolations.Add(1)
		s.breaker.trip(res.opts.Scheme, res.engine)
		s.cfg.Logf("nascentd: %v", v)
		return
	}
	s.nAuditClean.Add(1)
}

// diffAudit compares the served response against the reference result
// and names the first diverging observable ("" when identical). The
// serve path and the reference run share the same clamped RunConfig,
// so output truncation and budget behavior cannot alias a divergence.
func diffAudit(served *RunResponse, ref nascent.RunResult) string {
	switch {
	case served.Output != ref.Output:
		return fmt.Sprintf("output: served %q, reference %q", served.Output, ref.Output)
	case served.Instructions != ref.Instructions:
		return fmt.Sprintf("instructions: served %d, reference %d", served.Instructions, ref.Instructions)
	case served.Checks != ref.Checks:
		return fmt.Sprintf("checks: served %d, reference %d", served.Checks, ref.Checks)
	case served.Trapped != ref.Trapped:
		return fmt.Sprintf("trapped: served %v, reference %v", served.Trapped, ref.Trapped)
	case served.TrapNote != ref.TrapNote:
		return fmt.Sprintf("trap_note: served %q, reference %q", served.TrapNote, ref.TrapNote)
	case served.TrapClass != string(ref.TrapClass):
		return fmt.Sprintf("trap_class: served %q, reference %q", served.TrapClass, ref.TrapClass)
	}
	return ""
}

// settleAudits waits for every in-flight background audit; tests use
// it to observe audit counters deterministically.
func (s *Server) settleAudits() { s.auditWG.Wait() }
