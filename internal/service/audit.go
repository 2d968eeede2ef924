package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/progcache"
)

// Self-audit: a sampled, in-service differential check of production
// traffic. Every Config.AuditEvery-th successful /run on a non-tree
// engine is checked — off the hot path, on a background goroutine —
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
// The reference is deterministic in the request, so a clean fresh
// reference is memoized (auditMemo) and later samples of the same
// request shape compare against it without compiling or running
// anything. The memo only ever confirms: a sample that disagrees with
// a stored reference takes the fresh path, and the violation, its
// Diff and the breaker trip all come from that fresh reference. A
// stale or corrupted memo entry therefore costs one fresh reference,
// never a false violation.
//
// The service.audit.mismatch chaos site fires here, keyed by the
// served response's cache key, once the reference is in hand on
// either path: it corrupts the reference output after a healthy run
// (or fails the memo comparison, sending the audit down the fresh
// path where the same decision corrupts the fresh reference), drilling
// the whole detect-trip-degrade path without a real miscompile.

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
	// ReferenceSeconds is the summed wall time of the audits' fresh
	// reference compiles and tree runs: work done after the response,
	// which no request's latency shows.
	ReferenceSeconds float64 `json:"reference_seconds"`
	// ReferenceReused counts audits settled clean against a stored
	// reference, with no compile or run.
	ReferenceReused uint64 `json:"reference_reused"`
}

func (s *Server) auditSnapshot() auditStats {
	return auditStats{
		Every:      s.cfg.AuditEvery,
		Sampled:    s.nAuditSampled.Load(),
		Clean:      s.nAuditClean.Load(),
		Violations: s.nAuditViolations.Load(),
		Errors:     s.nAuditErrors.Load(),

		ReferenceSeconds: time.Duration(s.nAuditRefNanos.Load()).Seconds(),
		ReferenceReused:  s.nAuditReused.Load(),
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

// audit checks one served response against the reference
// configuration: against a stored reference when one matches it,
// otherwise by re-executing the request. Runs on its own goroutine
// under baseCtx: drain cancels it at the next engine poll point.
func (s *Server) audit(res *resolved, served *RunResponse) {
	defer s.auditWG.Done()
	defer func() {
		if rec := recover(); rec != nil {
			s.nAuditErrors.Add(1)
			s.cfg.Logf("nascentd: self-audit panic contained: %v", rec)
		}
	}()
	opts := res.opts
	opts.Filename = res.filename
	if opts.Filename == "" {
		opts.Filename = "input.mf"
	}
	key := auditKeyOf(res.source, opts, res.runCfg)
	// Each audit decides the chaos site at most once, on whichever
	// reference it compares first.
	decided, forced := false, false
	if ref, ok := s.auditRefs.get(key); ok {
		decided, forced = true, fireAuditMismatch(served)
		if !forced && ref.matches(served) {
			s.nAuditReused.Add(1)
			s.nAuditClean.Add(1)
			return
		}
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Ceilings.MaxTimeout)
	defer cancel()
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
	if prog.Opt == nil || len(prog.Opt.Degraded) == 0 {
		// Only a reference from a whole optimizer run is stored: a
		// degraded function kept its naive body, so its observables
		// speak for this compile, not for the request.
		s.auditRefs.put(key, refOf(ref))
	}
	if forced || (!decided && fireAuditMismatch(served)) {
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

// fireAuditMismatch decides the service.audit.mismatch site for one
// served response.
func fireAuditMismatch(served *RunResponse) bool {
	return chaos.Active() && chaos.Fire(chaos.SiteAuditMismatch, served.Compile.CacheKey)
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

// auditKey addresses one audit reference: everything that can change
// what the tree engine observes for a request. prog is the request's
// content address with the engine fixed to tree, so vmopt, vmrce and
// vmjit runs of one request share one reference; the clamped run
// limits follow it because a budget can truncate output or end a run.
type auditKey struct {
	prog            progcache.Key
	maxInstructions uint64
	maxOutputBytes  int
	maxArrayCells   int64
}

// auditKeyOf derives the audit key of one request; opts.Filename must
// already carry the resolved filename.
func auditKeyOf(source string, opts nascent.Options, cfg nascent.RunConfig) auditKey {
	return auditKey{
		prog:            progcache.KeyOf(source, opts.Filename, opts, nascent.EngineTree),
		maxInstructions: cfg.MaxInstructions,
		maxOutputBytes:  cfg.MaxOutputBytes,
		maxArrayCells:   cfg.MaxArrayCells,
	}
}

// auditRef is one stored reference outcome: the six compared
// observables, with the output kept as its sha256 digest so an entry
// is small whatever the output size.
type auditRef struct {
	output       [sha256.Size]byte
	instructions uint64
	checks       uint64
	trapped      bool
	trapNote     string
	trapClass    string
}

func refOf(r nascent.RunResult) auditRef {
	return auditRef{
		output:       sha256.Sum256([]byte(r.Output)),
		instructions: r.Instructions,
		checks:       r.Checks,
		trapped:      r.Trapped,
		trapNote:     r.TrapNote,
		trapClass:    string(r.TrapClass),
	}
}

// matches reports whether served shows exactly the stored observables.
func (r *auditRef) matches(served *RunResponse) bool {
	return r.instructions == served.Instructions &&
		r.checks == served.Checks &&
		r.trapped == served.Trapped &&
		r.trapNote == served.TrapNote &&
		r.trapClass == served.TrapClass &&
		r.output == sha256.Sum256([]byte(served.Output))
}

// auditMemo is the LRU of stored audit references, capped at
// Config.CacheEntries.
type auditMemo struct {
	mu  sync.Mutex
	max int
	m   map[auditKey]*list.Element
	lru *list.List // front = most recent; values are *auditMemoEntry
}

type auditMemoEntry struct {
	key auditKey
	ref auditRef
}

func newAuditMemo(max int) *auditMemo {
	return &auditMemo{max: max, m: make(map[auditKey]*list.Element), lru: list.New()}
}

// get returns the stored reference for key, touching it.
func (a *auditMemo) get(key auditKey) (auditRef, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.m[key]
	if !ok {
		return auditRef{}, false
	}
	a.lru.MoveToFront(el)
	return el.Value.(*auditMemoEntry).ref, true
}

// put stores (or replaces) the reference for key, evicting the least
// recently used entries beyond capacity.
func (a *auditMemo) put(key auditKey, ref auditRef) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.m[key]; ok {
		el.Value.(*auditMemoEntry).ref = ref
		a.lru.MoveToFront(el)
		return
	}
	a.m[key] = a.lru.PushFront(&auditMemoEntry{key: key, ref: ref})
	for a.lru.Len() > a.max {
		back := a.lru.Back()
		delete(a.m, back.Value.(*auditMemoEntry).key)
		a.lru.Remove(back)
	}
}

// len reports how many references are stored.
func (a *auditMemo) len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}

// settleAudits waits for every in-flight background audit; tests use
// it to observe audit counters deterministically.
func (s *Server) settleAudits() { s.auditWG.Wait() }
