package service

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/oracle"
	"nascent/internal/progcache"
	"nascent/internal/report"
)

// validateSource enforces the presence and size limits on program text.
func (s *Server) validateSource(source string) *Error {
	if source == "" {
		return usageError("source is required")
	}
	if len(source) > s.cfg.MaxSourceBytes {
		return &Error{Class: ClassTooLarge, Status: http.StatusRequestEntityTooLarge, NaccExit: 2,
			Message: fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes)}
	}
	return nil
}

// wireOptReport converts an optimizer report to wire form.
func wireOptReport(o *nascent.OptReport) *OptReport {
	if o == nil {
		return nil
	}
	return &OptReport{
		ChecksBefore:    o.ChecksBefore,
		ChecksAfter:     o.ChecksAfter,
		Inserted:        o.Inserted,
		EliminatedAvail: o.EliminatedAvail,
		EliminatedCover: o.EliminatedCover,
		EliminatedConst: o.EliminatedConst,
		TrapsInserted:   o.TrapsInserted,
		Diagnostics:     o.Diagnostics,
		Degraded:        o.Degraded,
	}
}

// classifyRunErr maps a run failure to a typed wire error.
func classifyRunErr(err error) *Error {
	var res *interp.ResourceError
	if errors.As(err, &res) {
		status := http.StatusRequestTimeout
		return &Error{
			Class:    ClassResource,
			Message:  err.Error(),
			Status:   status,
			NaccExit: 4,
			Resource: res.Resource.String(),
		}
	}
	if errors.Is(err, guard.ErrInternal) {
		return &Error{Class: ClassInternal, Message: err.Error(), Status: http.StatusInternalServerError, NaccExit: -1}
	}
	// Any other run-stage failure is a runtime fault of the program
	// (nacc exit 1), the tenant's problem; anything else from the
	// pipeline is a compile failure (nacc exit 3).
	var run *evalpool.RunError
	if errors.As(err, &run) {
		return &Error{Class: ClassFault, Message: err.Error(), Status: http.StatusUnprocessableEntity, NaccExit: 1}
	}
	return &Error{Class: ClassCompile, Message: err.Error(), Status: http.StatusUnprocessableEntity, NaccExit: 3}
}

// classifyCompileErr maps a compile failure to a typed wire error.
func classifyCompileErr(err error) *Error {
	if errors.Is(err, guard.ErrInternal) {
		return &Error{Class: ClassInternal, Message: err.Error(), Status: http.StatusInternalServerError, NaccExit: -1}
	}
	return &Error{Class: ClassCompile, Message: err.Error(), Status: http.StatusUnprocessableEntity, NaccExit: 3}
}

// resolved is one validated, breaker-routed request configuration.
type resolved struct {
	source   string
	filename string
	opts     nascent.Options
	engine   nascent.Engine
	runCfg   nascent.RunConfig
	timeout  time.Duration
	degraded *Degraded
}

// resolve validates a run request, clamps its budget, and routes it
// through the circuit breaker.
func (s *Server) resolve(req *RunRequest) (*resolved, *Error) {
	if apiErr := s.validateSource(req.Source); apiErr != nil {
		return nil, apiErr
	}
	opts, apiErr := parseOptions(req.Options)
	if apiErr != nil {
		return nil, apiErr
	}
	engine, apiErr := parseEngine(req.Engine)
	if apiErr != nil {
		return nil, apiErr
	}
	runCfg, timeout, apiErr := s.clampBudget(req.Budget)
	if apiErr != nil {
		return nil, apiErr
	}
	r := &resolved{
		source:   req.Source,
		filename: req.Filename,
		opts:     opts,
		engine:   engine,
		runCfg:   runCfg,
		timeout:  timeout,
	}
	if s.breaker.allow(opts.Scheme, engine) {
		// A tripped pair degrades to the reference configuration. Every
		// bytecode engine name runs the same pipeline, so no other
		// bytecode rung would serve different code.
		r.opts.Scheme, r.engine = nascent.Naive, nascent.EngineTree
		r.degraded = &Degraded{
			FromScheme: opts.Scheme.String(),
			FromEngine: engine.String(),
			ToScheme:   r.opts.Scheme.String(),
			ToEngine:   r.engine.String(),
			Reason:     "circuit open: the self-audit caught a wrong answer on this (scheme, engine) pair",
		}
	}
	return r, nil
}

// handleCompile serves POST /compile: compile (through the cache) and
// report what the optimizer did, without running.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.nCompile.Add(1)
	var req CompileRequest
	if apiErr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	rr := RunRequest{CompileRequest: req}
	res, apiErr := s.resolve(&rr)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	release, apiErr := s.admit(r.Context())
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	defer release()

	c, key, hit, err := s.compile(res.source, res.filename, res.opts, res.engine)
	if err != nil {
		s.fail(w, classifyCompileErr(err))
		return
	}
	writeJSON(w, http.StatusOK, s.compileResponse(c, key, hit, res))
}

func (s *Server) compileResponse(c *compiled, key cacheKey, hit bool, res *resolved) CompileResponse {
	return CompileResponse{
		CacheKey:     key.String(),
		CacheHit:     hit,
		Scheme:       res.opts.Scheme.String(),
		Engine:       res.engine.String(),
		StaticChecks: c.staticChecks,
		Opt:          wireOptReport(c.opt),
		Degraded:     res.degraded,
	}
}

// handleRun serves POST /run: compile through the cache, execute on the
// pool with the clamped budget and deadline.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.nRun.Add(1)
	var req RunRequest
	if apiErr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	res, apiErr := s.resolve(&req)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	release, apiErr := s.admit(r.Context())
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	defer release()

	resp, apiErr := s.execute(r, res, req.NoCache, "run")
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// execute runs one resolved request to completion, once, under its
// request deadline. Admission must already be held.
func (s *Server) execute(r *http.Request, res *resolved, noCache bool, jobName string) (*RunResponse, *Error) {
	ctx, cancel := s.runCtx(r, res.timeout)
	defer cancel()

	job := evalpool.Job{
		Name:     jobName,
		Source:   res.source,
		Filename: res.filename,
		Opts:     res.opts,
		Run:      res.runCfg,
	}
	job.Run.Engine = res.engine

	var (
		c   *compiled
		key cacheKey
		hit bool
		err error
	)
	if noCache {
		// No store is read or filled: the pool compiles the job itself
		// (SubmitCtx skips its frontend memo), so drill injection
		// reaches every compile stage.
		key = contentKey(res.source, res.filename, res.opts, res.engine)
	} else {
		c, key, hit, err = s.compile(res.source, res.filename, res.opts, res.engine)
		if err != nil {
			return nil, classifyCompileErr(err)
		}
		job.Precompiled = c
	}

	result := s.pool.SubmitCtx(ctx, job)
	if result.Err != nil {
		return nil, classifyRunErr(result.Err)
	}

	if c == nil {
		// no-cache path: the pool compiled it; synthesize the compile
		// section from the job's own program.
		c = &compiled{prog: result.Prog}
		if result.Prog != nil {
			c.staticChecks = result.Prog.StaticChecks()
			c.opt = result.Prog.Opt
		}
	}
	resp := &RunResponse{
		Compile:      s.compileResponse(c, key, hit, res),
		Output:       result.Res.Output,
		Instructions: result.Res.Instructions,
		Checks:       result.Res.Checks,
		Trapped:      result.Res.Trapped,
		TrapNote:     result.Res.TrapNote,
		TrapClass:    string(result.Res.TrapClass),
	}
	if resp.Trapped {
		resp.NaccExit = 1
	}
	if jobName == "run" {
		// Organic /run traffic only: drills run under armed injection
		// and would audit the fault, not the service.
		s.maybeAudit(res, resp)
	}
	return resp, nil
}

// handleVerify serves POST /verify: the differential soundness oracle
// over every scheme×kind×implication×rotation variant, with the
// engine-identity sweep for bytecode engines.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.nVerify.Add(1)
	var req VerifyRequest
	if apiErr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	if apiErr := s.validateSource(req.Source); apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	engine, apiErr := parseEngine(req.Engine)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	release, apiErr := s.admit(r.Context())
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	defer release()

	ctx, cancel := s.runCtx(r, s.cfg.Ceilings.MaxTimeout)
	defer cancel()

	cfg := oracle.Config{Jobs: runtime.GOMAXPROCS(0)}
	// Every oracle variant runs under the server ceilings: a verify of a
	// pathological program must exhaust a budget, not the service.
	cfg.Run, _, _ = s.clampBudget(Budget{})
	cfg.Run.Context = ctx
	if engine != nascent.EngineTree {
		// Identity-sweep every engine up to the requested one, in
		// engine order: verifying vmjit also cross-checks vmopt and
		// vmrce.
		for _, e := range nascent.AllEngines() {
			if e <= engine {
				cfg.Engines = append(cfg.Engines, e)
			}
		}
	}
	rep, err := oracle.Verify(req.Source, cfg)
	if err != nil {
		if errors.Is(err, nascent.ErrResourceExhausted) {
			s.fail(w, classifyRunErr(err))
			return
		}
		s.fail(w, classifyCompileErr(err))
		return
	}
	resp := VerifyResponse{OK: rep.OK(), Summary: rep.Summary()}
	for _, d := range rep.Divergences {
		resp.Divergences = append(resp.Divergences, d.String())
	}
	if !resp.OK {
		resp.NaccExit = 5
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReport serves GET /report?table=1|2|3[&engine=E]: the paper's tables,
// measured on the service's shared pool (front ends memoized across
// requests), as structured JSON with the canonical text rendering
// embedded.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.nReport.Add(1)
	table := 1
	if t := r.URL.Query().Get("table"); t != "" {
		switch t {
		case "1", "2", "3":
			table = int(t[0] - '0')
		default:
			s.fail(w, usageError("bad table %q (want 1, 2, or 3)", t))
			return
		}
	}
	// With no engine the tables follow the report default, the
	// bytecode pipeline; engine=tree selects the reference engine.
	engine := nascent.EngineVMOpt
	if e := r.URL.Query().Get("engine"); e != "" {
		var apiErr *Error
		if engine, apiErr = parseEngine(e); apiErr != nil {
			s.fail(w, apiErr)
			return
		}
	}
	release, apiErr := s.admit(r.Context())
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	defer release()

	runner := report.NewOnPool(s.pool, report.Config{Tree: engine == nascent.EngineTree})
	doc, err := runner.Doc(table)
	if err != nil && doc == nil {
		s.fail(w, &Error{Class: ClassInternal, Message: err.Error(), Status: http.StatusInternalServerError, NaccExit: -1})
		return
	}
	// Partial tables (some cells errored) still serve: the doc carries
	// the per-cell errors, mirroring rangebench's partial-results mode.
	writeJSON(w, http.StatusOK, doc)
}

// healthDoc is the body of GET /healthz.
type healthDoc struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
	InFlight int    `json:"in_flight"`
	Queued   int64  `json:"queued"`
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.limiter.stats()
	doc := healthDoc{Status: "ok", UptimeMS: s.uptime().Milliseconds(), InFlight: st.InFlight, Queued: st.Queued}
	status := http.StatusOK
	if s.draining.Load() {
		doc.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

// metricsDoc is the body of GET /metrics.
type metricsDoc struct {
	UptimeMS  int64                    `json:"uptime_ms"`
	Draining  bool                     `json:"draining"`
	Requests  requestCounters          `json:"requests"`
	Admission limiterStats             `json:"admission"`
	Cache     CacheStats               `json:"cache"`
	DiskCache *progcache.Metrics       `json:"disk_cache,omitempty"`
	Breaker   breakerStats             `json:"breaker"`
	Pool      evalpool.MetricsSnapshot `json:"pool"`
	// Audit is the self-audit section (every=0 when disabled).
	Audit auditStats `json:"audit"`
	Chaos chaosDoc   `json:"chaos"`
}

type requestCounters struct {
	Compile   uint64 `json:"compile"`
	Run       uint64 `json:"run"`
	Verify    uint64 `json:"verify"`
	Report    uint64 `json:"report"`
	Drill     uint64 `json:"drill"`
	Errors4xx uint64 `json:"errors_4xx"`
	Errors5xx uint64 `json:"errors_5xx"`
	Panics    uint64 `json:"contained_panics"`
}

// handleMetrics serves GET /metrics: service counters plus the pool's
// snapshot. It stays available while draining (operators
// watch it to confirm the drain).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, metricsDoc{
		UptimeMS: s.uptime().Milliseconds(),
		Draining: s.draining.Load(),
		Requests: requestCounters{
			Compile:   s.nCompile.Load(),
			Run:       s.nRun.Load(),
			Verify:    s.nVerify.Load(),
			Report:    s.nReport.Load(),
			Drill:     s.nDrill.Load(),
			Errors4xx: s.nErr4xx.Load(),
			Errors5xx: s.nErr5xx.Load(),
			Panics:    s.nPanics.Load(),
		},
		Admission: s.limiter.stats(),
		Cache:     s.cache.stats(),
		DiskCache: s.diskStats(),
		Breaker:   s.breaker.stats(),
		Pool:      s.pool.Metrics().Snapshot(),
		Audit:     s.auditSnapshot(),
		Chaos:     currentChaos(),
	})
}
