package service

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/progcache"
	"nascent/internal/vm"
)

// Config configures a Server. Every zero field selects a production
// default; Config{} is a usable server.
type Config struct {
	// MaxConcurrent bounds requests executing at once (default 16).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with 429 (default 64).
	MaxQueue int
	// CacheEntries bounds the compiled-program cache (default 256).
	CacheEntries int
	// ProgCacheDir enables the disk-backed program cache: compiled
	// bytecode programs are persisted there (content-addressed, atomic
	// writes) and warm starts skip the frontend entirely — a restarted
	// server serves /compile and /run for known programs without
	// parsing a line of source. Empty disables the disk layer. A
	// directory that cannot be created disables it with a logged
	// warning; the cache is an accelerator, never a correctness
	// dependency.
	ProgCacheDir string
	// MaxBodyBytes caps any request body (default 4 MiB).
	MaxBodyBytes int64
	// MaxSourceBytes caps one program's source text (default 1 MiB).
	MaxSourceBytes int

	// Ceilings clamp per-request budgets: a request may ask for less
	// than a ceiling, never more. Zero fields select the defaults
	// (500e6 instructions, 64 Mi cells, 1 MiB output, 30 s timeout).
	Ceilings Ceilings

	// DrainTimeout bounds graceful drain: in-flight requests past it
	// are cancelled at their next engine poll point (default 10 s).
	DrainTimeout time.Duration

	// AllowDrill enables POST /drill (chaos injection). Off by
	// default: arming fault injection is an operator decision.
	AllowDrill bool

	// BreakerCooldown is how long a (scheme, engine) pair stays
	// degraded after the self-audit trips it (default 30 s).
	BreakerCooldown time.Duration

	// AuditEvery > 0 enables the in-service differential self-audit:
	// every AuditEvery-th successful /run on a non-tree engine is
	// compared field for field, off the hot path, with the tree
	// reference engine's outcome for the same request: a stored one
	// when it matches, a fresh one otherwise (audit.go). Zero disables
	// auditing.
	AuditEvery int

	// ScrubInterval is ignored: the disk cache checks each entry where
	// it is read, and nowhere else. The field remains because the
	// frozen benchmark harness (bench/run.go) still sets it; the next
	// benchmark change stops setting it and deletes the field.
	ScrubInterval time.Duration

	// Pool is ignored: each run executes once, bounded only by its
	// request's timeout. Both fields remain because the frozen
	// benchmark harness (bench/run.go) still sets them; the next
	// benchmark change stops setting them and deletes this struct.
	Pool struct {
		JobTimeout  time.Duration
		MaxAttempts int
	}

	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Ceilings are the server-side budget clamps.
type Ceilings struct {
	MaxInstructions uint64
	MaxArrayCells   int64
	MaxOutputBytes  int
	MaxTimeout      time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 16
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 64
	}
	if out.CacheEntries <= 0 {
		out.CacheEntries = 256
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 4 << 20
	}
	if out.MaxSourceBytes <= 0 {
		out.MaxSourceBytes = 1 << 20
	}
	if out.Ceilings.MaxInstructions == 0 {
		out.Ceilings.MaxInstructions = 500e6
	}
	if out.Ceilings.MaxArrayCells == 0 {
		out.Ceilings.MaxArrayCells = 64 << 20
	}
	if out.Ceilings.MaxOutputBytes == 0 {
		out.Ceilings.MaxOutputBytes = 1 << 20
	}
	if out.Ceilings.MaxTimeout == 0 {
		out.Ceilings.MaxTimeout = 30 * time.Second
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 10 * time.Second
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

// Server is the nascentd HTTP service. Create with New, mount
// Handler(), and call Drain on shutdown.
type Server struct {
	cfg     Config
	pool    *evalpool.Pool
	cache   *Cache
	disk    *progcache.Cache // nil when ProgCacheDir is empty
	limiter *limiter
	breaker *breaker
	mux     *http.ServeMux

	// baseCtx parents every admitted request's run context; baseCancel
	// fires at the drain deadline so in-flight engine runs stop at
	// their next poll point.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	// drainMu serializes in-flight registration against the drain flip:
	// admit registers under RLock after re-checking the flag, Drain
	// flips the flag under Lock. That ordering makes inflight.Add
	// happen-before inflight.Wait — an admit that wins the lock is
	// counted before the wait starts, one that loses sees draining and
	// refuses.
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	started  time.Time

	// Self-audit state: auditTick paces the sampler, auditWG tracks
	// background audit goroutines (Drain waits for them after
	// cancelling baseCtx, so a drained server has no audit in flight).
	auditTick        atomic.Uint64
	auditWG          sync.WaitGroup
	nAuditSampled    atomic.Uint64
	nAuditClean      atomic.Uint64
	nAuditViolations atomic.Uint64
	nAuditErrors     atomic.Uint64
	// nAuditRefNanos sums the wall time of fresh audit reference
	// compiles and tree runs; nAuditReused counts audits settled
	// against a stored reference in auditRefs instead.
	nAuditRefNanos atomic.Int64
	nAuditReused   atomic.Uint64
	auditRefs      *auditMemo

	// request counters (wire form in metricsDoc).
	nCompile atomic.Uint64
	nRun     atomic.Uint64
	nVerify  atomic.Uint64
	nReport  atomic.Uint64
	nDrill   atomic.Uint64
	nErr4xx  atomic.Uint64
	nErr5xx  atomic.Uint64
	nPanics  atomic.Uint64
}

// New returns a configured Server.
func New(cfg Config) *Server {
	cfg = (&cfg).withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		pool:       evalpool.New(0),
		cache:      newCache(cfg.CacheEntries),
		auditRefs:  newAuditMemo(cfg.CacheEntries),
		limiter:    newLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
		breaker:    newBreaker(cfg.BreakerCooldown),
		baseCtx:    ctx,
		baseCancel: cancel,
		started:    time.Now(),
	}
	if cfg.ProgCacheDir != "" {
		disk, err := progcache.Open(cfg.ProgCacheDir)
		if err != nil {
			cfg.Logf("nascentd: program cache disabled: %v", err)
		} else {
			s.disk = disk
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.guarded(s.handleCompile))
	mux.HandleFunc("POST /run", s.guarded(s.handleRun))
	mux.HandleFunc("POST /verify", s.guarded(s.handleVerify))
	mux.HandleFunc("GET /report", s.guarded(s.handleReport))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /drill", s.guarded(s.handleDrill))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.countError(http.StatusNotFound)
		writeError(w, &Error{Class: ClassUsage, Status: http.StatusNotFound, NaccExit: 2,
			Message: fmt.Sprintf("no such endpoint %s %s", r.Method, r.URL.Path)})
	})
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// guarded wraps a handler with the drain gate and panic containment:
// the compile/run pipeline already contains its panics (guard, the
// pool's per-job recover), so a panic escaping to here is a service-layer bug —
// it is still turned into a typed 500 instead of killing the
// connection, mirroring guard's contain-and-classify contract at the
// HTTP boundary.
func (s *Server) guarded(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.countError(http.StatusServiceUnavailable)
			writeError(w, &Error{
				Class:      ClassDraining,
				Message:    "server is draining",
				Status:     http.StatusServiceUnavailable,
				NaccExit:   -1,
				RetryAfter: 1,
			})
			return
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.nPanics.Add(1)
				s.countError(http.StatusInternalServerError)
				writeError(w, &Error{
					Class:    ClassInternal,
					Message:  fmt.Sprintf("contained handler panic: %v", rec),
					Status:   http.StatusInternalServerError,
					NaccExit: -1,
				})
			}
		}()
		h(w, r)
	}
}

func (s *Server) countError(status int) {
	switch {
	case status >= 500:
		s.nErr5xx.Add(1)
	case status >= 400:
		s.nErr4xx.Add(1)
	}
}

// fail writes a typed error and counts it.
func (s *Server) fail(w http.ResponseWriter, e *Error) {
	if e.Status == 0 {
		e.Status = http.StatusInternalServerError
	}
	s.countError(e.Status)
	writeError(w, e)
}

// admit runs the admission controller and registers the request with
// the drain tracker. The returned release must be called when the
// request's work is done.
func (s *Server) admit(ctx context.Context) (func(), *Error) {
	release, apiErr := s.limiter.acquire(ctx)
	if apiErr != nil {
		return nil, apiErr
	}
	s.drainMu.RLock()
	if s.draining.Load() {
		// Drain began while this request waited for admission.
		s.drainMu.RUnlock()
		release()
		return nil, &Error{
			Class:      ClassDraining,
			Message:    "server is draining",
			Status:     http.StatusServiceUnavailable,
			NaccExit:   -1,
			RetryAfter: 1,
		}
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			release()
			s.inflight.Done()
		}
	}, nil
}

// runCtx derives the execution context of one admitted request: child
// of the HTTP request context (client disconnect cancels the run) and
// of the server's base context (drain deadline cancels it), bounded by
// the clamped per-request timeout.
func (s *Server) runCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// clampBudget folds a request budget into the server ceilings.
func (s *Server) clampBudget(b Budget) (nascent.RunConfig, time.Duration, *Error) {
	ceil := s.cfg.Ceilings
	cfg := nascent.RunConfig{
		MaxInstructions: ceil.MaxInstructions,
		MaxArrayCells:   ceil.MaxArrayCells,
		MaxOutputBytes:  ceil.MaxOutputBytes,
	}
	if b.MaxInstructions > 0 {
		if b.MaxInstructions > ceil.MaxInstructions {
			return cfg, 0, usageError("max_instructions %d exceeds the server ceiling %d", b.MaxInstructions, ceil.MaxInstructions)
		}
		cfg.MaxInstructions = b.MaxInstructions
	}
	if b.MaxArrayCells > 0 {
		if b.MaxArrayCells > ceil.MaxArrayCells {
			return cfg, 0, usageError("max_array_cells %d exceeds the server ceiling %d", b.MaxArrayCells, ceil.MaxArrayCells)
		}
		cfg.MaxArrayCells = b.MaxArrayCells
	}
	if b.MaxOutputBytes > 0 {
		if b.MaxOutputBytes > ceil.MaxOutputBytes {
			return cfg, 0, usageError("max_output_bytes %d exceeds the server ceiling %d", b.MaxOutputBytes, ceil.MaxOutputBytes)
		}
		cfg.MaxOutputBytes = b.MaxOutputBytes
	}
	if b.TimeoutMS < 0 || b.MaxArrayCells < 0 || b.MaxOutputBytes < 0 {
		return cfg, 0, usageError("budget fields must be non-negative")
	}
	timeout := ceil.MaxTimeout
	if b.TimeoutMS > 0 {
		t := time.Duration(b.TimeoutMS) * time.Millisecond
		if t > ceil.MaxTimeout {
			return cfg, 0, usageError("timeout_ms %d exceeds the server ceiling %d", b.TimeoutMS, ceil.MaxTimeout.Milliseconds())
		}
		timeout = t
	}
	return cfg, timeout, nil
}

// compile resolves one compile request through the content-addressed
// cache: singleflight on a miss, LRU touch on a hit. Bytecode engines
// precompile their vm.Program at fill time.
//
// With a disk cache configured, a fill for a bytecode engine first
// consults it: a warm entry decodes straight to a runnable vm.Program
// plus its compile metadata, and the frontend never runs. Any disk
// failure — miss, corruption, version skew — falls through to a fresh
// compile whose result is written back, healing the entry.
func (s *Server) compile(source, filename string, opts nascent.Options, engine nascent.Engine) (*compiled, cacheKey, bool, error) {
	if filename == "" {
		filename = "input.mf"
	}
	key := contentKey(source, filename, opts, engine)
	bytecode := engine != nascent.EngineTree
	c, hit, err := s.cache.get(key, func() (*compiled, error) {
		if s.disk != nil && bytecode {
			if ent, err := s.disk.Get(key); err == nil {
				return &compiled{
					vmProg:       ent.Prog,
					staticChecks: ent.StaticChecks,
					opt:          ent.Opt,
				}, nil
			}
		}
		opts.Filename = filename
		prog, err := nascent.Compile(source, opts)
		if err != nil {
			return nil, err
		}
		out := &compiled{prog: prog, staticChecks: prog.StaticChecks(), opt: prog.Opt}
		if bytecode {
			if out.vmProg, err = vm.CompileEngine(prog.IR, engine); err != nil {
				return nil, err
			}
		}
		if s.disk != nil && bytecode {
			// Best-effort persist; a write failure only costs the next
			// cold start its warm path.
			s.disk.Put(key, &progcache.Entry{Prog: out.vmProg, StaticChecks: out.staticChecks, Opt: out.opt})
		}
		return out, nil
	})
	return c, key, hit, err
}

// Drain performs graceful shutdown: flip the drain gate (new requests
// get typed 503s), wait for in-flight work to finish, and cancel
// whatever is still running at the deadline — engine runs stop at
// their next poll point and surface typed cancellation errors. It
// returns once all in-flight work has completed, and flushes a final
// metrics line through Config.Logf.
func (s *Server) Drain(ctx context.Context) {
	s.drainMu.Lock()
	already := s.draining.Swap(true)
	s.drainMu.Unlock()
	if already {
		return // already draining
	}
	deadline := time.AfterFunc(s.cfg.DrainTimeout, s.baseCancel)
	defer deadline.Stop()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Caller gave up before DrainTimeout: cancel now and still wait
		// for handlers to unwind (poll points make this prompt).
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// Background audits observe the cancelled baseCtx at their next
	// poll point; waiting here means a drained server reports final
	// audit counters (an abandoned audit is uncounted, never a
	// violation).
	s.auditWG.Wait()
	s.cfg.Logf("nascentd: drained; %s", s.pool.Metrics().String())
}

// diskStats snapshots the disk cache counters (nil when disabled).
func (s *Server) diskStats() *progcache.Metrics {
	if s.disk == nil {
		return nil
	}
	m := s.disk.Metrics()
	return &m
}

// uptime reports how long the server has been up.
func (s *Server) uptime() time.Duration { return time.Since(s.started) }

// chaosDoc is the chaos section of GET /metrics.
type chaosDoc struct {
	Active bool   `json:"active"`
	Spec   string `json:"spec,omitempty"`
	Fired  uint64 `json:"fired"`
}

func currentChaos() chaosDoc {
	spec, ok := chaos.CurrentSpec()
	doc := chaosDoc{Active: ok, Fired: chaos.Fired()}
	if ok {
		doc.Spec = spec.String()
	}
	return doc
}
