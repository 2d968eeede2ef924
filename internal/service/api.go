// Package service is nascentd's HTTP layer: a hardened multi-tenant
// compile-and-eval server over the Kolte–Wolfe pipeline.
//
// The package promotes the pipeline's existing robustness machinery —
// typed resource budgets with cancellation (internal/interp), panic
// containment (internal/guard) and deterministic fault injection
// (internal/chaos) — into a long-running service that survives heavy
// concurrent traffic:
//
//   - a content-addressed compiled-program cache (key = hash(source,
//     filename, options, engine)) with singleflight collapse of
//     duplicate in-flight compiles and LRU eviction (cache.go);
//   - admission control: a concurrency limiter plus a bounded wait
//     queue; excess load is shed with 429 + Retry-After instead of
//     degrading every request (limiter.go);
//   - a sampled self-audit that re-runs served responses on the tree
//     reference engine (audit.go), and a circuit breaker per (scheme,
//     engine) pair that the audit trips: the pair is served degraded
//     for one cooldown (breaker.go);
//   - per-request resource budgets clamped by server-side ceilings,
//     with deadline propagation from request context into both
//     engines' poll points;
//   - graceful drain: stop admitting, let in-flight requests finish or
//     cancel them at the drain deadline, flush metrics (server.go);
//   - in-service chaos drills gated behind a flag (drill.go).
//
// Every failure is a typed JSON error whose class mirrors the nacc
// exit-code taxonomy (docs/SERVICE.md).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"nascent"
)

// Error classes. Each maps to one HTTP status and one nacc exit code
// (-1 when no nacc analog exists); see docs/SERVICE.md for the table.
const (
	// ClassUsage: malformed request (bad JSON, unknown field, bogus
	// scheme/kind/engine/budget). HTTP 400, nacc exit 2.
	ClassUsage = "usage"
	// ClassTooLarge: oversized body or source. HTTP 413, nacc exit 2.
	ClassTooLarge = "too_large"
	// ClassCompile: the program failed to parse, analyze, lower, or
	// optimize. HTTP 422, nacc exit 3.
	ClassCompile = "compile"
	// ClassResource: an execution budget was exhausted (instructions,
	// cells, deadline, cancellation). HTTP 408, nacc exit 4.
	ClassResource = "resource"
	// ClassFault: the program failed at run time outside a range check
	// (e.g. an out-of-range access in an unchecked build). HTTP 422,
	// nacc exit 1. A trapped CHECKED run is not an error: it is a 200
	// RunResponse with Trapped set.
	ClassFault = "fault"
	// ClassShed: admission control rejected the request under load.
	// HTTP 429 with Retry-After; no nacc analog.
	ClassShed = "shed"
	// ClassDraining: the server is shutting down. HTTP 503 with
	// Retry-After; no nacc analog.
	ClassDraining = "draining"
	// ClassInternal: a contained internal invariant violation. HTTP 500.
	ClassInternal = "internal"
	// ClassDrill: drill-specific failures (disabled endpoint HTTP 403,
	// busy registry HTTP 409, bad spec HTTP 400).
	ClassDrill = "drill"
)

// Error is the typed JSON error body of every non-2xx response.
type Error struct {
	// Class is one of the Class* constants.
	Class string `json:"class"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Status is the HTTP status the error was served with.
	Status int `json:"status"`
	// NaccExit is the exit code nacc would report for the same failure
	// (-1 when the failure has no CLI analog, e.g. load shedding).
	NaccExit int `json:"nacc_exit"`
	// Resource names the exhausted budget for ClassResource errors
	// ("instruction budget", "array cell budget", "deadline", "context").
	Resource string `json:"resource,omitempty"`
	// RetryAfter is the suggested backoff in seconds for ClassShed and
	// ClassDraining errors (also sent as the Retry-After header).
	RetryAfter int `json:"retry_after,omitempty"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Class, e.Message) }

// errorBody is the envelope every error response is wrapped in.
type errorBody struct {
	Error *Error `json:"error"`
}

func usageError(format string, args ...any) *Error {
	return &Error{Class: ClassUsage, Message: fmt.Sprintf(format, args...), Status: http.StatusBadRequest, NaccExit: 2}
}

// Options selects the backend configuration of a compile, by wire name.
// All fields are optional; the zero value is an unoptimized checked
// build ("naive" scheme, PRX checks, full implications).
type Options struct {
	// BoundsChecks inserts naive range checks before optimization
	// (default true — a service exists to measure checked programs; set
	// false explicitly for the unchecked baseline).
	BoundsChecks *bool `json:"bounds_checks,omitempty"`
	// Scheme: naive|NI|CS|LNI|SE|LI|LLS|ALL|MCM (default naive).
	Scheme string `json:"scheme,omitempty"`
	// Kind: PRX|INX (default PRX).
	Kind string `json:"kind,omitempty"`
	// Implications: full|none|cross (default full).
	Implications string `json:"implications,omitempty"`
	// RotateLoops converts while loops to guarded repeat loops before
	// optimization.
	RotateLoops bool `json:"rotate_loops,omitempty"`
}

// Budget bounds one run. Every field is clamped by the server-side
// ceilings (Config.Ceilings): a tenant may ask for less, never more.
type Budget struct {
	// MaxInstructions caps counted instructions (0 = server ceiling).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// MaxArrayCells caps total array cells (0 = server ceiling).
	MaxArrayCells int64 `json:"max_array_cells,omitempty"`
	// MaxOutputBytes truncates output beyond this size (0 = server
	// ceiling).
	MaxOutputBytes int `json:"max_output_bytes,omitempty"`
	// TimeoutMS bounds wall clock; it becomes a context deadline
	// propagated into the engines' poll points (0 = server ceiling).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Source is the MF program text (required).
	Source string `json:"source"`
	// Filename labels diagnostics (default "input.mf").
	Filename string `json:"filename,omitempty"`
	// Options selects the backend configuration.
	Options Options `json:"options,omitempty"`
	// Engine: tree|vmopt|vmrce|vmjit (default tree; vmrce and vmjit
	// are names for vmopt's pipeline). Compilation is
	// engine-independent at the IR level, but the cache entry is keyed
	// by engine and bytecode engines precompile their program eagerly.
	Engine string `json:"engine,omitempty"`
}

// RunRequest is the body of POST /run: a compile plus execution.
type RunRequest struct {
	CompileRequest
	// Budget bounds the run (clamped by server ceilings).
	Budget Budget `json:"budget,omitempty"`
	// NoCache compiles this request afresh and stores the result
	// nowhere: the memory cache and the disk cache are neither read nor
	// filled (drills use it so injection reaches the compile stages).
	NoCache bool `json:"no_cache,omitempty"`
}

// VerifyRequest is the body of POST /verify.
type VerifyRequest struct {
	// Source is the MF program text (required).
	Source string `json:"source"`
	// Filename labels diagnostics.
	Filename string `json:"filename,omitempty"`
	// Engine selects the identity sweep: every engine up to and
	// including the named one participates (tree → just the
	// tree-walker; vmjit → all four engines).
	Engine string `json:"engine,omitempty"`
}

// DrillRequest is the body of POST /drill: run one request under a
// scoped chaos injection spec.
type DrillRequest struct {
	// Spec is the deterministic injection spec "seed:rate[:site]".
	Spec string `json:"spec"`
	// Run is the request to execute under injection. It bypasses every
	// compiled-program store, like a no_cache run, so injection can
	// reach every pipeline stage.
	Run RunRequest `json:"run"`
	// Name prefixes the drill's error message (default "drill").
	Name string `json:"name,omitempty"`
}

// OptReport mirrors nascent.OptReport on the wire.
type OptReport struct {
	ChecksBefore    int      `json:"checks_before"`
	ChecksAfter     int      `json:"checks_after"`
	Inserted        int      `json:"inserted"`
	EliminatedAvail int      `json:"eliminated_avail"`
	EliminatedCover int      `json:"eliminated_cover"`
	EliminatedConst int      `json:"eliminated_const"`
	TrapsInserted   int      `json:"traps_inserted"`
	Diagnostics     []string `json:"diagnostics,omitempty"`
	Degraded        []string `json:"degraded,omitempty"`
}

// Degraded reports that the circuit breaker served this request with a
// degraded configuration instead of the requested one.
type Degraded struct {
	FromScheme string `json:"from_scheme"`
	FromEngine string `json:"from_engine"`
	ToScheme   string `json:"to_scheme"`
	ToEngine   string `json:"to_engine"`
	Reason     string `json:"reason"`
}

// CompileResponse is the body of a successful POST /compile.
type CompileResponse struct {
	// CacheKey is the content address of the compiled program
	// (hex sha256 over source, filename, options, engine).
	CacheKey string `json:"cache_key"`
	// CacheHit reports the compile was served from the cache.
	CacheHit bool `json:"cache_hit"`
	// Scheme/Engine are the configuration actually compiled (they
	// differ from the request when Degraded is set).
	Scheme string `json:"scheme"`
	Engine string `json:"engine"`
	// StaticChecks counts check statements in the compiled program.
	StaticChecks int `json:"static_checks"`
	// Opt is the optimizer report (null for the naive scheme).
	Opt *OptReport `json:"opt,omitempty"`
	// Degraded is set when the circuit breaker rerouted the request.
	Degraded *Degraded `json:"degraded,omitempty"`
}

// RunResponse is the body of a successful POST /run. A range trap is a
// program outcome, not a service error: trapped runs are HTTP 200 with
// Trapped set and NaccExit 1.
type RunResponse struct {
	Compile CompileResponse `json:"compile"`
	// Output is the program's print output (byte-identical to nacc's
	// stdout for the same source and options).
	Output string `json:"output"`
	// Instructions / Checks are the dynamic counters.
	Instructions uint64 `json:"instructions"`
	Checks       uint64 `json:"checks"`
	// Trapped reports a failed range check or executed static trap;
	// TrapNote/TrapClass describe it.
	Trapped   bool   `json:"trapped"`
	TrapNote  string `json:"trap_note,omitempty"`
	TrapClass string `json:"trap_class,omitempty"`
	// NaccExit is the exit code nacc would report for this outcome
	// (0 clean, 1 trapped).
	NaccExit int `json:"nacc_exit"`
}

// VerifyResponse is the body of a successful POST /verify.
type VerifyResponse struct {
	OK bool `json:"ok"`
	// Summary is the oracle's one-line report.
	Summary string `json:"summary"`
	// Divergences lists soundness violations (empty when OK).
	Divergences []string `json:"divergences,omitempty"`
	// NaccExit is 0 on a clean pass, 5 on divergence.
	NaccExit int `json:"nacc_exit"`
}

// DrillResponse is the body of POST /drill.
type DrillResponse struct {
	// Spec echoes the injection spec the drill armed.
	Spec string `json:"spec"`
	// Fired is how many injections fired while the drill was armed.
	Fired uint64 `json:"fired"`
	// Result is the run's outcome when it completed; nil when the run
	// failed.
	Result *RunResponse `json:"result,omitempty"`
	// Error is the typed failure when the run did not complete.
	Error *Error `json:"error,omitempty"`
}

// parse tables, mirroring cmd/nacc's flag spellings.

var schemeNames = map[string]nascent.Scheme{
	"naive": nascent.Naive, "ni": nascent.NI, "cs": nascent.CS,
	"lni": nascent.LNI, "se": nascent.SE, "li": nascent.LI,
	"lls": nascent.LLS, "all": nascent.ALL, "mcm": nascent.MCM,
}

var kindNames = map[string]nascent.CheckKind{"prx": nascent.PRX, "inx": nascent.INX}

var implNames = map[string]nascent.Implications{
	"full": nascent.ImplyFull, "none": nascent.ImplyNone, "cross": nascent.ImplyCross,
}

// parseOptions validates wire options into backend options.
func parseOptions(o Options) (nascent.Options, *Error) {
	opts := nascent.Options{BoundsChecks: true}
	if o.BoundsChecks != nil {
		opts.BoundsChecks = *o.BoundsChecks
	}
	if o.Scheme != "" {
		s, ok := schemeNames[strings.ToLower(o.Scheme)]
		if !ok {
			return opts, usageError("unknown scheme %q (want naive|NI|CS|LNI|SE|LI|LLS|ALL|MCM)", o.Scheme)
		}
		opts.Scheme = s
	}
	if o.Kind != "" {
		k, ok := kindNames[strings.ToLower(o.Kind)]
		if !ok {
			return opts, usageError("unknown check kind %q (want PRX|INX)", o.Kind)
		}
		opts.Kind = k
	}
	if o.Implications != "" {
		m, ok := implNames[strings.ToLower(o.Implications)]
		if !ok {
			return opts, usageError("unknown implication mode %q (want full|none|cross)", o.Implications)
		}
		opts.Implications = m
	}
	opts.RotateLoops = o.RotateLoops
	return opts, nil
}

// parseEngine validates a wire engine name (default tree).
func parseEngine(s string) (nascent.Engine, *Error) {
	if s == "" {
		return nascent.EngineTree, nil
	}
	e, err := nascent.ParseEngine(strings.ToLower(s))
	if err != nil {
		return nascent.EngineTree, usageError("unknown engine %q (want %s)", s, strings.Join(nascent.EngineNames(), "|"))
	}
	return e, nil
}

// decodeJSON reads and decodes one JSON request body with hard limits:
// the body is capped at maxBytes, unknown fields are rejected, and
// trailing garbage is an error. Every failure is a typed 4xx.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, into any) *Error {
	if r.Body == nil {
		return usageError("empty request body")
	}
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &Error{Class: ClassTooLarge, Status: http.StatusRequestEntityTooLarge, NaccExit: 2,
				Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return usageError("malformed JSON at offset %d: %v", syn.Offset, syn)
		}
		var ute *json.UnmarshalTypeError
		if errors.As(err, &ute) {
			return usageError("bad type for field %q: want %s", ute.Field, ute.Type)
		}
		return usageError("bad request body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return usageError("trailing data after JSON body")
	}
	return nil
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a typed error body (and Retry-After when set).
func writeError(w http.ResponseWriter, e *Error) {
	if e.Status == 0 {
		e.Status = http.StatusInternalServerError
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Status, errorBody{Error: e})
}
