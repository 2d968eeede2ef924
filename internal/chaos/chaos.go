// Package chaos is a deterministic, seeded fault-injection registry.
//
// Every recovery path in the pipeline — guard containment, per-function
// degradation, resource budgets, the service's self-audit — exists to turn
// internal failures into typed, positioned errors. Nothing exercises
// those paths systematically on organic bugs alone, so this package
// plants *named injection sites* throughout the pipeline (lexer, parser,
// sem, irbuild, optimizer, both execution engines, the self-audit) and
// lets tests, the oracle chaos sweep, and the CLIs provoke each failure
// mode on demand.
//
// # Determinism and replay
//
// Whether a site fires is a pure function of (seed, site, key): there is
// no global counter, no clock, and no real randomness, so a fault
// observed once is observed on every rerun with the same spec, at any
// worker count and in any execution order. A one-line spec
//
//	seed:rate[:site]
//
// (e.g. "42:0.05" or "7:1:optimize.panic") replays any logged failure:
// injected panics and sweep reports carry the spec that produced them.
//
// # Cost when disabled
//
// Injection is off by default. Every site guards itself behind a single
// atomic load (Active); with no spec installed the hot path costs one
// predictable branch and performs no hashing, locking, or allocation, so
// the chaos hooks are observably free — the chaos-off determinism tests
// in internal/report pin byte-identical tables with the hooks compiled
// in.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Site names one injection point. Sites are stable identifiers: they
// appear in replay specs, logs, and docs/ROBUSTNESS.md.
type Site string

// Injection sites, one per provoked failure mode.
const (
	// SiteLexError amplifies a lexical error: the lexer reports an
	// injected positioned diagnostic for the whole source.
	SiteLexError Site = "lex.error"
	// SiteParseError makes the parser fail with a typed InjectedError.
	SiteParseError Site = "parse.error"
	// SiteSemError makes semantic analysis fail with a typed InjectedError.
	SiteSemError Site = "sem.error"
	// SiteLowerPanic panics inside IR lowering; the compile boundary must
	// contain it as an *InternalError with stage "lower".
	SiteLowerPanic Site = "lower.panic"
	// SiteOptPanic panics inside the per-function optimizer; containment
	// must degrade that function to its naive body (OptReport.Degraded).
	SiteOptPanic Site = "optimize.panic"
	// SiteOptMalformed corrupts a function's IR mid-optimization (a block
	// loses its terminator) and trips the verifier; containment must
	// degrade the function, never emit the malformed program.
	SiteOptMalformed Site = "optimize.malformed"
	// SiteTreeBudget / SiteTreeCancel / SiteTreePanic fire at the tree
	// engine's poll point: spurious instruction-budget exhaustion,
	// spurious cancellation, and an induced panic that guard containment
	// must surface as an *InternalError with stage "run".
	SiteTreeBudget Site = "tree.poll.budget"
	SiteTreeCancel Site = "tree.poll.cancel"
	SiteTreePanic  Site = "tree.poll.panic"
	// SiteVMBudget / SiteVMCancel / SiteVMPanic are the same three faults
	// at the bytecode VM's poll point.
	SiteVMBudget Site = "vm.poll.budget"
	SiteVMCancel Site = "vm.poll.cancel"
	SiteVMPanic  Site = "vm.poll.panic"
	// SiteRCEGuardFail forces a passing preheader range guard (the rce
	// pass's opRangeGuard) to take its deopt edge anyway: the original
	// fully-checked loop code runs instead of the guard-free fast copy.
	// Deopt is the original semantics, so every observable must stay
	// byte-identical — this site exists to keep the deopt path
	// continuously exercised. Keyed by the containing function's name.
	SiteRCEGuardFail Site = "vm.rce.guard.fail"
	// SiteAuditMismatch forces the in-service differential self-audit
	// to observe a divergence between a served result and its reference
	// re-execution: the typed SelfAuditViolation path, the breaker
	// trip, and the metrics surface must all fire. Keyed by the
	// audited request's cache key.
	SiteAuditMismatch Site = "service.audit.mismatch"
)

// Sites lists every injection site, in pipeline order.
var Sites = []Site{
	SiteLexError, SiteParseError, SiteSemError,
	SiteLowerPanic, SiteOptPanic, SiteOptMalformed,
	SiteTreeBudget, SiteTreeCancel, SiteTreePanic,
	SiteVMBudget, SiteVMCancel, SiteVMPanic,
	SiteRCEGuardFail,
	SiteAuditMismatch,
}

// KnownSite reports whether s names a registered injection site.
func KnownSite(s Site) bool {
	for _, k := range Sites {
		if k == s {
			return true
		}
	}
	return false
}

// Spec is one replayable injection configuration.
type Spec struct {
	// Seed drives every injection decision.
	Seed uint64
	// Rate in [0,1] is the fraction of (site, key) pairs that fault.
	Rate float64
	// Site restricts injection to a set of sites: "" means every site,
	// one site name means that site only, and a comma-separated list
	// ("tree.poll.budget,service.audit.mismatch") arms exactly those
	// sites — the form soak drills use to combine faults under one
	// seed while leaving the rest of the pipeline quiet.
	Site Site
}

// String renders the spec in the canonical "seed:rate[:site]" replay
// form accepted by ParseSpec and the -chaos flags.
func (s Spec) String() string {
	out := fmt.Sprintf("%d:%s", s.Seed, strconv.FormatFloat(s.Rate, 'g', -1, 64))
	if s.Site != "" {
		out += ":" + string(s.Site)
	}
	return out
}

// ParseSpec parses "seed:rate[:site[,site...]]" (e.g. "42:0.05",
// "7:1:optimize.panic", "9:0.2:optimize.panic,tree.poll.budget").
func ParseSpec(text string) (Spec, error) {
	parts := strings.SplitN(text, ":", 3)
	if len(parts) < 2 {
		return Spec{}, fmt.Errorf("chaos: bad spec %q (want seed:rate[:site,...])", text)
	}
	seed, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return Spec{}, fmt.Errorf("chaos: bad seed in %q: %v", text, err)
	}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || math.IsNaN(rate) || rate < 0 || rate > 1 {
		return Spec{}, fmt.Errorf("chaos: bad rate in %q (want 0..1)", text)
	}
	spec := Spec{Seed: seed, Rate: rate}
	if len(parts) == 3 {
		for _, name := range strings.Split(parts[2], ",") {
			if !KnownSite(Site(name)) {
				return Spec{}, fmt.Errorf("chaos: unknown site %q (known: %s)", name, siteList())
			}
		}
		spec.Site = Site(parts[2])
	}
	return spec, nil
}

// armed reports whether the spec's site set includes site. The common
// single-site (or all-sites) form never allocates or splits.
func (s Spec) armed(site Site) bool {
	switch {
	case s.Site == "" || s.Site == site:
		return true
	case !strings.Contains(string(s.Site), ","):
		return false
	}
	rest := string(s.Site)
	for {
		i := strings.IndexByte(rest, ',')
		if i < 0 {
			return rest == string(site)
		}
		if rest[:i] == string(site) {
			return true
		}
		rest = rest[i+1:]
	}
}

func siteList() string {
	names := make([]string, len(Sites))
	for i, s := range Sites {
		names[i] = string(s)
	}
	return strings.Join(names, ", ")
}

// Decide is the pure injection decision: whether spec fires fault site
// for key. It is exported so tests can search for seeds with a wanted
// fate (e.g. "attempt 0 dies, attempt 1 survives") instead of
// hard-coding hash-dependent magic numbers.
func Decide(spec Spec, site Site, key string) bool {
	if spec.Rate <= 0 || !spec.armed(site) {
		return false
	}
	if spec.Rate >= 1 {
		return true
	}
	h := hash64(spec.Seed, string(site), key)
	return float64(h>>11)/(1<<53) < spec.Rate
}

// hash64 mixes the seed with the site and key bytes (FNV-1a over both,
// finished with a splitmix64 avalanche). The function is frozen: specs
// logged today must replay identically forever.
func hash64(seed uint64, site, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	h = (h ^ 0xff) * prime // separator: ("ab","c") != ("a","bc")
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	z := h ^ seed
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Record is one fired injection, logged for replay.
type Record struct {
	Site Site
	Key  string
	Spec Spec
}

func (r Record) String() string {
	return fmt.Sprintf("chaos: %s fired at key %q (replay: -chaos %s)", r.Site, r.Key, r.Spec)
}

// maxRecords caps the fired-event log so a high-rate sweep cannot grow
// memory without bound; Fired reports the true count regardless.
const maxRecords = 4096

// Global registry state. Sites deep in the pipeline (the engines, the
// optimizer) have no configuration path of their own, so injection is
// process-global: Enable installs a spec, Disable removes it. The
// enabled flag is the only state the zero-fault hot path reads.
var (
	enabled atomic.Bool
	mu      sync.Mutex
	spec    Spec
	records []Record
	fired   atomic.Uint64
)

// Active reports whether injection is enabled. It is the single atomic
// check every site performs before any other work; when false, sites do
// nothing else.
func Active() bool { return enabled.Load() }

// Enable installs spec and turns injection on. Tests must pair it with
// a deferred Disable and must not run in parallel with chaos-sensitive
// tests: the registry is process-global.
func Enable(s Spec) {
	mu.Lock()
	spec = s
	records = nil
	fired.Store(0)
	mu.Unlock()
	enabled.Store(s.Rate > 0)
}

// Disable turns injection off. Fired records remain readable until the
// next Enable.
func Disable() { enabled.Store(false) }

// CurrentSpec returns the installed spec and whether injection is on.
func CurrentSpec() (Spec, bool) {
	if !Active() {
		return Spec{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	return spec, true
}

// SpecString returns the canonical replay spec of the installed
// configuration, or "" when injection is off. Injected panics embed it
// so any logged failure is replayable from the log line alone.
func SpecString() string {
	s, ok := CurrentSpec()
	if !ok {
		return ""
	}
	return s.String()
}

// Fire reports whether site faults for key under the installed spec,
// and logs the event when it does. The zero-fault fast path is one
// atomic load.
func Fire(site Site, key string) bool {
	if !Active() {
		return false
	}
	mu.Lock()
	s := spec
	mu.Unlock()
	if !Decide(s, site, key) {
		return false
	}
	if fired.Add(1) <= maxRecords {
		mu.Lock()
		records = append(records, Record{Site: site, Key: key, Spec: s})
		mu.Unlock()
	}
	return true
}

// Records returns the injections fired since the last Enable (capped at
// an internal bound; see Fired for the uncapped count).
func Records() []Record {
	mu.Lock()
	defer mu.Unlock()
	return append([]Record(nil), records...)
}

// Fired returns how many injections have fired since the last Enable.
func Fired() uint64 { return fired.Load() }

// drillMu serializes scoped drills: injection is process-global, so at
// most one request-scoped arming may be live at a time. A plain Mutex
// with TryLock (rather than blocking) lets a service answer "drill
// already in progress" instead of queueing chaos behind chaos.
var drillMu sync.Mutex

// ErrDrillBusy reports that another scoped drill holds the registry.
var ErrDrillBusy = errors.New("chaos: a drill is already in progress")

// AcquireDrill arms the registry with spec for the scope of one request
// and returns a release function that disarms it. It fails with
// ErrDrillBusy when another drill holds the registry (drills never
// queue) and with an error when injection is already enabled globally
// (a process started with -chaos owns its spec for its lifetime).
//
// Scoping is temporal, not spatial: while a drill is live, every
// injection site in the process is armed, so concurrent organic
// requests may observe injected faults too, and must surface them as
// the same typed outcomes. Fired records are reset on acquire, so
// Fired()/Records() read back exactly what this drill provoked (plus
// any collateral hits on concurrent traffic).
func AcquireDrill(s Spec) (release func(), err error) {
	if !drillMu.TryLock() {
		return nil, ErrDrillBusy
	}
	if Active() {
		drillMu.Unlock()
		return nil, errors.New("chaos: injection already enabled globally; refusing scoped drill")
	}
	Enable(s)
	var once sync.Once
	return func() {
		once.Do(func() {
			Disable()
			drillMu.Unlock()
		})
	}, nil
}

// ErrInjected is the sentinel matched by errors.Is for every fault this
// package injects as an error value.
var ErrInjected = errors.New("chaos: injected fault")

// InjectedError is a typed, site-tagged injected failure. The pipeline
// wraps it with the usual stage prefixes ("parse:", "analyze:"), so
// errors.Is(err, chaos.ErrInjected) identifies an injected fault through
// the whole wrap chain.
type InjectedError struct {
	Site Site
	Key  string
	Spec Spec
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s (key %q, replay: -chaos %s)", e.Site, e.Key, e.Spec)
}

// Is makes errors.Is(err, chaos.ErrInjected) match any InjectedError.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// InjectError returns a typed *InjectedError when site fires for key,
// nil otherwise. Error-amplification sites (parser, sem) return it as
// their failure.
func InjectError(site Site, key string) error {
	if !Fire(site, key) {
		return nil
	}
	s, _ := CurrentSpec()
	return &InjectedError{Site: site, Key: key, Spec: s}
}

// PanicValue is the value panic sites throw. It carries the "chaos:
// injected" marker so contained panics remain recognizable as injected
// (guard.InternalError stringifies the recovered value).
func PanicValue(site Site, key string) string {
	return fmt.Sprintf("chaos: injected panic at %s (key %q, replay: -chaos %s)", site, key, SpecString())
}

// InjectedMessage reports whether an error's text carries the injected
// marker. Faults routed through diagnostic lists (the lexer's ErrorList)
// or contained panics (guard.InternalError) lose the *InjectedError
// type; their message keeps the marker.
func InjectedMessage(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjected) {
		return true
	}
	return strings.Contains(err.Error(), "chaos: injected")
}

// SourceKey derives a stable injection key from source text: sites that
// see only the raw source (lexer, parser, sem) key their decision on it
// so the same program faults identically everywhere.
func SourceKey(src string) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint64(src[i])) * prime
	}
	return strconv.FormatUint(h, 16)
}
