package oracle

// Chaos sweep mode: re-run the differential oracle under deterministic
// fault injection and assert the pipeline's containment contract —
// every evaluation is *correct or a typed error*. A faulted run may
// fail (injected errors, contained panics and exhausted budgets all
// surface as typed errors) or degrade (a
// panicking optimizer falls back to the naive body), but it must never
// return a wrong result silently and never leak an unclassified
// failure. Every violation carries the chaos spec that produced it, so
// a CI failure replays locally with one -chaos flag.

import (
	"errors"
	"fmt"
	"strings"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
)

// ChaosConfig configures a ChaosSweep.
type ChaosConfig struct {
	// Seeds to sweep (nil means 1..8).
	Seeds []uint64
	// Rate is the per-(site, key) fault probability (0 means 0.05).
	Rate float64
	// Site restricts injection to one site ("" arms every site).
	Site chaos.Site
	// Variants to check (nil means DefaultVariants).
	Variants []Variant
	// Run bounds each execution, as in Config.Run.
	Run nascent.RunConfig
	// Engines runs the sweep's job matrix under each listed engine
	// (empty means just Run.Engine). Engine identity is NOT asserted
	// under chaos — the engines hit different injection sites — each
	// engine's outcomes are judged independently.
	Engines []nascent.Engine
	// Jobs shards each seed's evaluation across workers (<= 0 means
	// sequential).
	Jobs int
}

// ChaosViolation is one breach of the correct-or-typed-error contract.
type ChaosViolation struct {
	// Spec replays the exact faults that produced the violation.
	Spec chaos.Spec
	// Job names the failing evaluation ("LLS/PRX@vm").
	Job string
	// Kind is "silent-wrong-result" (the fatal class: a fault changed
	// observable behavior without any error) or "untyped-error" (a
	// failure escaped the typed-error taxonomy).
	Kind string
	// Detail describes the first bad observable.
	Detail string
}

func (v ChaosViolation) String() string {
	return fmt.Sprintf("%s: %s: %s (replay: -chaos %s)", v.Job, v.Kind, v.Detail, v.Spec)
}

// ChaosReport is the outcome of one ChaosSweep.
type ChaosReport struct {
	// Seeds and Runs count the sweep's extent: specs swept and variant
	// evaluations performed under injection.
	Seeds int
	Runs  int
	// Faults is the number of injection decisions that fired.
	Faults uint64
	// TypedErrors counts evaluations that failed with a typed error
	// (the contract's allowed failure outcome).
	TypedErrors int
	// Violations lists every contract breach (empty on a sound pipeline).
	Violations []ChaosViolation
}

// OK reports whether the sweep found no violation.
func (r *ChaosReport) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-line-per-violation description.
func (r *ChaosReport) Summary() string {
	head := fmt.Sprintf("chaos: %d seeds, %d runs, %d faults injected, %d typed errors",
		r.Seeds, r.Runs, r.Faults, r.TypedErrors)
	if r.OK() {
		return head + ", no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d VIOLATIONS:\n", head, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// typedFailure reports whether err belongs to the pipeline's typed
// failure taxonomy: an injected (or amplified) error, a contained
// panic, or an exhausted resource budget. Any other failure under chaos
// is an "untyped-error" violation.
func typedFailure(err error) bool {
	return errors.Is(err, chaos.ErrInjected) ||
		errors.Is(err, nascent.ErrInternal) ||
		errors.Is(err, interp.ErrResourceExhausted) ||
		chaos.InjectedMessage(err)
}

// ChaosSweep runs the variant matrix under every configured chaos seed
// and checks the correct-or-typed-error contract against a chaos-off
// reference. A non-nil error means the chaos-off baseline itself is
// unusable; contract breaches are reported inside the ChaosReport.
func ChaosSweep(src string, cfg ChaosConfig) (*ChaosReport, error) {
	if chaos.Active() {
		return nil, fmt.Errorf("oracle: chaos sweep needs exclusive control of the chaos registry (already enabled: %s)", chaos.SpecString())
	}
	seeds := cfg.Seeds
	if seeds == nil {
		seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	rate := cfg.Rate
	if rate == 0 {
		rate = 0.05
	}
	variants := cfg.Variants
	if variants == nil {
		variants = DefaultVariants()
	}
	runCfg := cfg.Run
	if runCfg.MaxInstructions == 0 {
		runCfg.MaxInstructions = 50e6
	}
	engines := cfg.Engines
	if len(engines) == 0 {
		engines = []nascent.Engine{runCfg.Engine}
	}

	// Chaos-off reference: the naive baseline every faulted run is
	// judged against. Output and trap verdict are the correctness
	// observables; check counts and timings are perf, not correctness —
	// a degraded optimizer legitimately runs more checks.
	naiveProg, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		return nil, fmt.Errorf("oracle: naive compile: %w", err)
	}
	naive, err := naiveProg.RunWith(runCfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: naive run: %w", err)
	}
	if hr := naive.Instructions*2 + 1<<16; hr > runCfg.MaxInstructions {
		runCfg.MaxInstructions = hr
	}

	jobs := make([]evalpool.Job, 0, len(variants)*len(engines))
	for _, v := range variants {
		for _, e := range engines {
			rc := runCfg
			rc.Engine = e
			jobs = append(jobs, evalpool.Job{
				Name:   fmt.Sprintf("%s@%v", v.String(), e),
				Source: src,
				Opts:   v.Options(),
				Run:    rc,
			})
		}
	}

	rep := &ChaosReport{Seeds: len(seeds)}
	for _, seed := range seeds {
		spec := chaos.Spec{Seed: seed, Rate: rate, Site: cfg.Site}
		chaos.Enable(spec)
		// A fresh pool per seed: nothing is memoized across specs (the
		// front-end memo must not serve one seed's injected failure to
		// the next).
		results := evalpool.New(max(cfg.Jobs, 1)).Evaluate(jobs)
		rep.Faults += chaos.Fired()
		chaos.Disable()

		for i, res := range results {
			rep.Runs++
			rep.judge(spec, jobs[i].Name, res, naive)
		}
	}
	return rep, nil
}

// judge classifies one faulted evaluation: success must match the
// chaos-off reference observables, failure must be typed.
func (r *ChaosReport) judge(spec chaos.Spec, job string, res evalpool.Result, naive nascent.RunResult) {
	violate := func(kind, format string, args ...interface{}) {
		r.Violations = append(r.Violations, ChaosViolation{
			Spec: spec, Job: job, Kind: kind, Detail: fmt.Sprintf(format, args...),
		})
	}
	if res.Err != nil {
		if typedFailure(res.Err) {
			r.TypedErrors++
		} else {
			violate("untyped-error", "%v", res.Err)
		}
		return
	}
	// The run completed: its observable behavior must match the
	// chaos-off naive reference (same trap verdict; identical output,
	// or a prefix on trapping runs — detection may move earlier).
	if res.Res.Trapped != naive.Trapped {
		violate("silent-wrong-result", "naive trapped=%v, faulted run trapped=%v (%s)",
			naive.Trapped, res.Res.Trapped, res.Res.TrapNote)
		return
	}
	if naive.Trapped {
		if !strings.HasPrefix(naive.Output, res.Res.Output) {
			violate("silent-wrong-result", "trapped output not a prefix of naive: %s",
				firstOutputDiff(naive.Output, res.Res.Output))
		}
	} else if res.Res.Output != naive.Output {
		violate("silent-wrong-result", "output differs: %s", firstOutputDiff(naive.Output, res.Res.Output))
	}
}
