// Package oracle is a differential-execution oracle for the range check
// optimizer: it compiles one source program under the naive (fully
// checked) configuration and under every optimizing configuration, runs
// all variants, and asserts the paper's soundness contract (Kolte &
// Wolfe §3) on the observable behavior of each pair:
//
//  1. every variant compiles when the naive program compiles;
//  2. the variant traps iff the naive program traps, and a trap is
//     always a classified range violation (a failed check or a
//     compile-time trap) — detection may move earlier, never later;
//  3. on clean runs the outputs are identical; on trapping runs the
//     variant's output is a prefix of the naive output (earlier
//     detection prints less, never different text);
//  4. on clean runs the variant never performs more dynamic checks
//     than naive (trapping runs are not comparable: hoisted checks may
//     legitimately execute before the trap that naive hits first);
//  5. the variant's OptReport arithmetic is consistent with the IR it
//     describes.
//
// A violated clause produces a structured Divergence (variant,
// invariant, first differing observable, IR dumps) rather than a bare
// bool, so failures are debuggable from the report alone.
package oracle

import (
	"fmt"
	"strings"

	"nascent"
	"nascent/internal/evalpool"
)

// Variant identifies one optimizer configuration under test.
type Variant struct {
	Scheme       nascent.Scheme
	Kind         nascent.CheckKind
	Implications nascent.Implications
	RotateLoops  bool
}

func (v Variant) String() string {
	s := fmt.Sprintf("%v/%v", v.Scheme, v.Kind)
	if v.Implications != nascent.ImplyFull {
		s += "/" + v.Implications.String()
	}
	if v.RotateLoops {
		s += "/rotate"
	}
	return s
}

// Options returns the compile options for the variant (always with
// bounds checks: the oracle verifies checked builds).
func (v Variant) Options() nascent.Options {
	return nascent.Options{
		BoundsChecks: true,
		Scheme:       v.Scheme,
		Kind:         v.Kind,
		Implications: v.Implications,
		RotateLoops:  v.RotateLoops,
	}
}

// DefaultVariants lists every configuration the paper evaluates: the
// seven Table 2 schemes plus MCM (§5), each under PRX and INX check
// construction, the Table 3 implication ablations of LLS, and the
// loop-rotation variants of SE and LLS.
func DefaultVariants() []Variant {
	var out []Variant
	schemes := append(append([]nascent.Scheme(nil), nascent.OptimizedSchemes...), nascent.MCM)
	for _, sch := range schemes {
		for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
			out = append(out, Variant{Scheme: sch, Kind: kind})
		}
	}
	for _, impl := range []nascent.Implications{nascent.ImplyNone, nascent.ImplyCross} {
		out = append(out, Variant{Scheme: nascent.LLS, Implications: impl})
	}
	out = append(out,
		Variant{Scheme: nascent.SE, RotateLoops: true},
		Variant{Scheme: nascent.LLS, RotateLoops: true},
	)
	return out
}

// Invariant names one clause of the soundness contract.
type Invariant string

// Contract clauses.
const (
	// InvCompile: the variant must compile when naive compiles.
	InvCompile Invariant = "compile"
	// InvRun: the variant must run to a result when naive does.
	InvRun Invariant = "run"
	// InvTrap: the variant traps iff naive traps.
	InvTrap Invariant = "trap-verdict"
	// InvTrapClass: a variant trap must be a classified range violation.
	InvTrapClass Invariant = "trap-class"
	// InvOutput: identical output (prefix of naive on trapping runs).
	InvOutput Invariant = "output"
	// InvChecks: dynamic checks ≤ naive dynamic checks (clean runs).
	InvChecks Invariant = "dynamic-checks"
	// InvReport: OptReport arithmetic matches the IR it describes.
	InvReport Invariant = "opt-report"
	// InvEngine: every execution engine produces the identical Result
	// (engine-differential mode, Config.Engines).
	InvEngine Invariant = "engine-identity"
)

// Divergence is one observable violation of the soundness contract.
type Divergence struct {
	Variant   Variant
	Invariant Invariant
	// Detail describes the first differing observable.
	Detail string
	// NaiveIR and OptIR are the IR dumps of the two programs (OptIR is
	// empty when the variant failed to compile).
	NaiveIR string
	OptIR   string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Variant, d.Invariant, d.Detail)
}

// Report is the outcome of one Verify run.
type Report struct {
	// Variants is the number of configurations checked.
	Variants int
	// Naive is the reference (unoptimized) run result.
	Naive nascent.RunResult
	// Divergences lists every contract violation found (empty when the
	// transformation is sound on this input).
	Divergences []Divergence
}

// OK reports whether every variant satisfied the contract.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// Err returns nil when the report is clean, else an error summarizing
// the divergences.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("oracle: %d divergence(s), first: %s", len(r.Divergences), r.Divergences[0])
}

// Summary renders a one-line-per-divergence description of the report.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("oracle: %d variants verified, no divergence", r.Variants)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d divergence(s) across %d variants:\n", len(r.Divergences), r.Variants)
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Config controls a Verify run.
type Config struct {
	// Variants to check (nil means DefaultVariants).
	Variants []Variant
	// Run bounds each execution. A zero MaxInstructions defaults to
	// 50e6. Optimized variants automatically get headroom above what
	// the naive run actually executed (INX materialization may
	// legitimately add instructions).
	Run nascent.RunConfig
	// Jobs shards the variant sweep across a bounded worker pool
	// (<= 0 means sequential). The divergence report is identical at
	// every value: results are merged in variant order.
	Jobs int
	// Engines, when it lists more than one engine, runs every variant
	// (and the naive baseline) under each and adds the engine-identity
	// invariant: all engines must produce byte-identical Results. Empty
	// means just Run.Engine. The soundness contract itself is checked
	// against the first engine's results.
	Engines []nascent.Engine
	// Mutate, when non-nil, is applied to each optimized program before
	// it is executed. Tests use it to inject deliberate
	// miscompilations and assert the oracle catches them. It runs on a
	// worker goroutine and must only touch the program it is handed,
	// replacing statements rather than editing them: the variants'
	// programs share statements with one lowering (evalpool.Job.Mutate).
	Mutate func(v Variant, p *nascent.Program)
}

// Verify compiles and runs src naive and under every variant, checking
// the soundness contract. A non-nil error means the baseline itself is
// unusable (src does not compile, or the naive run exceeds the budget)
// — that is the input's fault, not a divergence. Contract violations
// are returned inside the Report.
//
// The variant sweep runs on an evalpool engine: the ~20 configurations
// share one parse/semantic-analysis via the pool's front-end memo
// table, and Config.Jobs spreads the compile+run work across workers
// without changing the report.
func Verify(src string, cfg Config) (*Report, error) {
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
	runCfg.Engine = engines[0]

	naiveProg, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		return nil, fmt.Errorf("oracle: naive compile: %w", err)
	}
	naive, err := naiveProg.RunWith(runCfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: naive run: %w", err)
	}

	// The optimized program may execute more instructions than naive
	// (INX h-materialization, hoisted guard tests), so the comparison
	// budget is headroom above the naive run, not the raw config.
	if hr := naive.Instructions*2 + 1<<16; hr > runCfg.MaxInstructions {
		runCfg.MaxInstructions = hr
	}

	// One job per variant per engine, variant-major: engine 0 carries
	// the soundness contract, the rest feed the engine-identity check.
	ne := len(engines)
	jobs := make([]evalpool.Job, 0, len(variants)*ne)
	for _, v := range variants {
		v := v
		for _, e := range engines {
			rc := runCfg
			rc.Engine = e
			job := evalpool.Job{
				Name:   fmt.Sprintf("%s@%v", v.String(), e),
				Source: src,
				Opts:   v.Options(),
				Run:    rc,
			}
			if cfg.Mutate != nil {
				job.Mutate = func(p *nascent.Program) { cfg.Mutate(v, p) }
			}
			jobs = append(jobs, job)
		}
	}
	results := evalpool.New(max(cfg.Jobs, 1)).Evaluate(jobs)

	rep := &Report{Variants: len(variants), Naive: naive}
	naiveIR := naiveProg.Dump()

	// The naive baseline must itself be engine-independent.
	for _, e := range engines[1:] {
		rc := runCfg
		rc.Engine = e
		other, err := naiveProg.RunWith(rc)
		if err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{
				Variant:   Variant{},
				Invariant: InvEngine,
				Detail:    fmt.Sprintf("naive run failed under %v where %v succeeded: %v", e, engines[0], err),
				NaiveIR:   naiveIR,
			})
		} else if other != naive {
			rep.Divergences = append(rep.Divergences, Divergence{
				Variant:   Variant{},
				Invariant: InvEngine,
				Detail:    fmt.Sprintf("naive results differ: %v=%+v, %v=%+v", engines[0], naive, e, other),
				NaiveIR:   naiveIR,
			})
		}
	}

	for i, v := range variants {
		rep.checkVariant(v, results[i*ne], naive, naiveIR)
		rep.checkEngines(v, engines, results[i*ne:(i+1)*ne])
	}
	return rep, nil
}

// checkEngines asserts the engine-identity invariant across one
// variant's per-engine results: every engine must agree with engine 0
// on success/failure, error text, and the full Result.
func (r *Report) checkEngines(v Variant, engines []nascent.Engine, results []evalpool.Result) {
	ref := results[0]
	for k, got := range results[1:] {
		e := engines[k+1]
		switch {
		case (ref.Err == nil) != (got.Err == nil):
			r.Divergences = append(r.Divergences, Divergence{
				Variant: v, Invariant: InvEngine,
				Detail: fmt.Sprintf("%v err=%v, %v err=%v", engines[0], ref.Err, e, got.Err),
			})
		case ref.Err != nil:
			// Both failed: the failure must be the same failure.
			if ref.Err.Error() != got.Err.Error() {
				r.Divergences = append(r.Divergences, Divergence{
					Variant: v, Invariant: InvEngine,
					Detail: fmt.Sprintf("error text differs: %v=%q, %v=%q", engines[0], ref.Err, e, got.Err),
				})
			}
		case ref.Res != got.Res:
			r.Divergences = append(r.Divergences, Divergence{
				Variant: v, Invariant: InvEngine,
				Detail: fmt.Sprintf("results differ: %v=%+v, %v=%+v", engines[0], ref.Res, e, got.Res),
			})
		}
	}
}

// checkVariant validates one evaluated variant against the contract and
// appends any divergences to the report.
func (r *Report) checkVariant(v Variant, evaluated evalpool.Result, naive nascent.RunResult, naiveIR string) {
	diverge := func(inv Invariant, optIR, format string, args ...interface{}) {
		r.Divergences = append(r.Divergences, Divergence{
			Variant:   v,
			Invariant: inv,
			Detail:    fmt.Sprintf(format, args...),
			NaiveIR:   naiveIR,
			OptIR:     optIR,
		})
	}

	prog := evaluated.Prog
	if prog == nil {
		diverge(InvCompile, "", "compile failed: %v", evaluated.Err)
		return
	}
	optIR := prog.Dump()

	if o := prog.Opt; o != nil {
		if got := prog.StaticChecks(); got != o.ChecksAfter {
			diverge(InvReport, optIR, "ChecksAfter=%d but IR holds %d checks", o.ChecksAfter, got)
		}
		if want := o.ChecksBefore + o.Inserted - o.EliminatedAvail - o.EliminatedCover -
			o.EliminatedConst - o.TrapsInserted; want != o.ChecksAfter {
			diverge(InvReport, optIR,
				"counter identity broken: before=%d + inserted=%d − avail=%d − cover=%d − const=%d − traps=%d = %d, reported ChecksAfter=%d",
				o.ChecksBefore, o.Inserted, o.EliminatedAvail, o.EliminatedCover,
				o.EliminatedConst, o.TrapsInserted, want, o.ChecksAfter)
		}
	}

	if evaluated.Err != nil {
		diverge(InvRun, optIR, "run failed where naive succeeded: %v", evaluated.Err)
		return
	}
	res := evaluated.Res

	if res.Trapped != naive.Trapped {
		diverge(InvTrap, optIR, "naive trapped=%v (%s), optimized trapped=%v (%s)",
			naive.Trapped, naive.TrapNote, res.Trapped, res.TrapNote)
		return
	}
	if res.Trapped && res.TrapClass != nascent.TrapCheck && res.TrapClass != nascent.TrapStatic {
		diverge(InvTrapClass, optIR, "trap with unclassified class %q (%s)", res.TrapClass, res.TrapNote)
	}
	if naive.Trapped {
		// Earlier detection is allowed: the variant's output must be a
		// prefix of the naive output.
		if !strings.HasPrefix(naive.Output, res.Output) {
			diverge(InvOutput, optIR, "trapped output not a prefix of naive: %s",
				firstOutputDiff(naive.Output, res.Output))
		}
	} else if res.Output != naive.Output {
		diverge(InvOutput, optIR, "output differs: %s", firstOutputDiff(naive.Output, res.Output))
	}
	// Check counts are compared on completed executions only: on a
	// trapping run a scheme that hoisted checks ahead of the violating
	// access may execute checks naive never reached.
	if !naive.Trapped && res.Checks > naive.Checks {
		diverge(InvChecks, optIR, "optimized performs more dynamic checks: %d > %d", res.Checks, naive.Checks)
	}
}

// firstOutputDiff locates the first line where two outputs differ.
func firstOutputDiff(naive, opt string) string {
	nl := strings.Split(naive, "\n")
	ol := strings.Split(opt, "\n")
	for i := 0; i < len(nl) || i < len(ol); i++ {
		var n, o string
		if i < len(nl) {
			n = nl[i]
		}
		if i < len(ol) {
			o = ol[i]
		}
		if n != o {
			return fmt.Sprintf("line %d: naive %q vs optimized %q", i+1, n, o)
		}
	}
	return "outputs equal (length mismatch only)"
}
