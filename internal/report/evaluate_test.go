package report

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/suite"
)

// suiteMatrix is the evaluation grid of the paper's Table 2: every
// suite program naive, then under every scheme × check kind.
func suiteMatrix() []job {
	var jobs []job
	for i := range suite.Programs {
		jobs = append(jobs, naiveJob(i))
		for _, sch := range nascent.OptimizedSchemes {
			for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
				jobs = append(jobs, optJob(i, sch, kind, nascent.ImplyFull))
			}
		}
	}
	return jobs
}

// programJobs lists every configuration Tables 1–3 measure of suite
// program i: naive, then every scheme × kind × implication set.
func programJobs(i int) []job {
	jobs := []job{naiveJob(i)}
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, sch := range nascent.OptimizedSchemes {
			jobs = append(jobs, optJob(i, sch, kind, nascent.ImplyFull))
		}
		for _, v := range Table3Variants {
			if v.Impl != nascent.ImplyFull {
				jobs = append(jobs, optJob(i, v.Scheme, kind, v.Impl))
			}
		}
	}
	return jobs
}

// observable is everything about a result that the tables are built
// from.
type observable struct {
	Err          string
	Instructions uint64
	Checks       uint64
	Output       string
	StaticChecks int
	Opt          nascent.OptReport
}

func observe(results []result) []observable {
	out := make([]observable, len(results))
	for i, r := range results {
		o := observable{Instructions: r.Res.Instructions, Checks: r.Res.Checks, Output: r.Res.Output}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		if r.Prog != nil {
			o.StaticChecks = r.Prog.StaticChecks()
			if r.Prog.Opt != nil {
				o.Opt = *r.Prog.Opt
			}
		}
		out[i] = o
	}
	return out
}

// TestEvaluateDeterministicAcrossWorkerCounts evaluates the suite
// matrix on fresh Runners at 1, 4 and 16 workers and asserts the
// ordered results are identical: completion order must never leak into
// the observables the tables are rendered from. Run under -race it is
// also a data-race stress of the Runner's shared state.
func TestEvaluateDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in short mode")
	}
	jobs := suiteMatrix()
	var ref []observable
	for _, workers := range []int{1, 4, 16} {
		r := New(Config{Jobs: workers})
		got := observe(r.evaluate(jobs))
		for i, o := range got {
			if o.Err != "" {
				t.Fatalf("jobs=%d: %s: %s", workers, jobs[i].name, o.Err)
			}
		}
		if m := r.Metrics(); m.Jobs != len(jobs) || m.Errors != 0 {
			t.Errorf("jobs=%d: metrics jobs=%d errors=%d, want %d/0", workers, m.Jobs, m.Errors, len(jobs))
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Errorf("jobs=%d: %s diverges from jobs=1:\n got %+v\nwant %+v",
					workers, jobs[i].name, got[i], ref[i])
			}
		}
	}
}

// TestEvaluateSharesSuiteFrontends pins the front-end sharing on the
// real matrix: 150 jobs over 10 programs analyze exactly 10 front ends.
func TestEvaluateSharesSuiteFrontends(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in short mode")
	}
	jobs := suiteMatrix()
	r := New(Config{Jobs: 8})
	for i, res := range r.evaluate(jobs) {
		if res.Err != nil {
			t.Fatalf("%s: %v", jobs[i].name, res.Err)
		}
	}
	m := r.Metrics()
	if m.Frontends != len(suite.Programs) || len(jobs) != 150 {
		t.Errorf("front ends analyzed = %d for %d jobs, want %d for 150", m.Frontends, len(jobs), len(suite.Programs))
	}
	if m.Jobs != len(jobs) || m.Errors != 0 {
		t.Errorf("metrics jobs=%d errors=%d, want %d/0", m.Jobs, m.Errors, len(jobs))
	}
}

// TestEvaluateSharesFrontendAcrossSchemes: every scheme × kind of one
// program compiles from one front end, and only the job that analyzed
// it is charged the analysis time.
func TestEvaluateSharesFrontendAcrossSchemes(t *testing.T) {
	var jobs []job
	for _, sch := range []nascent.Scheme{nascent.Naive, nascent.NI, nascent.SE, nascent.LLS} {
		for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
			jobs = append(jobs, optJob(0, sch, kind, nascent.ImplyFull))
		}
	}
	r := New(Config{Jobs: 4})
	analyzed := 0
	for i, res := range r.evaluate(jobs) {
		if res.Err != nil {
			t.Fatalf("%s: %v", jobs[i].name, res.Err)
		}
		if res.Frontend != 0 {
			analyzed++
		}
	}
	if analyzed != 1 {
		t.Errorf("%d jobs charged with the analysis, want 1 (one analysis, the rest shared)", analyzed)
	}
	if m := r.Metrics(); m.Frontends != 1 || m.Jobs != len(jobs) || m.Errors != 0 {
		t.Errorf("metrics: %+v, want 1 front end for %d jobs and no errors", m, len(jobs))
	}
}

// TestEvaluateSharesRunsByFingerprint pins what a Runner shares between
// runs: configurations that compile to the same program run once and
// hand every job the same full result. The sharing is scoped to the
// Runner: a second evaluation on it executes nothing, a fresh Runner
// runs again.
func TestEvaluateSharesRunsByFingerprint(t *testing.T) {
	const prog = 0
	p := suite.Programs[prog]
	jobs := programJobs(prog)
	fps := make([][sha256.Size]byte, len(jobs))
	distinct := map[[sha256.Size]byte]bool{}
	for i, j := range jobs {
		o := j.opts
		o.Filename = p.Name + ".mf"
		compiled, err := nascent.Compile(p.Source, o)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		fps[i] = compiled.IR.Fingerprint()
		distinct[fps[i]] = true
	}
	if len(distinct) >= len(jobs) {
		t.Fatalf("%d jobs compile to %d programs: nothing to share", len(jobs), len(distinct))
	}

	// One worker: concurrent jobs of one program may both miss the
	// stored run and both execute it.
	r := New(Config{Jobs: 1})
	results := r.evaluate(jobs)
	first := map[[sha256.Size]byte]nascent.RunResult{}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", jobs[i].name, res.Err)
		}
		if want, ok := first[fps[i]]; ok && res.Res != want {
			t.Errorf("%s: result %+v differs from %+v of the same program", jobs[i].name, res.Res, want)
		}
		first[fps[i]] = res.Res
	}
	m := r.Metrics()
	if m.Runs != len(distinct) || m.Jobs != len(jobs) {
		t.Errorf("runs = %d for %d jobs, want one per distinct program: %d", m.Runs, m.Jobs, len(distinct))
	}

	again := r.evaluate(jobs)
	if m2 := r.Metrics(); m2 != m {
		t.Errorf("second evaluation on one Runner: metrics %+v, want %+v unchanged", m2, m)
	}
	for i := range again {
		if again[i].Res != results[i].Res {
			t.Errorf("%s: second evaluation %+v, want %+v", jobs[i].name, again[i].Res, results[i].Res)
		}
	}

	fresh := New(Config{Jobs: 1})
	if res := fresh.evaluate(jobs[:1])[0]; res.Err != nil || res.Res != results[0].Res {
		t.Fatalf("fresh Runner: %+v, %v; want %+v", res.Res, res.Err, results[0].Res)
	}
	if got := fresh.Metrics().Runs; got != 1 {
		t.Errorf("fresh Runner executed %d runs, want 1", got)
	}
}
