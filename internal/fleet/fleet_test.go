package fleet_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/fleet"
	"nascent/internal/report"
	"nascent/internal/suite"
)

// TestMain doubles as the worker executable: the coordinator respawns
// this test binary with NASCENT_FLEET_WORKER=1 and it drops straight
// into ServeWorker on stdio — the standard re-exec trick, so fleet
// tests need no second binary on disk. NASCENT_FLEET_CHAOS arms fault
// injection inside the worker process (the kill/hang sites live
// there, not on the coordinator).
func TestMain(m *testing.M) {
	if os.Getenv("NASCENT_FLEET_WORKER") == "1" {
		if txt := os.Getenv("NASCENT_FLEET_CHAOS"); txt != "" {
			spec, err := chaos.ParseSpec(txt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "worker: bad chaos spec: %v\n", err)
				os.Exit(2)
			}
			chaos.Enable(spec)
		}
		if err := fleet.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerCommand respawns the test binary as a fleet worker.
func workerCommand(chaosSpec string) func(int) *exec.Cmd {
	return func(i int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"NASCENT_FLEET_WORKER=1",
			"NASCENT_FLEET_CHAOS="+chaosSpec)
		return cmd
	}
}

func newFleet(t *testing.T, workers int, chaosSpec string, mut func(*fleet.Config)) *fleet.Fleet {
	t.Helper()
	cfg := fleet.Config{
		Workers: workers,
		Command: workerCommand(chaosSpec),
		Logf:    t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestIdentityTables is the fleet's core contract: every paper table,
// generated with runs sharded across two worker processes, must be
// byte-identical to the same table generated fully in-process. Table 1
// runs the tree engine (source crosses the wire), Tables 2–3 run the
// bytecode engines (progio streams cross the wire).
func TestIdentityTables(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and measures the full suite")
	}
	cases := []struct {
		name   string
		engine nascent.Engine
		table  func(*report.Runner) (string, error)
	}{
		{"table1/tree", nascent.EngineTree, (*report.Runner).Table1},
		{"table2/vm", nascent.EngineVM, (*report.Runner).Table2},
		{"table3/vmopt", nascent.EngineVMOpt, (*report.Runner).Table3},
		// The top tier shards too: the coordinator ships the vmrce
		// bytes with the vmjit tier on the wire and the worker
		// closure-compiles them, so the fleet table must match the
		// in-process one byte for byte.
		{"table2/vmjit", nascent.EngineVMJit, (*report.Runner).Table2},
		// The guard/deopt engine ships at the rce encoding level: the
		// preheader guards and bulk-counted checks cross the wire baked
		// into the bytecode, so workers replay the exact elimination the
		// coordinator compiled.
		{"table2/vmrce", nascent.EngineVMRCE, (*report.Runner).Table2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := report.Config{Engine: tc.engine}

			want, err := tc.table(report.New(report.Config{Jobs: 4, Engine: tc.engine}))
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			f := newFleet(t, 2, "", nil)
			got, err := tc.table(report.NewOnEvaluator(f, cfg))
			if err != nil {
				t.Fatalf("fleet: %v", err)
			}
			if got != want {
				t.Fatalf("fleet table diverges from in-process table:\n--- in-process ---\n%s\n--- fleet ---\n%s", want, got)
			}

			m := f.Metrics()
			if m.Instructions == 0 || m.Checks == 0 {
				t.Fatalf("fleet counters empty: %+v", m)
			}
			if m.Retries != 0 || m.WorkerDeaths != 0 || m.Quarantined != 0 {
				t.Fatalf("healthy fleet run shows supervision noise: %+v", m)
			}
		})
	}
}

// TestIdentityResults compares raw results (counters, outputs, traps)
// job by job across the suite × schemes × engines matrix.
func TestIdentityResults(t *testing.T) {
	var jobs []evalpool.Job
	for _, p := range suite.Programs[:4] {
		for _, eng := range nascent.AllEngines() {
			for _, sch := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
				jobs = append(jobs, evalpool.Job{
					Name:     fmt.Sprintf("%s/%v/%v", p.Name, sch, eng),
					Source:   p.Source,
					Filename: p.Name + ".mf",
					Opts:     nascent.Options{BoundsChecks: true, Scheme: sch},
					Run:      nascent.RunConfig{Engine: eng},
				})
			}
		}
	}

	pool := evalpool.New(4)
	want := pool.Evaluate(jobs)
	f := newFleet(t, 2, "", nil)
	got := f.Evaluate(jobs)

	for i := range jobs {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("%s: error mismatch: pool=%v fleet=%v", jobs[i].Name, want[i].Err, got[i].Err)
		}
		if want[i].Res != got[i].Res {
			t.Fatalf("%s: result mismatch:\npool:  %+v\nfleet: %+v", jobs[i].Name, want[i].Res, got[i].Res)
		}
	}
}

// findKillSeed searches for a seed where the named job's attempt 0 is
// killed and attempt 1 survives, so the heal is deterministic.
func findKillSeed(t *testing.T, site chaos.Site, name string) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		spec := chaos.Spec{Seed: seed, Rate: 0.5, Site: site}
		if chaos.Decide(spec, site, chaos.AttemptKey(name, 0)) &&
			!chaos.Decide(spec, site, chaos.AttemptKey(name, 1)) {
			return seed
		}
	}
	t.Fatal("no suitable seed in 1..5000")
	return 0
}

const healSrc = "program p\n  real a(8)\n  integer i\n  do i = 1, 8\n    a(i) = float(i)\n  enddo\n  print a(8)\nend\n"

// TestWorkerKillHeals arms fleet.worker.kill inside the worker
// processes: attempt 0's process exits mid-job, the coordinator
// observes member loss, respawns the seat, retries — and the result is
// indistinguishable from an unfaulted run.
func TestWorkerKillHeals(t *testing.T) {
	const name = "heal/kill"
	seed := findKillSeed(t, chaos.SiteFleetKill, name)
	spec := chaos.Spec{Seed: seed, Rate: 0.5, Site: chaos.SiteFleetKill}

	f := newFleet(t, 2, spec.String(), nil)
	job := evalpool.Job{
		Name: name, Source: healSrc, Filename: "heal.mf",
		Opts: nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
		Run:  nascent.RunConfig{Engine: nascent.EngineVM},
	}
	res := f.Evaluate([]evalpool.Job{job})[0]
	if res.Err != nil {
		t.Fatalf("killed-and-healed job failed: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (kill then heal)", res.Attempts)
	}
	if res.Res.Output == "" || res.Res.Instructions == 0 {
		t.Fatalf("healed result empty: %+v", res.Res)
	}

	m := f.Metrics()
	if m.WorkerDeaths == 0 || m.Retries == 0 {
		t.Fatalf("member loss not accounted: %+v", m)
	}
	if m.Quarantined != 0 {
		t.Fatalf("healed job was quarantined: %+v", m)
	}

	// The healed result matches a cleanly computed one exactly.
	clean := evalpool.New(1).Evaluate([]evalpool.Job{job})[0]
	if res.Res != clean.Res {
		t.Fatalf("healed result diverges from clean run:\nfleet: %+v\nclean: %+v", res.Res, clean.Res)
	}
}

// TestWorkerHangTimesOutAndHeals arms fleet.worker.hang: the stuck
// process is killed at the attempt deadline and the retry succeeds.
func TestWorkerHangTimesOutAndHeals(t *testing.T) {
	const name = "heal/hang"
	seed := findKillSeed(t, chaos.SiteFleetHang, name)
	spec := chaos.Spec{Seed: seed, Rate: 0.5, Site: chaos.SiteFleetHang}

	f := newFleet(t, 2, spec.String(), func(c *fleet.Config) {
		c.JobTimeout = 2 * time.Second
	})
	job := evalpool.Job{
		Name: name, Source: healSrc, Filename: "heal.mf",
		Opts: nascent.Options{BoundsChecks: true},
		Run:  nascent.RunConfig{Engine: nascent.EngineVMOpt},
	}
	res := f.Evaluate([]evalpool.Job{job})[0]
	if res.Err != nil {
		t.Fatalf("hung-and-healed job failed: %v", res.Err)
	}
	if m := f.Metrics(); m.Timeouts == 0 {
		t.Fatalf("hang not observed as a timeout: %+v", m)
	}
}

// TestQuarantine: a job whose every attempt is killed must surface the
// same typed *evalpool.PoisonedInputError the in-process pool uses,
// carrying the replay spec.
func TestQuarantine(t *testing.T) {
	spec := chaos.Spec{Seed: 7, Rate: 1, Site: chaos.SiteFleetKill}
	f := newFleet(t, 1, spec.String(), func(c *fleet.Config) {
		c.MaxAttempts = 2
	})
	job := evalpool.Job{
		Name: "doomed", Source: healSrc, Filename: "heal.mf",
		Run: nascent.RunConfig{Engine: nascent.EngineVM},
	}
	res := f.Evaluate([]evalpool.Job{job})[0]
	var poisoned *evalpool.PoisonedInputError
	if !errors.As(res.Err, &poisoned) {
		t.Fatalf("got %v, want *evalpool.PoisonedInputError", res.Err)
	}
	if poisoned.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", poisoned.Attempts)
	}
	if m := f.Metrics(); m.Quarantined != 1 {
		t.Fatalf("quarantine not counted: %+v", m)
	}
}
