package report_test

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/report"
	"nascent/internal/suite"
)

// readGolden returns the committed golden text of table n.
func readGolden(t *testing.T, n int) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n)))
	if err != nil {
		t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
	}
	return string(b)
}

// tableConfig is one (program, options) pair the tables measure.
type tableConfig struct {
	prog suite.Program
	opts nascent.Options
}

// tableConfigs lists every distinct (program, options) pair Tables 1–3
// measure, built from the paper's row lists rather than the report's
// job builders: per program the naive checked build (all of Table 1,
// and the denominator of Tables 2 and 3), then every Table 2 and
// Table 3 row.
func tableConfigs() []tableConfig {
	var rows []nascent.Options
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, s := range nascent.OptimizedSchemes {
			rows = append(rows, nascent.Options{BoundsChecks: true, Scheme: s, Kind: kind, Implications: nascent.ImplyFull})
		}
		for _, v := range report.Table3Variants {
			rows = append(rows, nascent.Options{BoundsChecks: true, Scheme: v.Scheme, Kind: kind, Implications: v.Impl})
		}
	}
	var out []tableConfig
	for _, p := range suite.Programs {
		seen := map[nascent.Options]bool{}
		for _, o := range append([]nascent.Options{{BoundsChecks: true}}, rows...) {
			if !seen[o] {
				seen[o] = true
				out = append(out, tableConfig{p, o})
			}
		}
	}
	return out
}

// TestRunnerSharesWork pins both sharing levels of a Runner: Tables 1–3
// evaluate each distinct configuration once (210 jobs, not the 290 the
// tables name), and execute one run per distinct optimized program
// (137).
func TestRunnerSharesWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	configs := tableConfigs()
	programs := map[[sha256.Size]byte]bool{}
	for _, c := range configs {
		o := c.opts
		o.Filename = c.prog.Name + ".mf"
		prog, err := nascent.Compile(c.prog.Source, o)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.prog.Name, c.opts, err)
		}
		programs[prog.IR.Fingerprint()] = true
	}

	r := report.New(report.Config{Jobs: 1})
	funcs := tableFuncs(r)
	for n := 1; n <= 3; n++ {
		if _, err := funcs[n](); err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
	}
	m := r.Metrics()
	if m.Jobs != len(configs) || len(configs) != 210 {
		t.Errorf("jobs = %d, distinct configurations = %d, want 210", m.Jobs, len(configs))
	}
	if runs := m.Jobs - m.SharedRuns; runs != len(programs) || runs != 137 {
		t.Errorf("executed runs = %d (%d jobs, %d shared), want one per distinct program: %d (137)",
			runs, m.Jobs, m.SharedRuns, len(programs))
	}
	t.Logf("%d jobs, %d distinct programs", m.Jobs, len(programs))
}

// TestRunnerReusesNoFailure fails every Table 2 job with an injected
// semantic error, then lifts the fault: Table 3 on the same Runner
// shares Table 2's configurations and must still match its golden, so
// nothing of the failed table may have been kept.
func TestRunnerReusesNoFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	r := report.New(report.Config{Jobs: 2})
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteSemError})
	_, err := r.Table2()
	chaos.Disable()
	if !errors.Is(err, report.ErrPartial) {
		t.Fatalf("table 2 under sem.error: err = %v, want ErrPartial", err)
	}
	got, err := r.Table3()
	if err != nil {
		t.Fatalf("table 3 after the fault: %v", err)
	}
	if got != readGolden(t, 3) {
		t.Errorf("table 3 after a failed table 2 drifted from golden\n%s", got)
	}
}

// TestRunnerRepeatable renders every table twice on one Runner, as text
// and as a JSON document: the second pass reuses every stored result,
// and must not see anything the first pass's post-processing did to
// them (Table 1's loop analysis inserts preheaders into the IR).
func TestRunnerRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	r := report.New(report.Config{Jobs: 2})
	render := func() []string {
		var out []string
		funcs := tableFuncs(r)
		for n := 1; n <= 3; n++ {
			text, err := funcs[n]()
			if err != nil {
				t.Fatalf("table %d: %v", n, err)
			}
			doc, err := r.Doc(n)
			if err != nil {
				t.Fatalf("doc %d: %v", n, err)
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, text, string(raw))
		}
		return out
	}
	first := render()
	jobs := r.Metrics().Jobs
	second := render()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("rendering %d changed on the second pass\n--- first ---\n%s\n--- second ---\n%s", i, first[i], second[i])
		}
	}
	if first[0] != readGolden(t, 1) {
		t.Errorf("table 1 drifted from golden\n%s", first[0])
	}
	if m := r.Metrics(); m.Jobs != jobs {
		t.Errorf("second pass evaluated %d more jobs, want 0", m.Jobs-jobs)
	}
}
