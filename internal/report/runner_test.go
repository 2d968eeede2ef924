package report_test

import (
	"strings"
	"testing"

	"nascent"
	"nascent/internal/report"
	"nascent/internal/suite"
)

// TestRunnerTimingsAndTrace exercises the opt-in observability paths:
// wall-clock columns and the work counts rangebench -trace prints.
func TestRunnerTimingsAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in short mode")
	}
	r := report.New(report.Config{Jobs: 4, Timings: true})
	out, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Range", "Nascent", "compilation time"} {
		if !strings.Contains(out, want) {
			t.Errorf("timed table 2 missing %q", want)
		}
	}
	m := r.Metrics()
	if m.Jobs == 0 || m.Errors != 0 || m.Runs == 0 {
		t.Errorf("metrics: %+v", m)
	}
	// 14 rows × 10 programs + 10 naive jobs share 10 front ends.
	if m.Frontends != len(suite.Programs) {
		t.Errorf("front ends analyzed = %d, want %d", m.Frontends, len(suite.Programs))
	}
}

// TestMetricsString pins the one line rangebench -trace prints.
func TestMetricsString(t *testing.T) {
	m := report.Metrics{Jobs: 210, Errors: 1, Frontends: 10, Runs: 137}
	want := "report: 210 jobs (1 errors), 10 front ends analyzed, 137 runs executed"
	if got := m.String(); got != want {
		t.Errorf("Metrics.String() = %q, want %q", got, want)
	}
}

// TestSummarizeGrid checks the summary rows' shape and the paper's
// coarse ordering claims on them: every primed variant eliminates no
// more than its full-implication row, and LLS dominates NI.
func TestSummarizeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in short mode")
	}
	rows, err := report.New(report.Config{Jobs: 4}).Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (len(nascent.OptimizedSchemes) + 3); len(rows) != want {
		t.Fatalf("got %d summary rows, want %d", len(rows), want)
	}
	byKey := map[string]report.SummaryRow{}
	for _, r := range rows {
		if len(r.Percent) != len(suite.Programs) {
			t.Fatalf("%s/%v: %d programs, want %d", r.Label, r.Kind, len(r.Percent), len(suite.Programs))
		}
		byKey[r.Label+"/"+r.Kind.String()] = r
	}
	for _, kind := range []string{"PRX", "INX"} {
		for _, pair := range [][2]string{{"NI'", "NI"}, {"SE'", "SE"}, {"LLS'", "LLS"}, {"NI", "LLS"}} {
			lo, hi := byKey[pair[0]+"/"+kind], byKey[pair[1]+"/"+kind]
			for _, p := range suite.Programs {
				if lo.Percent[p.Name] > hi.Percent[p.Name]+1e-9 {
					t.Errorf("%s: %s/%s eliminates %.2f%% > %s's %.2f%%",
						p.Name, pair[0], kind, lo.Percent[p.Name], pair[1], hi.Percent[p.Name])
				}
			}
		}
	}
}
