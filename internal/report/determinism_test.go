package report_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nascent/internal/chaos"
	"nascent/internal/report"
)

// TestChaosOffDeterminism pins the chaos-off guarantee end to end: with
// the injection registry disabled, Tables 1–3 are byte-identical to the
// committed goldens at every worker count — the chaos plumbing and the
// pool must cost exactly nothing in observable behavior. Run under
// -race in CI, the jobs=4/16 passes double as a data-race stress of
// the pool.
func TestChaosOffDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	if chaos.Active() {
		t.Fatalf("chaos registry enabled (%s) — determinism test needs it off", chaos.SpecString())
	}
	golden := make(map[int]string)
	for n := 1; n <= 3; n++ {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n)))
		if err != nil {
			t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
		}
		golden[n] = string(b)
	}
	for _, jobs := range []int{1, 4, 16} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			funcs := tableFuncs(report.New(report.Config{Jobs: jobs}))
			for n := 1; n <= 3; n++ {
				got, err := funcs[n]()
				if err != nil {
					t.Fatalf("table %d at jobs=%d: %v", n, jobs, err)
				}
				if got != golden[n] {
					t.Errorf("table %d at jobs=%d drifted from golden\n--- got ---\n%s", n, jobs, got)
				}
			}
		})
	}
}
