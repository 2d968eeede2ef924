package report_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nascent"
	"nascent/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden table files from current output")

// tableFuncs binds each table number to its generator on a given Runner.
func tableFuncs(r *report.Runner) map[int]func() (string, error) {
	return map[int]func() (string, error){1: r.Table1, 2: r.Table2, 3: r.Table3}
}

// TestGoldenTables regenerates Tables 1–3 and diffs them byte for byte
// against the committed golden files. The tables ARE the reproduction
// claim of the paper: any drift — an optimizer change, a counter
// change, a suite change — must show up as a reviewed golden diff, not
// silently. Regenerate with:
//
//	go test ./internal/report -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	funcs := tableFuncs(report.New(report.Config{Jobs: 1}))
	for n := 1; n <= 3; n++ {
		n := n
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			got, err := funcs[n]()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("table %d drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					n, path, got, want)
			}
		})
	}
}

// TestGoldenTablesVMOpt regenerates Tables 1–3 under the optimized
// bytecode engine and diffs them against the same engine-independent
// golden files. Superinstruction fusion and dead-code elimination
// rewrite the dispatch stream but may never move a counter, trap, or
// output byte; a fusion pattern that miscounts shows up here as a
// golden diff.
func TestGoldenTablesVMOpt(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	funcs := tableFuncs(report.New(report.Config{Jobs: 4, Engine: nascent.EngineVMOpt}))
	for n := 1; n <= 3; n++ {
		n := n
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			got, err := funcs[n]()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("table %d under the vmopt engine drifted from golden %s\n--- vmopt ---\n%s\n--- golden ---\n%s",
					n, path, got, want)
			}
		})
	}
}

// TestGoldenTablesVMJit regenerates Tables 1–3 under the vmjit engine
// name, which runs vmopt's pipeline on the switch VM, and diffs them
// against the same engine-independent golden files: a request naming
// vmjit must land every counter, trap, and output byte exactly where
// the tree-walker puts it.
func TestGoldenTablesVMJit(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	funcs := tableFuncs(report.New(report.Config{Jobs: 4, Engine: nascent.EngineVMJit}))
	for n := 1; n <= 3; n++ {
		n := n
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			got, err := funcs[n]()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("table %d under the vmjit engine drifted from golden %s\n--- vmjit ---\n%s\n--- golden ---\n%s",
					n, path, got, want)
			}
		})
	}
}

// TestGoldenTablesVMRCE regenerates Tables 1–3 under the vmrce engine
// name, which runs vmopt's pipeline, at two worker counts and diffs
// them against the same engine-independent golden files: every
// counter — including the check columns the tables are built from —
// must land exactly where the tree-walker puts it, at any parallelism.
func TestGoldenTablesVMRCE(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			funcs := tableFuncs(report.New(report.Config{Jobs: jobs, Engine: nascent.EngineVMRCE}))
			for n := 1; n <= 3; n++ {
				got, err := funcs[n]()
				if err != nil {
					t.Fatalf("table %d at jobs=%d: %v", n, jobs, err)
				}
				path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
				}
				if got != string(want) {
					t.Errorf("table %d under the vmrce engine at jobs=%d drifted from golden %s\n--- vmrce ---\n%s\n--- golden ---\n%s",
						n, jobs, path, got, want)
				}
			}
		})
	}
}

// TestParallelMatchesSequential is the engine's core safety claim: a
// pool with many workers renders byte-identical tables to the
// sequential pool. Run under -race in CI, it doubles as a data-race
// stress of the full table pipeline.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	seq := tableFuncs(report.New(report.Config{Jobs: 1}))
	par := tableFuncs(report.New(report.Config{Jobs: 8}))
	for n := 1; n <= 3; n++ {
		n := n
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			want, err := seq[n]()
			if err != nil {
				t.Fatal(err)
			}
			got, err := par[n]()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("table %d differs between jobs=1 and jobs=8\n--- jobs=8 ---\n%s\n--- jobs=1 ---\n%s",
					n, got, want)
			}
		})
	}
}
