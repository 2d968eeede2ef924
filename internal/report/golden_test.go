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

// TestGoldenTables regenerates Tables 1–3 on the default engine, the
// bytecode pipeline, at one and eight workers and diffs them byte for
// byte against the committed golden files. The tables ARE the
// reproduction claim of the paper: any drift — an optimizer change, a
// counter change, a suite change, a bytecode pattern that miscounts —
// must show up as a reviewed golden diff, not silently. Every bytecode
// engine name builds this same Runner (TestGoldenTablesVMOpt, VMJit
// and VMRCE reach it through the names). Regenerate with:
//
//	go test ./internal/report -run 'TestGoldenTables$' -update
func TestGoldenTables(t *testing.T) {
	checkGolden(t, false, *update)
}

// TestGoldenTablesTree regenerates Tables 1–3 on the tree-walking
// reference engine, at one and eight workers, and diffs them against
// the same engine-independent golden files: the bytecode pipeline must
// land every counter, trap, and output byte exactly where the
// reference puts it, at any parallelism.
func TestGoldenTablesTree(t *testing.T) {
	checkGolden(t, true, false)
}

// TestGoldenTablesVMOpt renders Tables 1–3 on the Runner a request
// naming the vmopt engine gets, and diffs them against the same
// engine-independent golden files. Superinstruction fusion and
// dead-code elimination rewrite the dispatch stream but may never move
// a counter, trap, or output byte.
func TestGoldenTablesVMOpt(t *testing.T) {
	checkNamedGolden(t, "vmopt", 4)
}

// TestGoldenTablesVMJit renders Tables 1–3 on the Runner a request
// naming vmjit gets: the name stays parseable for clients that send
// it, and must land every counter, trap, and output byte exactly where
// the reference puts it.
func TestGoldenTablesVMJit(t *testing.T) {
	checkNamedGolden(t, "vmjit", 4)
}

// TestGoldenTablesVMRCE renders Tables 1–3 on the Runner a request
// naming vmrce gets, at one and eight workers: every counter —
// including the check columns the tables are built from — must land
// exactly where the reference puts it, at any parallelism.
func TestGoldenTablesVMRCE(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			funcs := tableFuncs(report.New(namedConfig(t, "vmrce", jobs)))
			for n := 1; n <= 3; n++ {
				diffGolden(t, funcs[n], n, fmt.Sprintf("engine=vmrce, jobs=%d", jobs))
			}
		})
	}
}

// namedConfig parses an engine name the way `rangebench -engine` and
// `/report?engine=` do and builds the Config they build from it.
func namedConfig(t *testing.T, name string, jobs int) report.Config {
	t.Helper()
	e, err := nascent.ParseEngine(name)
	if err != nil {
		t.Fatal(err)
	}
	return report.Config{Jobs: jobs, Tree: e == nascent.EngineTree}
}

// checkNamedGolden diffs each table, rendered by the Runner the engine
// name selects at the given worker count, against its golden file.
func checkNamedGolden(t *testing.T, name string, jobs int) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	funcs := tableFuncs(report.New(namedConfig(t, name, jobs)))
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			diffGolden(t, funcs[n], n, fmt.Sprintf("engine=%s, jobs=%d", name, jobs))
		})
	}
}

// diffGolden renders table n and diffs it against its golden file.
func diffGolden(t *testing.T, table func() (string, error), n int, label string) {
	t.Helper()
	got, err := table()
	if err != nil {
		t.Fatalf("table %d (%s): %v", n, label, err)
	}
	path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("table %d (%s) drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			n, label, path, got, want)
	}
}

// checkGolden diffs each table, rendered by a Runner at one and at
// eight workers on the engine tree selects, against its golden file;
// with write set it rewrites the golden files from the one-worker
// output instead.
func checkGolden(t *testing.T, tree, write bool) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	runners := map[int]map[int]func() (string, error){}
	for _, jobs := range []int{1, 8} {
		runners[jobs] = tableFuncs(report.New(report.Config{Jobs: jobs, Tree: tree}))
	}
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("table%d", n), func(t *testing.T) {
			path := filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", n))
			for _, jobs := range []int{1, 8} {
				got, err := runners[jobs][n]()
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				if write {
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
					t.Fatalf("%v (run TestGoldenTables with -update to create)", err)
				}
				if got != string(want) {
					t.Errorf("table %d (tree=%v, jobs=%d) drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
						n, tree, jobs, path, got, want)
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
