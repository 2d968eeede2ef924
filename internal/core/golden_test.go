package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nascent/internal/conformance"
	"nascent/internal/core"
	"nascent/internal/rangecheck"
	"nascent/internal/suite"
	"nascent/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/optimized.golden from current output")

var (
	allSchemes = []core.Scheme{core.NI, core.CS, core.LNI, core.SE, core.LI, core.LLS, core.ALL, core.MCM}
	allKinds   = []core.CheckKind{core.PRX, core.INX}
	allModes   = []rangecheck.Mode{rangecheck.ImplyFull, rangecheck.ImplyNone, rangecheck.ImplyCross}
)

// goldenLine optimizes one program under opts and renders the optimized
// IR's fingerprint plus the Result counters.
func goldenLine(t *testing.T, name, src string, opts core.Options) string {
	t.Helper()
	p := testutil.BuildIR(t, src, true)
	res, err := core.Optimize(p, opts)
	if err != nil {
		t.Fatalf("%s %v: %v", name, opts, err)
	}
	degraded := "-"
	if len(res.Degraded) > 0 {
		degraded = strings.Join(res.Degraded, ",")
	}
	return fmt.Sprintf("%s %v %v %v fp=%x avail=%d cover=%d inserted=%d traps=%d degraded=%s\n",
		name, opts.Scheme, opts.Kind, opts.Mode, p.Fingerprint(),
		res.EliminatedAvail, res.EliminatedCover, res.Inserted, res.TrapsInserted, degraded)
}

// TestOptimizedGolden pins the optimizer's output byte for byte: every
// suite program under every scheme × kind × implication mode, plus the
// conformance corpus under LLS and ALL. Each line is the fingerprint of
// the optimized IR and the Result counters, so any change to what the
// optimizer emits — including the order in which it inserts checks —
// shows up as a reviewed diff. Regenerate with:
//
//	go test ./internal/core -run TestOptimizedGolden -update
func TestOptimizedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full optimizer sweep in short mode")
	}
	var b strings.Builder
	for _, p := range suite.Programs {
		for _, sch := range allSchemes {
			for _, kind := range allKinds {
				for _, mode := range allModes {
					b.WriteString(goldenLine(t, p.Name, p.Source, core.Options{Scheme: sch, Kind: kind, Mode: mode}))
				}
			}
		}
	}
	for _, c := range conformance.Corpus {
		for _, sch := range []core.Scheme{core.LLS, core.ALL} {
			b.WriteString(goldenLine(t, c.Name, c.Src, core.Options{Scheme: sch}))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "optimized.golden")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d drifted:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("golden has %d lines, got %d", len(wl), len(gl))
		}
	}
}
