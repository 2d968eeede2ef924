package progio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nascent"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the golden .bin fixtures")

// goldenConfigs are the pinned (program, options, pipeline) triples
// behind testdata/*.bin. Four suite programs across the optimizer
// range: the naive tree baseline, a scheme-optimized build, and two
// superinstruction-fused builds. "vm" names the plain vm.Compile
// pipeline, "vmopt" the Compile → Optimize pipeline every bytecode
// engine runs.
var goldenConfigs = []struct {
	fixture  string
	program  string
	opts     nascent.Options
	pipeline string // "vm" or "vmopt"
}{
	{"vortex_naive_vm.bin", "vortex", nascent.Options{BoundsChecks: true, Scheme: nascent.Naive}, "vm"},
	{"mdg_lls_vm.bin", "mdg", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, "vm"},
	{"linpackd_lls_vmopt.bin", "linpackd", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, "vmopt"},
	{"trfd_lls_vmopt.bin", "trfd", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, "vmopt"},
}

// compileGolden builds one golden config through its pinned pipeline.
func compileGolden(t testing.TB, program string, opts nascent.Options, pipeline string) *vm.Program {
	t.Helper()
	p, err := suite.Get(program)
	if err != nil {
		t.Fatal(err)
	}
	opts.Filename = program + ".mf"
	prog, err := nascent.Compile(p.Source, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", program, err)
	}
	var vp *vm.Program
	if pipeline == "vmopt" {
		vp, err = vm.CompileOptimized(prog.IR)
	} else {
		vp, err = vm.Compile(prog.IR)
	}
	if err != nil {
		t.Fatalf("vm compile %s (%s): %v", program, pipeline, err)
	}
	return vp
}

// TestGoldenFixtures pins the exact byte stream of the current format
// version for three suite programs. Any encoding change — field
// order, widths, a new section — shifts these bytes and fails here;
// the fix is to bump progio.Version AND regenerate with
//
//	go test ./internal/progio -run TestGoldenFixtures -update
//
// so readers of the old version can never misparse new streams.
func TestGoldenFixtures(t *testing.T) {
	for _, gc := range goldenConfigs {
		t.Run(gc.fixture, func(t *testing.T) {
			enc := progio.Encode(compileGolden(t, gc.program, gc.opts, gc.pipeline))
			path := filepath.Join("testdata", gc.fixture)

			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture: %v (regenerate with -update)", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encoding of %s/%v diverges from fixture %s (%d vs %d bytes).\n"+
					"If the wire format changed intentionally: bump progio.Version, then regenerate with -update.",
					gc.program, gc.opts.Scheme, gc.fixture, len(enc), len(want))
			}
		})
	}
}

// TestGoldenVersionGuard refuses fixtures generated under a different
// format version: after a version bump the fixtures MUST be
// regenerated, and a fixture from the future means the working tree
// mixes codec generations.
func TestGoldenVersionGuard(t *testing.T) {
	for _, gc := range goldenConfigs {
		data, err := os.ReadFile(filepath.Join("testdata", gc.fixture))
		if err != nil {
			t.Fatalf("read fixture: %v (regenerate with -update)", err)
		}
		if len(data) < 6 {
			t.Fatalf("fixture %s is shorter than the header", gc.fixture)
		}
		if v := binary.LittleEndian.Uint16(data[4:6]); v != progio.Version {
			t.Fatalf("fixture %s was generated for format version %d, codec is at %d — regenerate with -update",
				gc.fixture, v, progio.Version)
		}
		// The fixture must still decode and run under this build.
		if _, err := progio.Decode(data); err != nil {
			t.Fatalf("fixture %s does not decode: %v", gc.fixture, err)
		}
	}
}

// TestOldVersionFixtures pins the reader's behavior on streams from
// previous format generations. testdata/v1/ holds fixtures frozen at
// format version 1, before the guard/deopt metadata rev; testdata/v2/
// holds fixtures frozen at version 2, before the fused-opcode
// renumbering; testdata/v3/ holds fixtures frozen at version 3, before
// the guard/deopt rewrite was deleted; testdata/v4/ holds fixtures
// frozen at version 4, before the Aff1 and BinStore1 families and the
// implied-pair column of opCheckBlock were deleted. The current reader
// must reject each with a typed *VersionError naming its old version —
// never a generic corruption error, and never a successful decode.
// This is the contract the disk cache relies on to know "re-encode"
// rather than "discard as damaged" when it meets its own stale
// artifacts after an upgrade.
func TestOldVersionFixtures(t *testing.T) {
	for gen := uint16(1); gen < progio.Version; gen++ {
		dir := fmt.Sprintf("v%d", gen)
		old, err := filepath.Glob(filepath.Join("testdata", dir, "*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if len(old) == 0 {
			t.Fatalf("no frozen %s fixtures under testdata/%s", dir, dir)
		}
		for _, path := range old {
			// v1 subtests keep the bare file names they had before
			// later generations joined.
			name := filepath.Base(path)
			if gen > 1 {
				name = dir + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				_, err = progio.Decode(data)
				if err == nil {
					t.Fatalf("%s fixture decoded under a v%d reader", dir, progio.Version)
				}
				var ve *progio.VersionError
				if !errors.As(err, &ve) {
					t.Fatalf("want *VersionError, got %T: %v", err, err)
				}
				if ve.Got != gen {
					t.Fatalf("VersionError.Got = %d, want %d", ve.Got, gen)
				}
				if ve.OpSkew {
					t.Fatalf("version mismatch misreported as opcode skew: %v", ve)
				}
				if !errors.Is(err, progio.ErrVersion) {
					t.Fatalf("errors.Is(err, ErrVersion) is false for %v", err)
				}
				var ce *progio.CorruptError
				if errors.As(err, &ce) {
					t.Fatalf("version mismatch surfaced as corruption: %v", err)
				}
			})
		}
	}
}

// TestGoldenFixturesRun executes each fixture as decoded from disk
// and requires bit-identical observables to the freshly compiled
// program — the disk path cannot drift from the compile path.
func TestGoldenFixturesRun(t *testing.T) {
	for _, gc := range goldenConfigs {
		t.Run(gc.fixture, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", gc.fixture))
			if err != nil {
				t.Fatalf("read fixture: %v (regenerate with -update)", err)
			}
			decoded, err := progio.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			fresh := compileGolden(t, gc.program, gc.opts, gc.pipeline)

			want, err1 := fresh.Run(nascent.RunConfig{})
			got, err2 := decoded.Run(nascent.RunConfig{})
			if err1 != nil || err2 != nil {
				t.Fatalf("run: fresh=%v fixture=%v", err1, err2)
			}
			if want != got {
				t.Fatalf("fixture run diverges:\nfresh:   %+v\nfixture: %+v", want, got)
			}
		})
	}
}
