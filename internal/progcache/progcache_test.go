package progcache_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/progcache"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileEntry compiles one suite program into a cache entry, the way
// the service's fill path does.
func compileEntry(t *testing.T, name string, opts nascent.Options, optimized bool) *progcache.Entry {
	t.Helper()
	p, err := suite.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	opts.Filename = name + ".mf"
	prog, err := nascent.Compile(p.Source, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var vp *vm.Program
	if optimized {
		vp, err = vm.CompileOptimized(prog.IR)
	} else {
		vp, err = vm.Compile(prog.IR)
	}
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return &progcache.Entry{Prog: vp, StaticChecks: prog.StaticChecks(), Opt: prog.Opt}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := progcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}
	e := compileEntry(t, "linpackd", opts, true)
	k := progcache.KeyOf("src-of-linpackd", "linpackd.mf", opts, nascent.EngineVMOpt)

	if _, err := c.Get(k); !errors.Is(err, progcache.ErrMiss) {
		t.Fatalf("Get on empty cache = %v, want ErrMiss", err)
	}
	if err := c.Put(k, e); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(k)
	if err != nil {
		t.Fatalf("Get after Put: %v", err)
	}
	if got.StaticChecks != e.StaticChecks {
		t.Fatalf("StaticChecks = %d, want %d", got.StaticChecks, e.StaticChecks)
	}
	if !reflect.DeepEqual(got.Opt, e.Opt) {
		t.Fatalf("OptReport diverges:\ngot:  %+v\nwant: %+v", got.Opt, e.Opt)
	}
	want, err1 := e.Prog.Run(nascent.RunConfig{})
	have, err2 := got.Prog.Run(nascent.RunConfig{})
	if err1 != nil || err2 != nil {
		t.Fatalf("run: fresh=%v cached=%v", err1, err2)
	}
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("cached run diverges:\nfresh:  %+v\ncached: %+v", want, have)
	}

	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Puts != 1 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss / 1 put", m)
	}
}

// resealEnvelope recomputes the envelope CRC after a deliberate
// mutation, so a test reaches the layer it aims at.
func resealEnvelope(data []byte) []byte {
	out := append([]byte(nil), data...)
	crc := crc32.Checksum(out[:len(out)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc)
	return out
}

// TestFaults damages a cache file — truncation, bit flips, a wrong
// envelope version — and requires the same recovery each time: a typed
// error (never a panic), a miss counted in the metrics, and a
// recompile + Put that heals the entry with a correct result. Get is
// the disk cache's one integrity check, so the last two cases damage a
// small entry at every byte offset and every shorter length.
func TestFaults(t *testing.T) {
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.SE}
	key := progcache.KeyOf("src-of-mdg", "mdg.mf", opts, nascent.EngineVMOpt)
	fresh := compileEntry(t, "mdg", opts, false)
	wantRes, err := fresh.Prog.Run(nascent.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A program stream frozen at progio format version 3, whose
	// programs could carry guard/deopt opcodes this build no longer has.
	v3, err := os.ReadFile(filepath.Join("..", "progio", "testdata", "v3", "mdg_lls_vm.bin"))
	if err != nil {
		t.Fatal(err)
	}

	// A program stream frozen at progio format version 4, numbered
	// before the Aff1 and BinStore1 families were deleted.
	v4, err := os.ReadFile(filepath.Join("..", "progio", "testdata", "v4", "mdg_lls_vm.bin"))
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name    string
		mutate  func([]byte) []byte
		version bool // expect ErrVersion instead of ErrCorrupt
	}{
		{"truncated-header", func(b []byte) []byte { return b[:5] }, false},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }, false},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-1] }, false},
		{"bit-flip-meta", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[10] ^= 0x40
			return b
		}, false},
		{"bit-flip-payload", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-20] ^= 0x01
			return b
		}, false},
		{"wrong-version", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			binary.LittleEndian.PutUint16(b[4:6], 0x7fff)
			return resealEnvelope(b)
		}, true},
		// An entry a build at progio v3 left on disk: the envelope is
		// intact and current, its payload is a v3 program stream.
		{"v3-payload", func(b []byte) []byte {
			metaLen := binary.LittleEndian.Uint32(b[6:10])
			out := append([]byte(nil), b[:10+metaLen]...)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(v3)))
			out = append(out, v3...)
			return resealEnvelope(append(out, 0, 0, 0, 0))
		}, true},
		// An entry a build at progio v4 left on disk: its opcode
		// numbers and check-block entries are the old layout.
		{"v4-payload", func(b []byte) []byte {
			metaLen := binary.LittleEndian.Uint32(b[6:10])
			out := append([]byte(nil), b[:10+metaLen]...)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(v4)))
			out = append(out, v4...)
			return resealEnvelope(append(out, 0, 0, 0, 0))
		}, true},
	}

	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := progcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(key, fresh); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key.String()+".npc")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			before := c.Metrics()
			_, err = c.Get(key)
			if err == nil {
				t.Fatal("Get on a damaged file succeeded")
			}
			if errors.Is(err, progcache.ErrMiss) {
				t.Fatalf("damage surfaced as a plain miss, want a typed corruption error")
			}
			if d.version {
				if !errors.Is(err, progio.ErrVersion) {
					t.Fatalf("got %v, want ErrVersion", err)
				}
			} else if !errors.Is(err, progio.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			after := c.Metrics()
			if after.Misses != before.Misses+1 {
				t.Fatalf("damage did not count as a miss: %+v -> %+v", before, after)
			}
			if d.version && after.BadVersion != before.BadVersion+1 {
				t.Fatalf("BadVersion not counted: %+v", after)
			}
			if !d.version && after.Corrupt != before.Corrupt+1 {
				t.Fatalf("Corrupt not counted: %+v", after)
			}

			// Transparent recompile: the caller's recovery path Puts a
			// fresh compile and the entry heals.
			if err := c.Put(key, compileEntry(t, "mdg", opts, false)); err != nil {
				t.Fatalf("healing Put: %v", err)
			}
			healed, err := c.Get(key)
			if err != nil {
				t.Fatalf("Get after heal: %v", err)
			}
			got, err := healed.Prog.Run(nascent.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantRes) {
				t.Fatalf("healed run diverges:\nfresh:  %+v\nhealed: %+v", wantRes, got)
			}
		})
	}

	t.Run("every-byte-flip", func(t *testing.T) {
		c, key, data := smallEntryFile(t)
		for i := range data {
			b := append([]byte(nil), data...)
			b[i] ^= 0xFF
			wantRefused(t, c, key, b, fmt.Sprintf("byte %d of %d flipped", i, len(data)))
		}
	})
	t.Run("every-truncation", func(t *testing.T) {
		c, key, data := smallEntryFile(t)
		for n := 0; n < len(data); n++ {
			wantRefused(t, c, key, data[:n], fmt.Sprintf("truncated to %d of %d bytes", n, len(data)))
		}
	})
}

// smallEntryFile puts one small program in a fresh cache and returns
// the cache, the entry's key and its file's bytes.
func smallEntryFile(t *testing.T) (*progcache.Cache, progcache.Key, []byte) {
	t.Helper()
	const src = "program p\n  real a(4)\n  integer i\n  do i = 1, 4\n    a(i) = float(i)\n  enddo\n  print a(4)\nend\n"
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.LLS, Filename: "small.mf"}
	prog, err := nascent.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.Compile(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	c, err := progcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := progcache.KeyOf(src, "small.mf", opts, nascent.EngineVMRCE)
	if err := c.Put(key, &progcache.Entry{Prog: vp, StaticChecks: prog.StaticChecks(), Opt: prog.Opt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(c.Dir(), key.String()+".npc"))
	if err != nil {
		t.Fatal(err)
	}
	return c, key, data
}

// wantRefused writes damaged as key's entry and requires Get to refuse
// it before use: a typed ErrCorrupt, no entry, one Corrupt counted and
// the file unlinked.
func wantRefused(t *testing.T, c *progcache.Cache, key progcache.Key, damaged []byte, what string) {
	t.Helper()
	path := filepath.Join(c.Dir(), key.String()+".npc")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	e, err := c.Get(key)
	after := c.Metrics()
	switch {
	case e != nil:
		t.Fatalf("%s: Get returned a program", what)
	case !errors.Is(err, progio.ErrCorrupt):
		t.Fatalf("%s: Get = %v, want ErrCorrupt", what, err)
	case after.Corrupt != before.Corrupt+1 || after.BadVersion != before.BadVersion:
		t.Fatalf("%s: metrics %+v -> %+v, want one more Corrupt", what, before, after)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s: damaged entry not unlinked: %v", what, err)
	}
}

// TestKeyDisambiguation pins that every field of the request
// participates in the address.
func TestKeyDisambiguation(t *testing.T) {
	base := progcache.KeyOf("a", "f.mf", nascent.Options{}, nascent.EngineVMOpt)
	variants := []progcache.Key{
		progcache.KeyOf("b", "f.mf", nascent.Options{}, nascent.EngineVMOpt),
		progcache.KeyOf("a", "g.mf", nascent.Options{}, nascent.EngineVMOpt),
		progcache.KeyOf("a", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineVMOpt),
		progcache.KeyOf("a", "f.mf", nascent.Options{RotateLoops: true}, nascent.EngineVMOpt),
		progcache.KeyOf("a", "f.mf", nascent.Options{Scheme: nascent.LLS}, nascent.EngineVMOpt),
		progcache.KeyOf("a", "f.mf", nascent.Options{}, nascent.EngineVMRCE),
	}
	seen := map[progcache.Key]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides", i)
		}
		seen[v] = true
	}
	// Length prefixing: ("ab","c") and ("a","bc") must not alias.
	if progcache.KeyOf("ab", "c", nascent.Options{}, nascent.EngineVMOpt) ==
		progcache.KeyOf("a", "bc", nascent.Options{}, nascent.EngineVMOpt) {
		t.Fatal("field boundary ambiguity")
	}
}

// BenchmarkColdCompile measures the cold-start cost one warm hit
// saves: the full frontend (parse, analyze, lower, optimize) plus the
// bytecode compile, per suite program under LLS/vmopt. Compare with
// BenchmarkWarmDecode; EXPERIMENTS.md records the ratio.
func BenchmarkColdCompile(b *testing.B) {
	for _, p := range suite.Programs {
		b.Run(p.Name, func(b *testing.B) {
			opts := nascent.Options{Filename: p.Name + ".mf", BoundsChecks: true, Scheme: nascent.LLS}
			for i := 0; i < b.N; i++ {
				prog, err := nascent.Compile(p.Source, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := vm.CompileOptimized(prog.IR); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmDecode measures the warm-start path: read the sealed
// envelope from disk, verify the CRC, decode the progio stream, and
// validate it into a runnable program. No source is parsed.
func BenchmarkWarmDecode(b *testing.B) {
	c, err := progcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}
	for _, p := range suite.Programs {
		b.Run(p.Name, func(b *testing.B) {
			prog, err := nascent.Compile(p.Source, nascent.Options{
				Filename: p.Name + ".mf", BoundsChecks: true, Scheme: nascent.LLS,
			})
			if err != nil {
				b.Fatal(err)
			}
			vp, err := vm.CompileOptimized(prog.IR)
			if err != nil {
				b.Fatal(err)
			}
			k := progcache.KeyOf(p.Source, p.Name+".mf", opts, nascent.EngineVMOpt)
			if err := c.Put(k, &progcache.Entry{Prog: vp, StaticChecks: prog.StaticChecks(), Opt: prog.Opt}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPutLeavesNoTempFiles: Put writes a put-*.tmp file and renames it
// into place. After successful Puts, and after one whose rename fails
// (the final path is a directory), the cache directory holds no temp
// file.
func TestPutLeavesNoTempFiles(t *testing.T) {
	c, err := progcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := nascent.Options{BoundsChecks: true}
	e := compileEntry(t, "qcd", opts, false)
	for _, src := range []string{"one", "two", "three"} {
		if err := c.Put(progcache.KeyOf(src, "qcd.mf", opts, nascent.EngineVMOpt), e); err != nil {
			t.Fatal(err)
		}
	}
	blocked := progcache.KeyOf("blocked", "qcd.mf", opts, nascent.EngineVMOpt)
	if err := os.Mkdir(filepath.Join(c.Dir(), blocked.String()+".npc"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(blocked, e); err == nil {
		t.Fatal("Put onto a directory succeeded, want a rename error")
	}
	if m := c.Metrics(); m.Puts != 3 || m.WriteErrors != 1 {
		t.Errorf("metrics = %+v, want 3 puts and 1 write error", m)
	}
	tmps, err := filepath.Glob(filepath.Join(c.Dir(), "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("cache directory holds temp files %v", tmps)
	}
}
