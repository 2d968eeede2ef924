package progcache_test

import (
	"encoding/binary"
	"errors"
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

// TestFaults damages a cache file every way the satellite checklist
// names — truncation, bit flips, a wrong envelope version — and
// requires the same recovery each time: a typed error (never a
// panic), a miss counted in the metrics, and a recompile + Put that
// heals the entry with a correct result.
func TestFaults(t *testing.T) {
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.SE}
	key := progcache.KeyOf("src-of-mdg", "mdg.mf", opts, nascent.EngineVMOpt)
	fresh := compileEntry(t, "mdg", opts, false)
	wantRes, err := fresh.Prog.Run(nascent.RunConfig{})
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
