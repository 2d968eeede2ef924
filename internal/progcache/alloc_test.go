package progcache

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// minAllocs is the fewest allocations f made over tries single calls.
// The race detector drops sync.Pool items at random, so one call may
// pay for a buffer a pooled path normally reuses; the minimum is the
// pooled path's count.
func minAllocs(tries int, f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for i := 1; i < tries; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// minBytes is the fewest heap bytes f allocated over tries calls on
// this goroutine, for the same reason as minAllocs.
func minBytes(tries int, f func()) uint64 {
	var least uint64
	var before, after runtime.MemStats
	for i := 0; i < tries; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// lls compiles one suite program under LLS through the bytecode
// pipeline, the way the service's fill path does.
func lls(t *testing.T, p suite.Program) *Entry {
	t.Helper()
	prog, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.CompileOptimized(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{Prog: vp, StaticChecks: prog.StaticChecks(), Opt: prog.Opt}
}

// TestEncodeEnvelopeOneBuffer pins the envelope encoder's allocations:
// encodeEnvelope makes the meta JSON and exactly one more buffer, sized
// up front, that the header, meta and progio payload are written into.
// It streams the program's own slices: no copy of the program is made
// to encode it. Growing the payload from nil and copying it into a
// second buffer made 17 to 20 allocations per suite program, and
// snapshotting the program first cost a copy of every slice.
func TestEncodeEnvelopeOneBuffer(t *testing.T) {
	for _, p := range suite.Programs {
		e := lls(t, p)
		meta, err := json.Marshal(cacheMeta{StaticChecks: e.StaticChecks, Opt: e.Opt})
		if err != nil {
			t.Fatal(err)
		}
		im := e.Prog.Image()
		var out []byte
		if n := testing.AllocsPerRun(20, func() { out = appendEnvelope(meta, &im) }); n != 1 {
			t.Errorf("%s: appendEnvelope made %v allocations, want 1", p.Name, n)
		}
		nMeta := minAllocs(10, func() { json.Marshal(cacheMeta{StaticChecks: e.StaticChecks, Opt: e.Opt}) })
		var whole []byte
		if n := minAllocs(10, func() { whole, err = encodeEnvelope(e) }); n != nMeta+1 {
			t.Errorf("%s: encodeEnvelope made %v allocations, want the meta JSON's %v plus 1", p.Name, n, nMeta)
		}
		if err != nil || !bytes.Equal(whole, out) {
			t.Errorf("%s: encodeEnvelope differs from appendEnvelope over the same parts (err %v)", p.Name, err)
		}
	}
}

// TestKeyOfCopiesNoSource pins that hashing a request copies none of
// its source: KeyOf allocates the same bytes for a 1 KB and a 100 KB
// source. Writing []byte(source) through the hash.Hash interface
// allocated a copy of every source it hashed.
func TestKeyOfCopiesNoSource(t *testing.T) {
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}
	small, large := strings.Repeat("x", 1_000), strings.Repeat("x", 100_000)
	var k Key
	bSmall := minBytes(5, func() { k = KeyOf(small, "p.mf", opts, nascent.EngineVMRCE) })
	bLarge := minBytes(5, func() { k = KeyOf(large, "p.mf", opts, nascent.EngineVMRCE) })
	t.Logf("KeyOf allocates %d bytes for a 1 KB source, %d for a 100 KB source", bSmall, bLarge)
	if bSmall != bLarge {
		t.Errorf("KeyOf allocates %d bytes for a 1 KB source but %d for a 100 KB source", bSmall, bLarge)
	}
	_ = k
}

// Warm-disk ceilings. At the time the envelope was read with
// os.ReadFile, decoded to a vm.Image and copied into a vm.Program, Get
// allocated 3.58 times the file's bytes over the 10 LLS suite entries,
// and a decoded program's first run allocated fresh register files
// and slabs (106,704 bytes over the ten).
const (
	getBytesPerFileByte = 1.5
	firstRunBytes       = 1 << 10
)

// TestWarmDiskAllocCeiling pins what a warm disk-cache hit costs: Get
// reads into a recycled buffer and decodes straight into the program,
// so it allocates at most 1.5 times the entry's file bytes; and the
// decoded program's first run, after a warm-up run of other programs,
// reuses a released machine instead of allocating one.
func TestWarmDiskAllocCeiling(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, len(suite.Programs))
	var fileBytes int64
	for i, p := range suite.Programs {
		keys[i] = KeyOf(p.Source, p.Name+".mf", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, nascent.EngineVMRCE)
		if err := c.Put(keys[i], lls(t, p)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(c.path(keys[i]))
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += fi.Size()
	}

	var getBytes uint64
	progs := make([]*vm.Program, len(keys))
	for i, k := range keys {
		getBytes += minBytes(5, func() {
			e, err := c.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = e.Prog
		})
	}
	ratio := float64(getBytes) / float64(fileBytes)
	t.Logf("Get allocated %d bytes for %d file bytes (%.2fx, ceiling %.2fx)", getBytes, fileBytes, ratio, getBytesPerFileByte)
	if ratio > getBytesPerFileByte {
		t.Errorf("Get allocated %.2fx the file bytes, ceiling %.2fx", ratio, getBytesPerFileByte)
	}

	// Warm up on the other programs; then each decoded program's first
	// run must find a machine that fits. A collection between the two
	// may reclaim the idle machine, so the least of three tries counts.
	for i, name := range suite.Programs {
		var least uint64
		for try := 0; try < 3; try++ {
			for j, q := range progs {
				if j != i {
					if _, err := q.Run(nascent.RunConfig{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			e, err := c.Get(keys[i])
			if err != nil {
				t.Fatal(err)
			}
			n := minBytes(1, func() {
				if _, err := e.Prog.Run(nascent.RunConfig{}); err != nil {
					t.Fatal(err)
				}
			})
			if try == 0 || n < least {
				least = n
			}
		}
		t.Logf("%s: first run allocated %d bytes", name.Name, least)
		if least > firstRunBytes {
			t.Errorf("%s: a decoded program's first run allocated %d bytes, ceiling %d", name.Name, least, firstRunBytes)
		}
	}
}
