package progcache

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/progio"
	"nascent/internal/suite"
)

// scribble overwrites b, up to its capacity, with garbage.
func scribble(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = byte(0x5a ^ i)
	}
}

// warmEntries puts LLS entries for the named suite programs and
// returns their keys, progio encodings and fresh runs.
func warmEntries(t *testing.T, c *Cache, names ...string) ([]Key, [][]byte, []nascent.RunResult) {
	t.Helper()
	var keys []Key
	var encs [][]byte
	var runs []nascent.RunResult
	for _, name := range names {
		p, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		e := lls(t, p)
		k := KeyOf(p.Source, name+".mf", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, nascent.EngineVMRCE)
		if err := c.Put(k, e); err != nil {
			t.Fatal(err)
		}
		res, err := e.Prog.Run(nascent.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		keys, encs, runs = append(keys, k), append(encs, progio.Encode(e.Prog)), append(runs, res)
	}
	return keys, encs, runs
}

// sameProgram fails t unless e's program encodes to enc and runs to
// want.
func sameProgram(t *testing.T, e *Entry, enc []byte, want nascent.RunResult) {
	t.Helper()
	if re := progio.Encode(e.Prog); !bytes.Equal(re, enc) {
		t.Fatalf("program re-encodes to %d bytes that differ from its %d-byte encoding", len(re), len(enc))
	}
	got, err := e.Prog.Run(nascent.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestGetAliasesNoBuffer pins what reading entries into a recycled
// buffer relies on: nothing an Entry holds aliases the bytes it was
// decoded from. After each Get the buffer it read into is overwritten
// with garbage (when the pool kept it; the race detector drops pooled
// items at random, so the input of a direct envelope decode is
// overwritten too); the program must still encode to the same bytes
// and run the same.
func TestGetAliasesNoBuffer(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys, encs, runs := warmEntries(t, c, "mdg", "trfd", "simple")
	for i, k := range keys {
		e, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		b := readBufs.Get().(*bytes.Buffer)
		scribble(b.Bytes())
		readBufs.Put(b)
		sameProgram(t, e, encs[i], runs[i])

		data, err := os.ReadFile(c.path(k))
		if err != nil {
			t.Fatal(err)
		}
		e, err = decodeEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		scribble(data)
		sameProgram(t, e, encs[i], runs[i])
	}
}

// TestConcurrentGetRun has two goroutines Get and run different keys
// at once, so the race detector sees the shared read buffers and
// machines change hands between them.
func TestConcurrentGetRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys, encs, runs := warmEntries(t, c, "qcd", "linpackd")
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				e, err := c.Get(keys[i])
				if err != nil {
					t.Error(err)
					return
				}
				if re := progio.Encode(e.Prog); !bytes.Equal(re, encs[i]) {
					t.Errorf("key %d: program re-encodes differently", i)
					return
				}
				got, err := e.Prog.Run(nascent.RunConfig{})
				if err != nil || !reflect.DeepEqual(got, runs[i]) {
					t.Errorf("key %d: run diverges (err %v):\n got %+v\nwant %+v", i, err, got, runs[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
