package vm_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/ir"
	"nascent/internal/progio"
	"nascent/internal/vm"
)

// TestScratchIsolation pins that the compile scratch the bytecode
// pipeline recycles carries nothing from one compile into the next.
// Every census input, naive and under LLS and ALL, is compiled through
// CompileOptimized once in order on one goroutine, then again from 4
// goroutines that each take every fourth program, back to front, so
// each compile follows a different one on a different scratch. Both
// rounds must encode to the same bytes. Under -race it also checks
// that concurrent compiles share no scratch. Optimize, which copies,
// must leave its input's encoding as it was.
func TestScratchIsolation(t *testing.T) {
	type unit struct {
		name string
		prog *ir.Program
	}
	srcs := censusSources()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	var units []unit
	for _, name := range names {
		for _, s := range []nascent.Scheme{nascent.Naive, nascent.LLS, nascent.ALL} {
			cp, err := nascent.Compile(srcs[name], nascent.Options{BoundsChecks: true, Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, unit{fmt.Sprintf("%s/%v", name, s), cp.IR})
		}
	}

	encode := func(u unit) []byte {
		vp, err := vm.CompileOptimized(u.prog)
		if err != nil {
			t.Errorf("%s: %v", u.name, err)
			return nil
		}
		return progio.Encode(vp)
	}
	want := make([][]byte, len(units))
	for i, u := range units {
		want[i] = encode(u)
	}
	got := make([][]byte, len(units))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(units) - 1 - g; i >= 0; i -= 4 {
				got[i] = encode(units[i])
			}
		}()
	}
	wg.Wait()
	for i, u := range units {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: concurrent compile encodes to %d bytes unlike the sequential %d", u.name, len(got[i]), len(want[i]))
		}
	}

	for _, u := range units {
		vp, err := vm.Compile(u.prog)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		before := progio.Encode(vp)
		if _, err := vm.Optimize(vp); err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if !bytes.Equal(progio.Encode(vp), before) {
			t.Errorf("%s: Optimize changed its input", u.name)
		}
	}
}
