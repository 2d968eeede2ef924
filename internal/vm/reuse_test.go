package vm_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// reuseCase is one program checked against the tree walker after a
// machine another program dirtied.
type reuseCase struct {
	name string
	src  string
}

// readerSource reads its arrays, a subroutine's local array and a
// variable before writing them: every value it prints is the zero a
// fresh machine starts with.
const readerSource = `program reader
  integer ia(1:500)
  real fa(1:500)
  integer i, n, s
  real t
  do i = 1, 500
    s = s + ia(i)
    t = t + fa(i)
  enddo
  print s
  print t
  print n
  call peek(3)
  call peek(4)
end
subroutine peek(k)
  integer la(1:50)
  integer j, m
  do j = 1, 50
    m = m + la(j) + k
    la(j) = j
  enddo
  print m
end
`

func reuseCases() []reuseCase {
	cs := []reuseCase{{"reader", readerSource}}
	for _, p := range suite.Programs {
		cs = append(cs, reuseCase{p.Name, p.Source})
	}
	for _, p := range suite.Irregular {
		cs = append(cs, reuseCase{p.Name, p.Source})
	}
	for _, c := range conformance.Corpus {
		cs = append(cs, reuseCase{"corpus/" + c.Name, c.Src})
	}
	return cs
}

// fillerSource is a program that leaves nonzero values in the first
// vars slots of both register files and in int and float slabs of
// icells and fcells cells.
func fillerSource(vars int, icells, fcells int64) string {
	var b strings.Builder
	b.WriteString("program filler\n  integer i\n")
	fmt.Fprintf(&b, "  integer ia(%d)\n  real fa(%d)\n", max(icells, 1), max(fcells, 1))
	for k := 0; k < vars; k++ {
		fmt.Fprintf(&b, "  integer iv%d\n  real rv%d\n", k, k)
	}
	for k := 0; k < vars; k++ {
		fmt.Fprintf(&b, "  iv%d = %d\n  rv%d = %d.5\n", k, 7*k+3, k, k+1)
	}
	fmt.Fprintf(&b, "  do i = 1, %d\n    ia(i) = i + 12345\n  enddo\n", max(icells, 1))
	fmt.Fprintf(&b, "  do i = 1, %d\n    fa(i) = float(i) + 0.25\n  enddo\nend\n", max(fcells, 1))
	return b.String()
}

// TestMachineReuseStartsClean runs the reader and every suite,
// irregular and corpus program, freshly decoded, on one goroutine right
// after a program that fills more registers and slab cells than any of
// them use with nonzero values. Machines are shared by every program in
// the process, so each decoded program's first run reuses the filler's
// machine, and a program that reads arrays or variables before writing
// them sees whatever the machine failed to clear. Every run must equal
// the tree walker's.
func TestMachineReuseStartsClean(t *testing.T) {
	type prepared struct {
		name string
		want nascent.RunResult
		enc  []byte
	}
	var progs []prepared
	var regs int32
	var icells, fcells int64
	for _, c := range reuseCases() {
		for _, s := range []nascent.Scheme{nascent.Naive, nascent.LLS} {
			cp, err := nascent.Compile(c.src, nascent.Options{BoundsChecks: true, Scheme: s})
			if err != nil {
				continue // corpus cases that refuse to compile have no run
			}
			want, err := cp.RunWith(nascent.RunConfig{})
			if err != nil {
				continue
			}
			vp, err := vm.CompileOptimized(cp.IR)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.name, s, err)
			}
			im := vp.Image()
			regs = max(regs, im.NIntRegs, im.NFloatRegs)
			icells, fcells = max(icells, im.ICells), max(fcells, im.FCells)
			progs = append(progs, prepared{fmt.Sprintf("%s/%v", c.name, s), want, progio.Encode(vp)})
		}
	}
	fcp, err := nascent.Compile(fillerSource(int(regs), icells, fcells), nascent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	filler, err := vm.Compile(fcp.IR)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if _, err := filler.Run(nascent.RunConfig{}); err != nil {
			t.Fatalf("filler: %v", err)
		}
		vp, err := progio.Decode(p.enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.name, err)
		}
		got, err := vp.Run(nascent.RunConfig{})
		if err != nil {
			t.Fatalf("%s: run: %v", p.name, err)
		}
		if !reflect.DeepEqual(got, p.want) {
			t.Errorf("%s after the filler diverges from tree:\n got %+v\nwant %+v", p.name, got, p.want)
		}
	}
}

// TestMachineReuseAcrossPrograms pins that one caller alternating
// between two programs of different sizes reuses one machine: a run
// allocates only its output string. The slot makes this deterministic
// under -race, which drops pooled items at random; a pool-only cache
// averages about three more allocations per pair there.
func TestMachineReuseAcrossPrograms(t *testing.T) {
	var progs []*vm.Program
	for _, name := range []string{"mdg", "simple"} {
		sp, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := nascent.Compile(sp.Source, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
		if err != nil {
			t.Fatal(err)
		}
		vp, err := vm.CompileOptimized(cp.IR)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, vp)
	}
	n := testing.AllocsPerRun(20, func() {
		for _, vp := range progs {
			if _, err := vp.Run(nascent.RunConfig{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.1f allocs per pair of runs", n)
	if n > 2 {
		t.Errorf("%.1f allocs per pair of runs of two programs, want <= 2", n)
	}
}

// TestMachineReuseReleasesMemory pins that the process-wide machine
// cache holds no memory the collector cannot take back: after a run
// of a program with a 16 MiB float slab, and two collections, the
// slab is no longer live.
func TestMachineReuseReleasesMemory(t *testing.T) {
	const cells = 2 << 20
	src := fmt.Sprintf("program big\n  integer i\n  real a(%d)\n  do i = 1, %d, 4096\n    a(i) = 1.0\n  enddo\n  print a(1)\nend\n", cells, cells)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	func() {
		cp, err := nascent.Compile(src, nascent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		vp, err := vm.Compile(cp.IR)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vp.Run(nascent.RunConfig{}); err != nil {
			t.Fatal(err)
		}
	}()
	after := heap()
	t.Logf("live heap %d bytes before the run, %d after it and two collections", before, after)
	if after > before+cells*8/2 {
		t.Errorf("live heap grew by %d bytes across the run: the %d-byte slab is still held", after-before, cells*8)
	}
}
