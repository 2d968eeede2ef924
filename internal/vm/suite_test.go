package vm_test

import (
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileSuite compiles every Table-1 program naive (all range checks
// live) to bytecode, optionally through the post-compile optimizer.
func compileSuite(tb testing.TB, opt bool) []*vm.Program {
	var out []*vm.Program
	for _, p := range suite.Programs {
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			tb.Fatal(err)
		}
		vp, err := vm.Compile(cp.IR)
		if err != nil {
			tb.Fatal(err)
		}
		if opt {
			if vp, err = vm.Optimize(vp); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, vp)
	}
	return out
}

// BenchmarkSuiteVM (the unoptimized vm.Compile output) and
// BenchmarkSuiteVMOpt are the fusion-ratio pair: identical dynamic
// instruction streams, so ns/op divides into the optimizer's speedup on
// the switch loop. Programs compile outside the timer.
func BenchmarkSuiteVM(b *testing.B) {
	progs := compileSuite(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := p.Run(interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSuiteVMOpt(b *testing.B) {
	progs := compileSuite(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := p.Run(interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSuiteDispatchGuard is the suite-wide companion of the corpus
// TestDispatchGuard: every Table-1 program must agree between vm and
// vmopt on all observables, and the optimizer's dispatch reduction
// must hold both per program and in total. The ratios are exact
// functions of (program, optimizer), so this guards the optimization
// level without wall-clock flakiness; ratchet the pins down as fusion
// coverage grows.
func TestSuiteDispatchGuard(t *testing.T) {
	const (
		maxTotalPct = 50 // suite-wide vmopt dispatch <= 50% of vm
		maxProgPct  = 60 // no single program above 60%
	)
	naive := compileSuite(t, false)
	opt := compileSuite(t, true)
	var tn, to uint64
	for i, p := range suite.Programs {
		vres, vd, err := naive[i].RunDispatch(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vm run: %v", p.Name, err)
		}
		ores, od, err := opt[i].RunDispatch(interp.Config{})
		if err != nil {
			t.Fatalf("%s: vmopt run: %v", p.Name, err)
		}
		if !reflect.DeepEqual(vres, ores) {
			t.Fatalf("%s: results diverge:\nvm:    %+v\nvmopt: %+v", p.Name, vres, ores)
		}
		if od.Dispatched*100 > vd.Dispatched*uint64(maxProgPct) {
			t.Errorf("%s: vmopt dispatch %d vm %d (%.1f%%), want <= %d%%",
				p.Name, od.Dispatched, vd.Dispatched,
				100*float64(od.Dispatched)/float64(vd.Dispatched), maxProgPct)
		}
		t.Logf("%-10s %5.1f%%  opt: %s", p.Name,
			100*float64(od.Dispatched)/float64(vd.Dispatched), od.String())
		tn += vd.Dispatched
		to += od.Dispatched
	}
	if to*100 > tn*uint64(maxTotalPct) {
		t.Fatalf("suite dispatch guard: vmopt=%d vm=%d (%.1f%%), want <= %d%%",
			to, tn, 100*float64(to)/float64(tn), maxTotalPct)
	}
	t.Logf("suite dispatch: vmopt=%d vm=%d (%.1f%%)", to, tn, 100*float64(to)/float64(tn))
}
