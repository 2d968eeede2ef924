package main

// -benchjson: machine-readable engine benchmark, emitting the same
// schema as the committed BENCH_*.json files so CI (or a reviewer) can
// regenerate them with one command instead of hand-editing `go test
// -bench` output. The engine list is derived from the engine registry,
// so a newly registered engine shows up in the document without this
// file changing.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nascent"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// benchDoc mirrors the committed BENCH_*.json schema.
type benchDoc struct {
	Benchmark   string             `json:"benchmark"`
	Description string             `json:"description"`
	Date        string             `json:"date"`
	Host        benchHost          `json:"host"`
	Command     string             `json:"command"`
	Results     []benchResult      `json:"results"`
	Speedup     map[string]float64 `json:"speedup"`
	Notes       string             `json:"notes"`
}

type benchHost struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	Cores  int    `json:"cores"`
	// GOMAXPROCS and the Go toolchain version pin the two knobs that
	// most move a rerun's numbers on otherwise identical hardware.
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type benchResult struct {
	Name       string            `json:"name"`
	NsPerOp    int64             `json:"ns_per_op"`
	MinstrPerS float64           `json:"minstr_per_s"`
	BytesPerOp int64             `json:"bytes_per_op"`
	AllocsPerO int64             `json:"allocs_per_op"`
	Programs   []benchProgResult `json:"programs,omitempty"`
}

// benchProgResult is the per-program breakdown of one engine's row:
// which suite members an engine wins or loses on, not just the
// aggregate. Timed with a short calibrated loop, so the numbers are
// coarser than the aggregate ns_per_op.
type benchProgResult struct {
	Name       string  `json:"name"`
	NsPerOp    int64   `json:"ns_per_op"`
	MinstrPerS float64 `json:"minstr_per_s"`
}

// cpuModel best-effort reads the CPU model string for the host block.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// benchProg is one suite program prepared for every engine: all
// compiles (and the jit's closure compile) happen here, outside any
// timer.
type benchProg struct {
	name   string
	instrs uint64
	run    map[string]func() error
}

// prepare compiles one suite program for every registered engine.
func prepare(name, source string) (*benchProg, error) {
	cp, err := nascent.Compile(source, nascent.Options{BoundsChecks: true})
	if err != nil {
		return nil, err
	}
	bc, err := vm.Compile(cp.IR)
	if err != nil {
		return nil, fmt.Errorf("vm compile: %w", err)
	}
	opt, err := vm.Optimize(bc)
	if err != nil {
		return nil, fmt.Errorf("vm optimize: %w", err)
	}
	rce, err := vm.CompileRCE(cp.IR)
	if err != nil {
		return nil, fmt.Errorf("vm rce compile: %w", err)
	}
	res, err := cp.RunWith(nascent.RunConfig{})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	jp, err := vm.JITCompile(rce, nil)
	if err != nil {
		return nil, fmt.Errorf("jit compile: %w", err)
	}

	return &benchProg{
		name:   name,
		instrs: res.Instructions,
		run: map[string]func() error{
			"tree":  func() error { _, err := cp.RunWith(nascent.RunConfig{}); return err },
			"vm":    func() error { _, err := bc.Run(nascent.RunConfig{}); return err },
			"vmopt": func() error { _, err := opt.Run(nascent.RunConfig{}); return err },
			"vmrce": func() error { _, err := rce.Run(nascent.RunConfig{}); return err },
			"vmjit": func() error { _, err := jp.Run(nascent.RunConfig{}); return err },
		},
	}, nil
}

// timeProgram measures one program under one engine with a calibrated
// loop: one warm-up run, then at least minIters iterations and minTime
// of wall clock.
func timeProgram(run func() error) (int64, error) {
	const (
		minIters = 3
		minTime  = 30 * time.Millisecond
	)
	if err := run(); err != nil {
		return 0, err
	}
	iters := 0
	start := time.Now()
	for iters < minIters || time.Since(start) < minTime {
		if err := run(); err != nil {
			return 0, err
		}
		iters++
	}
	return time.Since(start).Nanoseconds() / int64(iters), nil
}

// runBenchJSON executes the whole Table-1 suite, compiled naive, under
// every registered engine, and writes one BENCH-schema JSON document to
// path ("-" = stdout). Programs compile outside the timer; ns/op is
// pure execution. Exit codes match the table path: 0 ok, 1 a run
// failed, 2 the output file could not be written.
func runBenchJSON(path string) int {
	progs := make([]*benchProg, 0, len(suite.Programs))
	var instrs uint64
	for _, p := range suite.Programs {
		bp, err := prepare(p.Name, p.Source)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangebench: %s: %v\n", p.Name, err)
			return 1
		}
		instrs += bp.instrs
		progs = append(progs, bp)
	}

	engineNames := nascent.EngineNames()
	for _, name := range engineNames {
		if progs[0].run[name] == nil {
			fmt.Fprintf(os.Stderr, "rangebench: engine %q registered but has no benchjson runner\n", name)
			return 1
		}
	}

	doc := benchDoc{
		Benchmark: "rangebench -benchjson",
		Description: "Suite-wide execution of the 10 Table-1 programs compiled naive " +
			"(all range checks live) under every registered engine: tree-walking " +
			"reference interpreter, bytecode VM, superinstruction-optimized VM, " +
			"guard/deopt range-check-eliminated VM, and closure-compiled jit " +
			"(over the vmrce bytecode). Programs are compiled (and the jit " +
			"closure-compiled) outside the timer; ns/op and allocs/op are pure " +
			"execution, best of three interleaved repetitions per engine. All " +
			"engines produce identical observables (conformance-pinned), so " +
			"ns/op ratios are true engine speedups.",
		Date: time.Now().Format("2006-01-02"),
		Host: benchHost{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPU: cpuModel(), Cores: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		},
		Command: "rangebench -benchjson " + path,
		Speedup: map[string]float64{},
		Notes: "vmopt rewrites the vm bytecode with copy propagation, dead-code " +
			"elimination, and superinstruction fusion; vmrce layers guarded " +
			"range-check elimination on top (one preheader guard per proven " +
			"loop family, guard-free fast copies, deopt to the fully checked " +
			"originals, eliminated checks bulk-counted); vmjit compiles each " +
			"instruction of the vmrce bytecode into a chained Go closure. " +
			"Every observable (counters, traps, output) is pinned " +
			"identical by the conformance corpus and golden tables.",
	}
	// Best of three interleaved repetitions per engine: single
	// repetitions on a shared box swing ±15%, and interleaving
	// decorrelates a slow phase from any one engine's number.
	const benchReps = 3
	nsPer := map[string]float64{}
	allocs := map[string]testing.BenchmarkResult{}
	for rep := 0; rep < benchReps; rep++ {
		for _, name := range engineNames {
			name := name
			var failed error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, c := range progs {
						if err := c.run[name](); err != nil {
							failed = err
						}
					}
				}
			})
			if failed != nil {
				fmt.Fprintf(os.Stderr, "rangebench: %s: %v\n", name, failed)
				return 1
			}
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if best, ok := nsPer[name]; !ok || ns < best {
				nsPer[name] = ns
				allocs[name] = r
			}
		}
	}
	for _, name := range engineNames {
		ns := nsPer[name]
		r := allocs[name]
		result := benchResult{
			Name:       name,
			NsPerOp:    int64(ns),
			MinstrPerS: roundTo(float64(instrs)/ns*1e3, 1),
			BytesPerOp: r.AllocedBytesPerOp(),
			AllocsPerO: r.AllocsPerOp(),
		}
		for _, c := range progs {
			pns, err := timeProgram(c.run[name])
			if err != nil {
				fmt.Fprintf(os.Stderr, "rangebench: %s: %s: %v\n", name, c.name, err)
				return 1
			}
			result.Programs = append(result.Programs, benchProgResult{
				Name:       c.name,
				NsPerOp:    pns,
				MinstrPerS: roundTo(float64(c.instrs)/float64(pns)*1e3, 1),
			})
		}
		doc.Results = append(doc.Results, result)
	}
	// Each engine over its predecessor tier, and each over the tree
	// reference. The legacy three keys fall out of this naturally.
	for i, name := range engineNames {
		if i == 0 {
			continue
		}
		doc.Speedup[name+"_over_"+engineNames[i-1]] = roundTo(nsPer[engineNames[i-1]]/nsPer[name], 2)
		if engineNames[i-1] != "tree" {
			doc.Speedup[name+"_over_tree"] = roundTo(nsPer["tree"]/nsPer[name], 2)
		}
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
		return 2
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stdout.Write(out)
		return 0
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rangebench: %v\n", err)
		return 2
	}
	return 0
}

func roundTo(v float64, digits int) float64 {
	scale := 1.0
	for i := 0; i < digits; i++ {
		scale *= 10
	}
	return float64(int64(v*scale+0.5)) / scale
}
