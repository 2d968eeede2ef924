package dataflow_test

import (
	"testing"

	"nascent/internal/dataflow"
	"nascent/internal/irbuild"
	"nascent/internal/parser"
	"nascent/internal/rangecheck"
	"nascent/internal/sem"
	"nascent/internal/suite"
)

func benchFunc(b *testing.B) *dataflow.Env {
	b.Helper()
	prog, err := suite.Get("linpackd")
	if err != nil {
		b.Fatal(err)
	}
	file, err := parser.Parse("bench.mf", prog.Source)
	if err != nil {
		b.Fatal(err)
	}
	semProg, err := sem.Analyze(file)
	if err != nil {
		b.Fatal(err)
	}
	ir, err := irbuild.Build(semProg, irbuild.Options{BoundsChecks: true})
	if err != nil {
		b.Fatal(err)
	}
	f := ir.FuncByName("factor")
	f.SplitCriticalEdges()
	return dataflow.NewEnv(f, rangecheck.NewRegistry(rangecheck.ImplyFull))
}

func BenchmarkAvailability(b *testing.B) {
	env := benchFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Availability(dataflow.Out)
	}
}

func BenchmarkAnticipatability(b *testing.B) {
	env := benchFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Anticipatability(dataflow.Out)
	}
}
