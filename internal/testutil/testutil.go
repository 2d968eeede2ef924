// Package testutil provides shared helpers for compiling MF snippets in
// tests across analysis packages.
package testutil

import (
	"slices"
	"testing"

	"nascent/internal/conformance"
	"nascent/internal/dom"
	"nascent/internal/ir"
	"nascent/internal/irbuild"
	"nascent/internal/loops"
	"nascent/internal/parser"
	"nascent/internal/sem"
	"nascent/internal/ssa"
	"nascent/internal/suite"
)

// BuildIR compiles MF source to IR, failing the test on any error.
func BuildIR(t *testing.T, src string, checks bool) *ir.Program {
	t.Helper()
	f, err := parser.Parse("test.mf", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := irbuild.Build(sp, irbuild.Options{BoundsChecks: checks})
	if err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

// Analyzed bundles the per-function analyses tests typically need.
type Analyzed struct {
	Prog   *ir.Program
	Fn     *ir.Func
	Dom    *dom.Tree
	Forest *loops.Forest
	SSA    *ssa.Info
}

// AnalyzeMain compiles src and runs dominators, loop analysis (which may
// create preheaders), and SSA on the main function.
func AnalyzeMain(t *testing.T, src string, checks bool) *Analyzed {
	t.Helper()
	p := BuildIR(t, src, checks)
	return AnalyzeFunc(t, p, p.Main())
}

// AnalyzeFunc runs the analysis pipeline on one function of p.
func AnalyzeFunc(t *testing.T, p *ir.Program, f *ir.Func) *Analyzed {
	t.Helper()
	f.SplitCriticalEdges()
	tree := dom.Compute(f)
	forest := loops.Analyze(f, tree)
	// Loop analysis may add preheaders; recompute dominators before SSA.
	tree = dom.Compute(f)
	info := ssa.Build(f, tree)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after analyses: %v", err)
	}
	return &Analyzed{Prog: p, Fn: f, Dom: tree, Forest: forest, SSA: info}
}

// FindVar returns the variable with the given name visible in f.
func FindVar(t *testing.T, p *ir.Program, f *ir.Func, name string) *ir.Var {
	t.Helper()
	for _, v := range f.Locals {
		if v.Name == name {
			return v
		}
	}
	for _, v := range p.Globals {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("variable %q not found", name)
	return nil
}

// ForEachFunc calls fn on every function of the suite, the irregular
// set and the conformance corpus, built with checks, after critical edge
// splitting and loop analysis (which may add preheaders): the CFGs the
// optimizer analyzes.
func ForEachFunc(t *testing.T, fn func(name string, f *ir.Func)) {
	t.Helper()
	var names, srcs []string
	for _, p := range append(slices.Clone(suite.Programs), suite.Irregular...) {
		names, srcs = append(names, p.Name), append(srcs, p.Source)
	}
	for _, c := range conformance.Corpus {
		names, srcs = append(names, "corpus/"+c.Name), append(srcs, c.Src)
	}
	for i, name := range names {
		for _, f := range BuildIR(t, srcs[i], true).Funcs {
			f.SplitCriticalEdges()
			loops.Analyze(f, dom.Compute(f))
			fn(name+"/"+f.Name, f)
		}
	}
}
