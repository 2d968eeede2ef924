package core

import (
	"nascent/internal/dom"
	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/ssa"
)

// FailFuncForTest makes optimizeFunc panic on the named function ("" to
// reset), letting tests exercise panic containment and per-function
// degradation without corrupting IR.
func FailFuncForTest(name string) { failFunc = name }

// AnalysisCounts counts the on-demand analyses optimizeFunc built.
type AnalysisCounts struct {
	Dom, SSA, Induction, PostDom int
}

// CountAnalysesForTest wraps dom.Compute, ssa.Build, induction.Analyze
// and dom.ComputePost with counters until restore is called. Not safe for
// parallel tests.
func CountAnalysesForTest() (counts *AnalysisCounts, restore func()) {
	counts = &AnalysisCounts{}
	domCompute = func(f *ir.Func) *dom.Tree {
		counts.Dom++
		return dom.Compute(f)
	}
	ssaBuild = func(f *ir.Func, t *dom.Tree) *ssa.Info {
		counts.SSA++
		return ssa.Build(f, t)
	}
	inductionAnalyze = func(f *ir.Func, forest *loops.Forest, info *ssa.Info) *induction.Analysis {
		counts.Induction++
		return induction.Analyze(f, forest, info)
	}
	computePost = func(f *ir.Func) *dom.PostTree {
		counts.PostDom++
		return dom.ComputePost(f)
	}
	return counts, func() {
		domCompute, ssaBuild, inductionAnalyze, computePost = dom.Compute, ssa.Build, induction.Analyze, dom.ComputePost
	}
}
