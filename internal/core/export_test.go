package core

import (
	"fmt"

	"nascent/internal/dataflow"
	"nascent/internal/dom"
	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/loops"
	"nascent/internal/rangecheck"
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

// CompareAnticipationForTest makes preheader insertion compare, before
// each loop's hoist, the anticipatability it keeps with a fresh Env's
// solve of the function as it stands, calling report for every
// difference, until restore is called. compared counts the loops compared.
// Not safe for parallel tests.
func CompareAnticipationForTest(report func(msg string)) (compared *int, restore func()) {
	n := new(int)
	antProbe = func(c *funcCtx, l *loops.Loop, ant *dataflow.Anticipation) {
		*n++
		env := dataflow.NewEnv(c.fn, c.reg)
		fresh := env.Anticipatability(dataflow.In)
		for _, b := range env.Order() {
			kept, want := ant.In(b), fresh.At(b)
			for _, fam := range env.Families {
				k := fam.Index
				if k >= ant.Width() {
					// Not kept: the family has no unguarded check, so
					// nothing is anticipatable of it.
					if v := want[k]; v != rangecheck.None && v != rangecheck.AllChecks {
						report(fmt.Sprintf("%s, before loop b%d: family %s is not kept but is anticipatable at b%d (%d)",
							c.fn.Name, l.Header.ID, fam, b.ID, v))
					}
					continue
				}
				if kept[k] != want[k] {
					report(fmt.Sprintf("%s, before loop b%d: family %s at b%d kept %d, fresh solve %d",
						c.fn.Name, l.Header.ID, fam, b.ID, kept[k], want[k]))
				}
			}
		}
	}
	return n, func() { antProbe = nil }
}

// WorkForTest calls report with the work count of each function's
// preheader insertion or MCM pass (dataflow block visits plus the blocks
// its per-loop passes touch) until restore is called. Not safe for
// parallel tests.
func WorkForTest(report func(fn string, work int)) (restore func()) {
	workProbe = report
	return func() { workProbe = nil }
}
