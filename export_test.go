package nascent

import (
	"nascent/internal/ir"
	"nascent/internal/irbuild"
)

// OnSharedLowering calls f with every lowering an AnalyzeShared front
// end keeps from now on, together with a function that lowers the same
// program afresh. The returned function removes the hook. f may be
// called from several goroutines at once.
func OnSharedLowering(f func(shared *ir.Program, fresh func() (*ir.Program, error))) (remove func()) {
	sharedLowered = func(fe *Frontend, checks bool, prog *ir.Program) {
		f(prog, func() (*ir.Program, error) {
			return irbuild.Build(fe.sem, irbuild.Options{BoundsChecks: checks})
		})
	}
	return func() { sharedLowered = nil }
}
