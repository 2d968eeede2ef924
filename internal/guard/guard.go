// Package guard converts internal invariant violations (panics) into
// typed, stage-tagged errors so that no input — however malformed — can
// crash a process embedding the compiler or interpreter.
//
// Every pipeline entry point (compile, optimize, run) installs a
// deferred Recover; a panic escaping any stage surfaces to the caller as
// an *InternalError carrying the stage name, the function being
// processed (when known), the recovered value, and the stack at the
// point of recovery. Callers test for the class with
// errors.Is(err, guard.ErrInternal) and extract details with errors.As.
package guard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrInternal is the sentinel matched by errors.Is for every recovered
// internal invariant violation.
var ErrInternal = errors.New("internal invariant violation")

// InternalError is a panic recovered at a pipeline stage boundary.
type InternalError struct {
	// Stage is the pipeline stage that panicked: "parse", "analyze",
	// "lower", "optimize", or "run".
	Stage string
	// Fn names the function being processed when known (else "").
	Fn string
	// Recovered is the value the stage panicked with.
	Recovered any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Fn != "" {
		return fmt.Sprintf("internal error in %s (%s): %v", e.Stage, e.Fn, e.Recovered)
	}
	return fmt.Sprintf("internal error in %s: %v", e.Stage, e.Recovered)
}

// Is makes errors.Is(err, guard.ErrInternal) match any InternalError.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Unwrap exposes a wrapped error when the stage panicked with one.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// Recover converts an in-flight panic into an *InternalError stored in
// *errp. Use as:
//
//	defer guard.Recover("optimize", f.Name, &err)
//
// It must be deferred directly (not called from another deferred
// function's callee) so recover() can see the panic.
func Recover(stage, fn string, errp *error) {
	if r := recover(); r != nil {
		*errp = &InternalError{Stage: stage, Fn: fn, Recovered: r, Stack: debug.Stack()}
	}
}

// Each calls f(i) for every i in [0, n) on at most workers goroutines,
// which pull the indices in order, and returns f's errors indexed by i.
// A panic in f(i) becomes errs[i], an *InternalError of stage "job",
// and the other indices still run. workers <= 1 runs every call on the
// calling goroutine.
func Each(n, workers int, f func(i int) error) []error {
	errs := make([]error, n)
	call := func(i int) {
		defer Recover("job", "", &errs[i])
		errs[i] = f(i)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			call(i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				call(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
