package guard

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRecoverConvertsPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover("optimize", "daxpy", &err)
		panic("index out of range")
	}
	err := f()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InternalError", err)
	}
	if ie.Stage != "optimize" || ie.Fn != "daxpy" || ie.Recovered != "index out of range" {
		t.Errorf("got %+v", ie)
	}
	if len(ie.Stack) == 0 {
		t.Error("no stack captured")
	}
	if msg := ie.Error(); !strings.Contains(msg, "optimize (daxpy)") {
		t.Errorf("Error() = %q, want stage and function named", msg)
	}
}

func TestRecoverNoPanicLeavesErrorAlone(t *testing.T) {
	f := func() (err error) {
		defer Recover("run", "", &err)
		return nil
	}
	if err := f(); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func TestUnwrapExposesPanickedError(t *testing.T) {
	sentinel := errors.New("inner fault")
	f := func() (err error) {
		defer Recover("lower", "", &err)
		panic(fmt.Errorf("wrapped: %w", sentinel))
	}
	if err := f(); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want to unwrap to the panicked error", err)
	}
}

// TestEachOrderedResults runs every index exactly once at several
// worker counts: whatever order the calls complete in, what f(i) stores
// lands in slot i.
func TestEachOrderedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		const n = 40
		var calls [n]atomic.Int32
		var out [n]string
		errs := Each(n, workers, func(i int) error {
			calls[i].Add(1)
			if i%5 == 0 {
				time.Sleep(time.Millisecond) // let later indices finish first
			}
			out[i] = fmt.Sprintf("result %d", i)
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d errors for %d indices", workers, len(errs), n)
		}
		for i, err := range errs {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want once", workers, i, got)
			}
			if err != nil {
				t.Errorf("workers=%d: errs[%d] = %v, want nil", workers, i, err)
			}
			if want := fmt.Sprintf("result %d", i); out[i] != want {
				t.Errorf("workers=%d: slot %d holds %q, want %q", workers, i, out[i], want)
			}
		}
	}
}

// TestEachFailureIsolation: each index's own error lands in its slot,
// and a failing call leaves its neighbours' results alone.
func TestEachFailureIsolation(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		const n = 40
		var out [n]string
		errs := Each(n, workers, func(i int) error {
			if i%3 == 0 {
				return fmt.Errorf("job %d failed", i)
			}
			out[i] = fmt.Sprintf("result %d", i)
			return nil
		})
		failed := 0
		for i, err := range errs {
			want, wantOut := "", fmt.Sprintf("result %d", i)
			if i%3 == 0 {
				want, wantOut = fmt.Sprintf("job %d failed", i), ""
			}
			if err != nil {
				failed++
			}
			if (err == nil) != (want == "") || (err != nil && err.Error() != want) {
				t.Errorf("workers=%d: errs[%d] = %v, want %q", workers, i, err, want)
			}
			if out[i] != wantOut {
				t.Errorf("workers=%d: slot %d holds %q, want %q", workers, i, out[i], wantOut)
			}
		}
		if want := (n + 2) / 3; failed != want {
			t.Errorf("workers=%d: %d failed indices, want %d", workers, failed, want)
		}
	}
}

// TestEachPanicIsInternalError: a panic in one call is contained as that
// index's *InternalError of stage "job", after one call, and the other
// indices still run.
func TestEachPanicIsInternalError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls, others atomic.Int32
		errs := Each(8, workers, func(i int) error {
			if i == 2 {
				calls.Add(1)
				panic("mutate hook failed")
			}
			others.Add(1)
			return nil
		})
		var ie *InternalError
		if !errors.As(errs[2], &ie) || ie.Stage != "job" || ie.Recovered != "mutate hook failed" {
			t.Fatalf("workers=%d: errs[2] = %v, want a job *InternalError", workers, errs[2])
		}
		if calls.Load() != 1 {
			t.Errorf("workers=%d: panicking call ran %d times, want once", workers, calls.Load())
		}
		if others.Load() != 7 {
			t.Errorf("workers=%d: %d other calls ran, want 7", workers, others.Load())
		}
		for i, err := range errs {
			if i != 2 && err != nil {
				t.Errorf("workers=%d: errs[%d] = %v, want nil", workers, i, err)
			}
		}
	}
}

// TestEachBoundsConcurrency: no more than workers calls are in flight
// at once.
func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	Each(30, workers, func(int) error {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if p := peak.Load(); p > workers || p == 0 {
		t.Errorf("peak concurrency = %d, want 1..%d", p, workers)
	}
}
