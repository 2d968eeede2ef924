package service

import (
	"net/http"
	"testing"
	"time"
)

// progLong needs 150e6 counted instructions: several tenths of a
// second on vmrce, far past the 100 ms that TestRunHasOneDeadline
// sets as the ignored Pool.JobTimeout.
const progLong = `program long
  integer a(1:10)
  integer i
  integer j
  do i = 1, 5000
    do j = 1, 3000
      a(3) = a(3) + 1
    enddo
  enddo
  print a(3)
end
`

// TestRunHasOneDeadline: a run executes once, bounded only by its
// request's timeout_ms. A long run inside its timeout returns its
// result; one past it is a typed deadline error. Neither is retried or
// moves the breaker.
func TestRunHasOneDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Pool.JobTimeout = 100 * time.Millisecond })
	run := func(timeoutMS int64) *RunRequest {
		return &RunRequest{
			CompileRequest: CompileRequest{Source: progLong, Engine: "vmrce"},
			Budget:         Budget{TimeoutMS: timeoutMS},
		}
	}
	jobs := func() int {
		var m metricsDoc
		do(t, s, "GET", "/metrics", nil, &m)
		if m.Breaker.Trips != 0 || len(m.Breaker.Open) != 0 {
			t.Fatalf("breaker moved: %+v", m.Breaker)
		}
		return m.Pool.Jobs
	}

	for i := 0; i < 3; i++ {
		before := jobs()
		t0 := time.Now()
		var resp RunResponse
		w := do(t, s, "POST", "/run", run(20000), &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, w.Code, w.Body.String())
		}
		if resp.Output != "15000000\n" {
			t.Errorf("request %d: output = %q, want %q", i, resp.Output, "15000000\n")
		}
		if n := jobs() - before; n != 1 {
			t.Errorf("request %d ran %d times, want once", i, n)
		}
		t.Logf("request %d took %s", i, time.Since(t0))
	}

	before := jobs()
	w := do(t, s, "POST", "/run", run(50), nil)
	if e := wantError(t, w, http.StatusRequestTimeout, ClassResource); e.Resource != "deadline" {
		t.Errorf("resource = %q, want %q", e.Resource, "deadline")
	}
	if n := jobs() - before; n != 1 {
		t.Errorf("timed-out request ran %d times, want once", n)
	}
}
