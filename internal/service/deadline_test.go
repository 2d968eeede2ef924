package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
// moves the breaker: each request makes one cache lookup and counts
// once.
func TestRunHasOneDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Pool.JobTimeout = 100 * time.Millisecond })
	run := func(timeoutMS int64) *RunRequest {
		return &RunRequest{
			CompileRequest: CompileRequest{Source: progLong, Engine: "vmrce"},
			Budget:         Budget{TimeoutMS: timeoutMS},
		}
	}
	// lookups is the number of cache lookups and /run requests so far.
	lookups := func() (uint64, uint64) {
		var m metricsDoc
		do(t, s, "GET", "/metrics", nil, &m)
		if m.Breaker.Trips != 0 || len(m.Breaker.Open) != 0 {
			t.Fatalf("breaker moved: %+v", m.Breaker)
		}
		return m.Cache.Hits + m.Cache.Misses, m.Requests.Run
	}
	once := func(label string, before, runs uint64) {
		t.Helper()
		after, afterRuns := lookups()
		if after-before != 1 || afterRuns-runs != 1 {
			t.Errorf("%s: %d cache lookups for %d requests, want 1 for 1", label, after-before, afterRuns-runs)
		}
	}

	for i := 0; i < 3; i++ {
		before, runs := lookups()
		t0 := time.Now()
		var resp RunResponse
		w := do(t, s, "POST", "/run", run(20000), &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, w.Code, w.Body.String())
		}
		if resp.Output != "15000000\n" {
			t.Errorf("request %d: output = %q, want %q", i, resp.Output, "15000000\n")
		}
		once(fmt.Sprintf("request %d", i), before, runs)
		t.Logf("request %d took %s", i, time.Since(t0))
	}

	before, runs := lookups()
	w := do(t, s, "POST", "/run", run(50), nil)
	if e := wantError(t, w, http.StatusRequestTimeout, ClassResource); e.Resource != "deadline" {
		t.Errorf("resource = %q, want %q", e.Resource, "deadline")
	}
	once("timed-out request", before, runs)
}

// slowCompileSource is nests loop nests, each storing through a
// subscript ALL has to reason about: enough compile work under ALL to
// outlast a 1 ms timeout many times over, with a run of a few
// microseconds.
func slowCompileSource(nests int) string {
	var b strings.Builder
	b.WriteString("program slowc\n  integer a(1:100)\n  integer i, j\n")
	for range nests {
		b.WriteString("  do i = 1, 10\n    do j = 1, i\n      a(i + j) = a(j) + i\n    enddo\n  enddo\n")
	}
	b.WriteString("  print a(20)\nend\n")
	return b.String()
}

// TestSlowCompileIsDeadline: the request deadline covers the compile
// as well as the run. A cached-path /run whose cold compile outlasts
// timeout_ms is the resource error a no_cache run of the same request
// gets, 408 "deadline", not a compile failure; the program itself
// compiles.
func TestSlowCompileIsDeadline(t *testing.T) {
	s := newTestServer(t, nil)
	src := slowCompileSource(400)
	for _, noCache := range []bool{false, true} {
		w := do(t, s, "POST", "/run", RunRequest{
			CompileRequest: CompileRequest{Source: src, Options: Options{Scheme: "all"}},
			Budget:         Budget{TimeoutMS: 1},
			NoCache:        noCache,
		}, nil)
		if e := wantError(t, w, http.StatusRequestTimeout, ClassResource); e.Resource != "deadline" || e.NaccExit != 4 {
			t.Errorf("no_cache=%v: resource %q exit %d, want %q exit 4", noCache, e.Resource, e.NaccExit, "deadline")
		}
	}
	var resp CompileResponse
	if w := do(t, s, "POST", "/compile", CompileRequest{Source: src, Options: Options{Scheme: "all"}}, &resp); w.Code != http.StatusOK || !resp.CacheHit {
		t.Errorf("compile: status %d, cache hit %v; want 200 from the entry the timed-out run filled", w.Code, resp.CacheHit)
	}
}

// TestCancelledRequestIsContext: a /run whose client has already gone
// is the typed resource error "context", not a compile failure.
func TestCancelledRequestIsContext(t *testing.T) {
	s := newTestServer(t, nil)
	raw, err := json.Marshal(RunRequest{CompileRequest: CompileRequest{Source: progOK}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/run", bytes.NewReader(raw)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if e := wantError(t, w, http.StatusRequestTimeout, ClassResource); e.Resource != "context" {
		t.Errorf("resource = %q, want %q", e.Resource, "context")
	}
}
