package service

import (
	"errors"
	"net/http"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/guard"
)

func TestDrillDisabled(t *testing.T) {
	s := newTestServer(t, nil) // AllowDrill off
	w := do(t, s, "POST", "/drill", DrillRequest{Spec: "1:1", Run: RunRequest{CompileRequest: CompileRequest{Source: progOK}}}, nil)
	wantError(t, w, http.StatusForbidden, ClassDrill)
}

func TestDrillBadSpec(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AllowDrill = true })
	w := do(t, s, "POST", "/drill", DrillRequest{Spec: "not-a-spec", Run: RunRequest{CompileRequest: CompileRequest{Source: progOK}}}, nil)
	wantError(t, w, http.StatusBadRequest, ClassDrill)
}

func TestDrillBusy(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AllowDrill = true })
	release, err := chaos.AcquireDrill(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteOptPanic})
	if err != nil {
		t.Fatalf("AcquireDrill: %v", err)
	}
	defer release()
	w := do(t, s, "POST", "/drill", DrillRequest{Spec: "1:1:optimize.panic", Run: RunRequest{CompileRequest: CompileRequest{Source: progOK}}}, nil)
	wantError(t, w, http.StatusConflict, ClassDrill)
}

// TestDrillDegradesOptimizer: an optimizer panic injected by a drill
// degrades the function to its naive body; the run still succeeds, and
// the response reports the fired injections.
func TestDrillDegradesOptimizer(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AllowDrill = true })
	var resp DrillResponse
	w := do(t, s, "POST", "/drill", DrillRequest{
		Spec: "7:1:optimize.panic",
		Run:  RunRequest{CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: "lls"}, Engine: "vmrce"}},
	}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Error != nil || resp.Result == nil {
		t.Fatalf("drill failed: %+v", resp.Error)
	}
	if resp.Fired == 0 {
		t.Error("drill reports zero injections fired")
	}
	if opt := resp.Result.Compile.Opt; opt == nil || len(opt.Degraded) == 0 {
		t.Errorf("optimizer panic did not degrade a function: %+v", opt)
	}
	want, err := nascent.Compile(progOK, nascent.Options{BoundsChecks: true, Filename: "input.mf"})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := want.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Output != rr.Output {
		t.Errorf("degraded run output %q, want %q", resp.Result.Output, rr.Output)
	}
	if chaos.Active() {
		t.Error("injection still armed after the drill returned")
	}
}

// TestDrillReplayRoundTrip is the replay contract end to end: a drill
// whose fault fails the run reports a typed error and echoes its spec;
// re-arming that spec on a fresh pool reproduces the same typed
// failure, the path an operator follows from a drill to `nacc -chaos`.
func TestDrillReplayRoundTrip(t *testing.T) {
	if chaos.Active() {
		t.Fatal("chaos already enabled")
	}
	s := newTestServer(t, func(c *Config) { c.AllowDrill = true })
	spec := chaos.Spec{Seed: 7, Rate: 1, Site: chaos.SiteTreePanic} // rate 1: the first poll panics

	var resp DrillResponse
	w := do(t, s, "POST", "/drill", DrillRequest{
		Spec: spec.String(),
		Run:  RunRequest{CompileRequest: CompileRequest{Source: progOK}},
	}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Error == nil || resp.Result != nil {
		t.Fatalf("rate-1 tree.poll.panic drill did not fail: %+v", resp)
	}
	if resp.Error.Class != ClassInternal {
		t.Fatalf("error class = %q, want %q", resp.Error.Class, ClassInternal)
	}
	if resp.Fired == 0 {
		t.Error("drill reports zero injections fired")
	}

	// Replay: parse the echoed spec and reproduce the failure on a
	// fresh pool, exactly as -chaos would.
	parsed, err := chaos.ParseSpec(resp.Spec)
	if err != nil {
		t.Fatalf("replay spec %q does not parse: %v", resp.Spec, err)
	}
	if parsed != spec {
		t.Fatalf("replay spec round-trip changed: %+v vs %+v", parsed, spec)
	}
	release, err := chaos.AcquireDrill(parsed)
	if err != nil {
		t.Fatalf("arm replay: %v", err)
	}
	defer release()
	res := evalpool.New(1).Evaluate([]evalpool.Job{{
		Name: "drill", Source: progOK, Filename: "replay.mf",
		Opts: nascent.Options{BoundsChecks: true},
	}})
	if !errors.Is(res[0].Err, guard.ErrInternal) {
		t.Fatalf("replay err = %v, want a contained internal error", res[0].Err)
	}

	// The service-level metrics recorded the drill and its failed job.
	release() // disarm before reading metrics so currentChaos is quiet
	var m metricsDoc
	do(t, s, "GET", "/metrics", nil, &m)
	if m.Pool.Errors == 0 {
		t.Errorf("pool metrics missed the drill: %+v", m.Pool)
	}
	if m.Requests.Drill == 0 {
		t.Errorf("drill counter = %d, want > 0", m.Requests.Drill)
	}
}

// TestDrillClassIgnoresName: a drill's error class comes from the
// stage that failed, not from its caller-chosen job name. A name that
// reads like a run-stage tag must not turn a parse error into a
// program fault, and an unchecked out-of-range store is a fault under
// any name.
func TestDrillClassIgnoresName(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AllowDrill = true })
	off := false
	for _, tc := range []struct {
		src   string
		opts  Options
		class string
		exit  int
	}{
		{progBad, Options{}, ClassCompile, 3},
		{progTrap, Options{BoundsChecks: &off}, ClassFault, 1},
	} {
		for _, name := range []string{"", "x: run: y"} {
			var resp DrillResponse
			w := do(t, s, "POST", "/drill", DrillRequest{
				Spec: "1:0",
				Name: name,
				Run:  RunRequest{CompileRequest: CompileRequest{Source: tc.src, Options: tc.opts}},
			}, &resp)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
			}
			if resp.Error == nil {
				t.Fatalf("name %q: drill did not fail: %+v", name, resp.Result)
			}
			if resp.Error.Class != tc.class || resp.Error.NaccExit != tc.exit {
				t.Errorf("name %q: class %q exit %d, want %q exit %d (%s)",
					name, resp.Error.Class, resp.Error.NaccExit, tc.class, tc.exit, resp.Error.Message)
			}
		}
	}
}
