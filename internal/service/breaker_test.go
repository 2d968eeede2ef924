package service

import (
	"testing"
	"time"

	"nascent"
)

// fakeClock drives the breaker's cooldown in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerLifecycle walks the full state machine: closed → trip
// after threshold consecutive quarantines → degraded service → probe
// after cooldown → close on probe success.
func TestBreakerLifecycle(t *testing.T) {
	b, clk := newTestBreaker(3, time.Minute)
	pair := func() (bool, bool) { return b.allow(nascent.ALL, nascent.EngineVMOpt) }
	report := func(probe, abnormal bool) { b.report(nascent.ALL, nascent.EngineVMOpt, probe, abnormal) }

	// Closed: requests pass verbatim.
	if deg, probe := pair(); deg || probe {
		t.Fatalf("fresh breaker: degraded=%v probe=%v", deg, probe)
	}

	// Two quarantines, then a success: the consecutive counter resets.
	report(false, true)
	report(false, true)
	report(false, false)
	report(false, true)
	report(false, true)
	if deg, _ := pair(); deg {
		t.Fatal("breaker tripped below threshold (success did not reset the streak)")
	}

	// Third consecutive quarantine trips it.
	report(false, true)
	if deg, _ := pair(); !deg {
		t.Fatal("breaker did not trip at threshold")
	}
	if st := b.stats(); st.Trips != 1 || len(st.Open) != 1 {
		t.Fatalf("stats after trip: %+v", st)
	}

	// Another pair is unaffected.
	if deg, _ := b.allow(nascent.Naive, nascent.EngineTree); deg {
		t.Fatal("unrelated pair degraded")
	}

	// Before the cooldown: still degraded, no probe.
	clk.advance(30 * time.Second)
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("mid-cooldown: degraded=%v probe=%v", deg, probe)
	}

	// After the cooldown: exactly one probe goes through verbatim;
	// concurrent requests keep degrading while it is in flight.
	clk.advance(31 * time.Second)
	if deg, probe := pair(); deg || !probe {
		t.Fatalf("post-cooldown: degraded=%v probe=%v, want probe", deg, probe)
	}
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("second request during probe: degraded=%v probe=%v", deg, probe)
	}

	// Probe succeeds: circuit closes, traffic flows verbatim again.
	report(true, false)
	if deg, probe := pair(); deg || probe {
		t.Fatalf("after successful probe: degraded=%v probe=%v", deg, probe)
	}
}

// TestBreakerFailedProbe: a failed probe re-opens the circuit and
// restarts the cooldown from the failure.
func TestBreakerFailedProbe(t *testing.T) {
	b, clk := newTestBreaker(2, time.Minute)
	report := func(probe, abnormal bool) { b.report(nascent.LLS, nascent.EngineVMOpt, probe, abnormal) }
	pair := func() (bool, bool) { return b.allow(nascent.LLS, nascent.EngineVMOpt) }

	report(false, true)
	report(false, true) // trips
	clk.advance(time.Minute)
	if _, probe := pair(); !probe {
		t.Fatal("no probe after cooldown")
	}
	report(true, true) // probe failed

	// Still open; the cooldown restarted, so just before it elapses
	// there is no new probe.
	clk.advance(time.Minute - time.Second)
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("after failed probe: degraded=%v probe=%v", deg, probe)
	}
	clk.advance(2 * time.Second)
	if _, probe := pair(); !probe {
		t.Fatal("no second probe after restarted cooldown")
	}
	if st := b.stats(); st.Trips != 2 || st.Probes != 2 {
		t.Fatalf("stats: %+v, want 2 trips, 2 probes", st)
	}
}
