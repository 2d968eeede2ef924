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

// isOpen reports whether the pair's circuit is currently open, without
// moving any counter.
func (b *breaker) isOpen(scheme nascent.Scheme, engine nascent.Engine) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now().Before(b.openUntil[pairKey{scheme, engine}])
}

func newTestBreaker(cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerLifecycle walks the whole cycle: closed → trip → degraded
// service for one cooldown → verbatim service again.
func TestBreakerLifecycle(t *testing.T) {
	b, clk := newTestBreaker(time.Minute)
	pair := func() bool { return b.allow(nascent.ALL, nascent.EngineVMOpt) }

	// Closed: requests pass verbatim.
	if pair() {
		t.Fatal("fresh breaker degraded a request")
	}

	b.trip(nascent.ALL, nascent.EngineVMOpt)
	if !pair() {
		t.Fatal("breaker did not open on trip")
	}
	if st := b.stats(); st.Trips != 1 || len(st.Open) != 1 || st.Degraded != 1 {
		t.Fatalf("stats after trip: %+v", st)
	}

	// Another pair is unaffected.
	if b.allow(nascent.Naive, nascent.EngineTree) {
		t.Fatal("unrelated pair degraded")
	}

	// Before the cooldown: still degraded.
	clk.advance(59 * time.Second)
	if !pair() || !b.isOpen(nascent.ALL, nascent.EngineVMOpt) {
		t.Fatal("breaker closed mid-cooldown")
	}

	// After the cooldown: every request is served verbatim again.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if pair() {
			t.Fatalf("request %d after the cooldown was degraded", i)
		}
	}
	if st := b.stats(); st.Trips != 1 || len(st.Open) != 0 || st.Degraded != 2 {
		t.Fatalf("stats after cooldown: %+v", st)
	}
}

// TestBreakerTripRestartsCooldown: a trip while the pair is open
// restarts its cooldown from the new trip.
func TestBreakerTripRestartsCooldown(t *testing.T) {
	b, clk := newTestBreaker(time.Minute)
	pair := func() bool { return b.allow(nascent.LLS, nascent.EngineVMOpt) }

	b.trip(nascent.LLS, nascent.EngineVMOpt)
	clk.advance(50 * time.Second)
	b.trip(nascent.LLS, nascent.EngineVMOpt)

	// Just before the restarted cooldown elapses the pair is open.
	clk.advance(time.Minute - time.Second)
	if !pair() {
		t.Fatal("second trip did not restart the cooldown")
	}
	clk.advance(time.Second)
	if pair() {
		t.Fatal("pair still degraded after the restarted cooldown")
	}
	if st := b.stats(); st.Trips != 2 {
		t.Fatalf("stats: %+v, want 2 trips", st)
	}
}
