package service

import (
	"sync"
	"time"

	"nascent"
)

// breaker is a circuit breaker over (scheme, engine) pairs. Its one
// input is the self-audit: when a sampled response proves wrong, trip
// opens the served pair until a cooldown passes. Requests for an open
// pair are served degraded (see Server.resolve); once the cooldown has
// passed the pair serves verbatim again, and later audit samples judge
// it afresh.
//
// Degradation preserves program semantics — output and traps are
// engine- and scheme-independent — but not the check counters (naive
// keeps every check), so responses carry an explicit Degraded marker.
type breaker struct {
	mu        sync.Mutex
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	openUntil map[pairKey]time.Time

	trips  uint64
	served uint64 // requests served degraded
}

type pairKey struct {
	scheme nascent.Scheme
	engine nascent.Engine
}

// breakerStats is the wire form of the breaker counters.
type breakerStats struct {
	CooldownMS int64          `json:"cooldown_ms"`
	Open       []breakerState `json:"open,omitempty"`
	Trips      uint64         `json:"trips"`
	Degraded   uint64         `json:"degraded"`
}

type breakerState struct {
	Scheme string `json:"scheme"`
	Engine string `json:"engine"`
}

func newBreaker(cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &breaker{
		cooldown:  cooldown,
		now:       time.Now,
		openUntil: map[pairKey]time.Time{},
	}
}

// allow reports whether a request for (scheme, engine) must be served
// degraded, counting it if so.
func (b *breaker) allow(scheme nascent.Scheme, engine nascent.Engine) (degraded bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.now().Before(b.openUntil[pairKey{scheme, engine}]) {
		return false
	}
	b.served++
	return true
}

// trip opens the pair's circuit for one cooldown from now. The
// self-auditor calls it: one proven wrong answer is enough to degrade
// the pair to the reference configuration at once.
func (b *breaker) trip(scheme nascent.Scheme, engine nascent.Engine) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.openUntil[pairKey{scheme, engine}] = b.now().Add(b.cooldown)
	b.trips++
}

// isOpen reports whether the pair's circuit is currently open, without
// moving any counter. resolve uses it to pick a degradation target that
// is itself healthy.
func (b *breaker) isOpen(scheme nascent.Scheme, engine nascent.Engine) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now().Before(b.openUntil[pairKey{scheme, engine}])
}

func (b *breaker) stats() breakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := breakerStats{
		CooldownMS: b.cooldown.Milliseconds(),
		Trips:      b.trips,
		Degraded:   b.served,
	}
	now := b.now()
	for k, until := range b.openUntil {
		if now.Before(until) {
			s.Open = append(s.Open, breakerState{Scheme: k.scheme.String(), Engine: k.engine.String()})
		}
	}
	return s
}
