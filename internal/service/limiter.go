package service

import (
	"context"
	"net/http"
	"sync/atomic"
)

// limiter is the admission controller: at most maxConcurrent requests
// execute at once, at most maxQueue more wait for a slot, and everything
// beyond that is shed immediately with a typed 429 — bounded latency
// for admitted requests instead of unbounded degradation for everyone.
//
// Admitted work compiles and runs on the request's goroutine, so the
// limiter alone owns concurrency.
type limiter struct {
	sem    chan struct{} // buffered to maxConcurrent; a token = a slot
	queued atomic.Int64
	maxQ   int64

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// limiterStats is the wire form of the admission counters.
type limiterStats struct {
	MaxConcurrent int    `json:"max_concurrent"`
	MaxQueue      int    `json:"max_queue"`
	InFlight      int    `json:"in_flight"`
	Queued        int64  `json:"queued"`
	Admitted      uint64 `json:"admitted"`
	Shed          uint64 `json:"shed"`
}

func newLimiter(maxConcurrent, maxQueue int) *limiter {
	if maxConcurrent <= 0 {
		maxConcurrent = 16
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &limiter{
		sem:  make(chan struct{}, maxConcurrent),
		maxQ: int64(maxQueue),
	}
}

// shedError is the typed 429 the limiter sheds with.
func shedError(retryAfter int) *Error {
	return &Error{
		Class:      ClassShed,
		Message:    "server saturated: admission queue full, retry later",
		Status:     http.StatusTooManyRequests,
		NaccExit:   -1,
		RetryAfter: retryAfter,
	}
}

// acquire admits one request, blocking in the bounded queue if every
// slot is busy. It returns a release func on admission, or a typed
// error: ClassShed when the queue is full, ClassResource when ctx was
// cancelled while queued.
func (l *limiter) acquire(ctx context.Context) (func(), *Error) {
	// Fast path: free slot, no queueing.
	select {
	case l.sem <- struct{}{}:
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	default:
	}
	// Saturated: join the bounded wait queue or shed. The counter is
	// optimistic — under a race a few extra requests may briefly queue —
	// but the bound holds within workers±1, which is what shedding needs.
	if l.queued.Add(1) > l.maxQ {
		l.queued.Add(-1)
		l.shed.Add(1)
		return nil, shedError(1)
	}
	defer l.queued.Add(-1)
	select {
	case l.sem <- struct{}{}:
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	case <-ctx.Done():
		return nil, &Error{
			Class:    ClassResource,
			Message:  "request cancelled while queued for admission",
			Status:   http.StatusRequestTimeout,
			NaccExit: 4,
			Resource: "context",
		}
	}
}

func (l *limiter) releaseFunc() func() {
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			<-l.sem
		}
	}
}

func (l *limiter) stats() limiterStats {
	return limiterStats{
		MaxConcurrent: cap(l.sem),
		MaxQueue:      int(l.maxQ),
		InFlight:      len(l.sem),
		Queued:        l.queued.Load(),
		Admitted:      l.admitted.Load(),
		Shed:          l.shed.Load(),
	}
}
