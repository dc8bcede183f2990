package rpc

import (
	"sync"
	"time"

	"forkwatch/internal/clock"
)

// breaker is a consecutive-failure circuit breaker guarding one route's
// store. Closed, it passes every attempt through and counts consecutive
// failures; once threshold failures accumulate it opens and sheds every
// attempt for cooldown without touching the store; after the cooldown one
// probe attempt is let through half-open — its outcome decides between
// closing again and another full cooldown.
//
// The breaker only counts what callers report: feed it storage failures,
// not caller mistakes (invalid params), or it will open against healthy
// infrastructure.
type breaker struct {
	threshold int
	cooldown  time.Duration
	clk       clock.Clock

	mu       sync.Mutex
	fails    int       // consecutive failures while closed
	openedAt time.Time // zero = closed
	probing  bool      // half-open probe in flight
}

// newBreaker builds a breaker tripping after threshold consecutive
// failures and shedding for cooldown before probing.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, clk: clock.Real}
}

// Allow reports whether an attempt may proceed. While open it returns
// false until the cooldown elapses, then admits exactly one half-open
// probe; the probe's Success/Fail settles the state.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return true
	}
	if b.clk.Now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false // one probe at a time
	}
	b.probing = true
	return true
}

// Success reports a completed attempt: resets the failure streak and
// closes the breaker if the attempt was the half-open probe.
func (b *breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.openedAt = time.Time{}
	b.probing = false
	b.mu.Unlock()
}

// Fail reports a storage failure. Reaching the threshold — or failing the
// half-open probe — (re)opens the breaker for a fresh cooldown.
func (b *breaker) Fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openedAt.IsZero() {
		// Failed probe (or a straggler from before the trip): restart the
		// cooldown from now.
		b.openedAt = b.clk.Now()
		b.probing = false
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.openedAt = b.clk.Now()
		b.fails = 0
	}
}

// Open reports whether the breaker is currently shedding.
func (b *breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openedAt.IsZero() && b.clk.Now().Sub(b.openedAt) < b.cooldown
}
