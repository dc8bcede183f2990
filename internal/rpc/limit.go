package rpc

import (
	"sync"
	"time"

	"forkwatch/internal/clock"
)

// rateLimiter is a per-client token-bucket limiter: each client key (the
// remote host) owns a bucket refilled at rate tokens/second up to a burst
// of two seconds' worth (at least one token). A request that finds the bucket empty is shed at the transport with
// 429 + Retry-After. Buckets idle past the reap horizon are dropped so an
// address churn (load generators, NAT pools) cannot grow the table
// without bound.
type rateLimiter struct {
	rate  float64 // tokens per second; <= 0 disables limiting
	burst float64
	clk   clock.Clock

	mu      sync.Mutex
	buckets map[string]*bucket
	lastGC  time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// reapAfter is how long an untouched bucket survives.
const reapAfter = 5 * time.Minute

func newRateLimiter(rate float64) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   float64(max(int(2*rate), 1)),
		clk:     clock.Real,
		buckets: make(map[string]*bucket),
	}
}

// allow consumes one token from key's bucket, reporting whether the
// request may proceed and, when shed, the suggested retry delay.
func (l *rateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	if l.rate <= 0 {
		return true, 0
	}
	now := l.clk.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[key]
	if !exists {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if now.Sub(l.lastGC) > reapAfter {
		l.lastGC = now
		for k, v := range l.buckets {
			if now.Sub(v.last) > reapAfter {
				delete(l.buckets, k)
			}
		}
	}
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
		if wait < time.Second {
			wait = time.Second
		}
		return false, wait
	}
	b.tokens--
	return true, 0
}
