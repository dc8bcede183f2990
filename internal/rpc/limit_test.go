package rpc

import (
	"sort"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/clock"
)

// TestRateLimiterOnFakeClock: a client's bucket holds two seconds' worth
// of tokens and refills at the rate up to that burst and no further; an
// empty bucket sheds with a Retry-After of at least one second; a sweep
// drops the buckets idle past reapAfter and keeps the rest.
func TestRateLimiterOnFakeClock(t *testing.T) {
	clk := clock.NewFake()
	l := newRateLimiter(4) // a burst of 8
	l.clk = clk
	take := func(key string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if ok, _ := l.allow(key); !ok {
				t.Fatalf("%s: request %d of %d shed", key, i+1, n)
			}
		}
	}
	shed := func(key string, wantRetry time.Duration) {
		t.Helper()
		if ok, retry := l.allow(key); ok || retry != wantRetry {
			t.Fatalf("%s: allow = %v, retry %s; want shed with retry %s", key, ok, retry, wantRetry)
		}
	}
	take("a", 8)
	shed("a", time.Second) // a quarter-second wait, raised to the minimum
	clk.Advance(time.Second)
	take("a", 4)
	shed("a", time.Second)
	clk.Advance(10 * time.Second) // refills to the burst, not to 40
	take("a", 8)
	shed("a", time.Second)

	slow := newRateLimiter(0.25) // a burst of one token, one per 4 s
	slow.clk = clk
	if ok, _ := slow.allow("a"); !ok {
		t.Fatal("slow: first request shed")
	}
	if ok, retry := slow.allow("a"); ok || retry != 4*time.Second {
		t.Fatalf("slow: allow = %v, retry %s; want shed with retry 4s", ok, retry)
	}

	reap := newRateLimiter(1)
	reap.clk = clk
	reap.allow("old") // the first call sweeps and starts the horizon
	clk.Advance(reapAfter / 2)
	reap.allow("recent")
	clk.Advance(reapAfter/2 + time.Second)
	reap.allow("new") // past the horizon: sweeps again
	var kept []string
	for k := range reap.buckets {
		kept = append(kept, k)
	}
	sort.Strings(kept)
	if got := strings.Join(kept, ","); got != "new,recent" {
		t.Fatalf("buckets after the sweep = %s, want new,recent", got)
	}
}
