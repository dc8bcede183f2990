package rpc

import (
	"testing"
	"time"

	"forkwatch/internal/clock"
)

// TestBreakerTripAndRecover walks the full state machine on a fake
// clock: closed until the threshold, open for the cooldown, a single
// half-open probe, and both probe outcomes.
func TestBreakerTripAndRecover(t *testing.T) {
	clk := clock.NewFake()
	b := newBreaker(3, time.Second)
	b.clk = clk

	// Closed: failures below the threshold keep allowing.
	b.Fail()
	b.Fail()
	if !b.Allow() || b.Open() {
		t.Fatal("breaker opened below its threshold")
	}
	// A success resets the streak.
	b.Success()
	b.Fail()
	b.Fail()
	if b.Open() {
		t.Fatal("success did not reset the failure streak")
	}
	// Third consecutive failure trips it.
	b.Fail()
	if !b.Open() || b.Allow() {
		t.Fatal("threshold failures did not open the breaker")
	}

	// Cooldown: still shedding just before it elapses.
	clk.Advance(time.Second - time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted work inside the cooldown")
	}
	// After the cooldown exactly one probe goes through.
	clk.Advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// Failed probe: re-open for a fresh cooldown.
	b.Fail()
	if b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	clk.Advance(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after the second cooldown")
	}
	// Successful probe closes it.
	b.Success()
	if b.Open() || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
}
