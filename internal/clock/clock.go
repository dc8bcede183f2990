// Package clock is the wire's one source of time. p2p, faultnet, the
// replica follow loop and the failover client read the time and arm their
// timers through a Clock: Real in the commands, a Fake that moves only on
// Advance in tests, so a test steps a production timeout (a 5 m ban, a
// 10 s stall) in microseconds, and a busy host cannot fire one early.
package clock

import (
	"sync"
	"time"
)

// Clock tells the time and runs functions after a delay.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has passed: on its own goroutine for Real,
	// inside Advance for Fake.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc. Stop cancels it and reports whether it
// was still pending.
type Timer interface {
	Stop() bool
}

// Real is the wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Or returns c, or Real when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// Wait blocks until d has passed on c or done is closed, and reports
// whether d passed. It leaves no timer behind either way.
func Wait(c Clock, d time.Duration, done <-chan struct{}) bool {
	fired := make(chan struct{})
	t := c.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-done:
		t.Stop()
		return false
	}
}

// Fake is a Clock that moves only when Advance is called. Timers fire
// inside Advance, in deadline order (ties in arming order), on the
// caller's goroutine and without the clock's lock held, so a function
// they run must not wait on the same clock. Safe for concurrent use.
type Fake struct {
	advance sync.Mutex // one Advance at a time

	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // in arming order
}

type fakeTimer struct {
	f    *Fake
	when time.Time
	fn   func()
}

// NewFake returns a fake clock stopped at the DAO fork's block time
// (2016-07-20 13:20:40 UTC), the moment the paper's partition began.
func NewFake() *Fake {
	return &Fake{now: time.Unix(1469020840, 0).UTC()}
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// AfterFunc arms fn to run once the clock has advanced by d (d <= 0:
// on the next Advance, even Advance(0)).
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, when: f.now.Add(d), fn: fn}
	f.timers = append(f.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every timer that falls
// due on the way, timers armed by the fired functions included.
func (f *Fake) Advance(d time.Duration) {
	f.advance.Lock()
	defer f.advance.Unlock()
	f.mu.Lock()
	end := f.now.Add(d)
	for {
		next := -1
		for i, t := range f.timers {
			if !t.when.After(end) && (next < 0 || t.when.Before(f.timers[next].when)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := f.timers[next]
		f.timers = append(f.timers[:next], f.timers[next+1:]...)
		if t.when.After(f.now) {
			f.now = t.when
		}
		f.mu.Unlock()
		t.fn()
		f.mu.Lock()
	}
	f.now = end
	f.mu.Unlock()
}

// Pending returns the number of armed timers: the leak check for code
// that must stop what it arms.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

func (t *fakeTimer) Stop() bool {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, p := range f.timers {
		if p == t {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}
