package feed

import (
	"sync"

	"forkwatch/internal/metrics"
)

// Feed is the broker between the event source (engine observer or
// replica relay) and its consumers. It keeps the most recent events in
// a fixed circular replay ring and has one consumer path: a cursor read
// (ReadSince) plus a wake-up channel (WaitChan). The consumer owns its
// cursor, so a read that was lost — a dropped response, a reconnect —
// is simply repeated from the same position. Only when the cursor has
// fallen off the ring does the consumer see a gap.
type Feed struct {
	mu     sync.Mutex
	ring   []Event // circular: event seq lives at ring[seq%len(ring)]
	start  uint64  // the ring holds events [start, next)
	next   uint64
	wake   chan struct{} // what waiters block on; nil while nobody waits
	closed bool

	published *metrics.Counter
}

// NewFeed returns a feed with a replay ring of ringSize events, counting
// live.events in reg (nil means a private registry).
func NewFeed(reg *metrics.Registry, ringSize int) *Feed {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if ringSize <= 0 {
		ringSize = 1 << 16
	}
	return &Feed{
		ring:      make([]Event, ringSize),
		published: reg.Counter("live.events"),
	}
}

// Seq returns the next sequence number to be assigned — the cursor a
// new consumer starts from to see only future events.
func (f *Feed) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Publish assigns the event its sequence number, stores it in the ring
// (overwriting the oldest once the ring is full) and wakes waiters.
func (f *Feed) Publish(ev Event) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return f.next
	}
	ev.Seq = f.next
	f.ring[ev.Seq%uint64(len(f.ring))] = ev
	f.next++
	if f.next-f.start > uint64(len(f.ring)) {
		f.start++
	}
	f.published.Inc()
	f.wakeLocked()
	return ev.Seq
}

// wakeLocked releases everyone blocked on the current wake channel.
func (f *Feed) wakeLocked() {
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
}

// ready is what WaitChan returns when there is nothing to wait for.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// WaitChan returns a channel that is closed once an event at or past
// cursor exists (immediately if one already does, or the feed closed).
func (f *Feed) WaitChan(cursor uint64) <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next > cursor || f.closed {
		return ready
	}
	if f.wake == nil {
		f.wake = make(chan struct{})
	}
	return f.wake
}

// ReadSince returns up to max events matching (stream, chain) with
// Seq >= cursor, the cursor to resume from, and whether the read
// skipped a gap (cursor older than the ring). It never blocks.
func (f *Feed) ReadSince(stream, chain string, cursor uint64, max int) (events []Event, next uint64, gap bool) {
	if max <= 0 {
		max = 256
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if cursor < f.start {
		gap = true
		cursor = f.start
	}
	next = cursor
	for next < f.next && len(events) < max {
		ev := f.ring[next%uint64(len(f.ring))]
		next++
		if Match(stream, chain, ev) {
			events = append(events, ev)
		}
	}
	return events, next, gap
}

// Close ends the feed: future publishes are no-ops and waiters wake.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.wakeLocked()
}
