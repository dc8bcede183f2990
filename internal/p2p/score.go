package p2p

import (
	"sync"
	"time"

	"forkwatch/internal/clock"
	"forkwatch/internal/discover"
)

// Score penalties. A peer accumulates points for misbehavior; crossing
// demoteScore deprioritizes it in the dial loop, crossing banScore bans
// it for banWindow. Scores halve once per ban window, so old sins expire.
const (
	penaltyCorruptFrame   = 25 // undecodable or oversized frame
	penaltyBadMessage     = 25 // well-framed but malformed payload
	penaltyInvalidBlock   = 40 // block that fails validation
	penaltyUnansweredPing = 15 // dropped by the keepalive silence check
	penaltyWriteTimeout   = 10 // write stalled past writeTimeout
	penaltyUnansweredSync = 10 // block-range request that timed out
)

// scoreLedger tracks per-node misbehavior scores, ban windows and dial
// backoff across connections. Keyed by node ID, it survives reconnects:
// a banned peer stays banned even if it redials from a fresh socket.
type scoreLedger struct {
	clk clock.Clock

	mu      sync.Mutex
	entries map[discover.NodeID]*scoreEntry
}

type scoreEntry struct {
	score       int
	lastDecay   time.Time
	bannedUntil time.Time
	dialFails   int
	nextDial    time.Time
}

func newScoreLedger(clk clock.Clock) *scoreLedger {
	return &scoreLedger{clk: clk, entries: make(map[discover.NodeID]*scoreEntry)}
}

func (l *scoreLedger) entry(id discover.NodeID) *scoreEntry {
	e, ok := l.entries[id]
	if !ok {
		e = &scoreEntry{lastDecay: l.clk.Now()}
		l.entries[id] = e
	}
	return e
}

// decayLocked halves the score once per elapsed ban window.
func (l *scoreLedger) decayLocked(e *scoreEntry, now time.Time) {
	if e.score == 0 {
		e.lastDecay = now
		return
	}
	for now.Sub(e.lastDecay) >= banWindow && e.score > 0 {
		e.score /= 2
		e.lastDecay = e.lastDecay.Add(banWindow)
	}
	if e.score == 0 {
		e.lastDecay = now
	}
}

// penalize charges pts against the node and reports whether the node is
// now (or already was) banned.
func (l *scoreLedger) penalize(id discover.NodeID, pts int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.Now()
	e := l.entry(id)
	if now.Before(e.bannedUntil) {
		return true
	}
	l.decayLocked(e, now)
	e.score += pts
	if e.score >= banScore {
		e.bannedUntil = now.Add(banWindow)
		e.score = 0
		return true
	}
	return false
}

// score returns the node's current (decayed) score.
func (l *scoreLedger) scoreOf(id discover.NodeID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return 0
	}
	l.decayLocked(e, l.clk.Now())
	return e.score
}

// banned reports whether the node is inside an active ban window.
func (l *scoreLedger) banned(id discover.NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	return ok && l.clk.Now().Before(e.bannedUntil)
}

// demoted reports whether the node's score crossed the demotion line;
// the dial loop tries demoted nodes only after healthy candidates.
func (l *scoreLedger) demoted(id discover.NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return false
	}
	l.decayLocked(e, l.clk.Now())
	return e.score >= demoteScore
}

// canDial reports whether the node is dialable now: not banned and past
// its backoff horizon.
func (l *scoreLedger) canDial(id discover.NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return true
	}
	now := l.clk.Now()
	return !now.Before(e.bannedUntil) && !now.Before(e.nextDial)
}

// dialFailed records a failed connection attempt and schedules the next
// allowed dial with exponential backoff and deterministic per-node
// jitter. Returns the consecutive failure count.
func (l *scoreLedger) dialFailed(id discover.NodeID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(id)
	e.dialFails++
	e.nextDial = l.clk.Now().Add(discover.DialBackoff(id, e.dialFails, dialBackoff, maxDialBackoff))
	return e.dialFails
}

// dialOK clears the node's failure history after a successful handshake.
func (l *scoreLedger) dialOK(id discover.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[id]; ok {
		e.dialFails = 0
		e.nextDial = time.Time{}
	}
}
