package p2p

import (
	"sync/atomic"
	"time"

	"forkwatch/internal/clock"
)

// Keepalive message codes (continuing the table in messages.go).
const (
	MsgPing uint64 = iota + 16
	MsgPong
)

// KeepaliveLoop's pacing and silence limit.
const (
	keepaliveInterval = 10 * time.Second
	keepaliveTimeout  = time.Minute
)

// The keepalive frames have empty bodies, so one of each serves every peer.
var pingFrame, pongFrame = endFrame(beginFrame(MsgPing)), endFrame(beginFrame(MsgPong))

// lastSeenNanos is maintained on every inbound message (see readLoop) and
// consulted by the keepalive loop.
func (p *Peer) touch() {
	atomic.StoreInt64(&p.lastSeen, p.clk.Now().UnixNano())
}

// LastSeen returns the time of the peer's most recent inbound message.
func (p *Peer) LastSeen() time.Time {
	return time.Unix(0, atomic.LoadInt64(&p.lastSeen))
}

// KeepaliveLoop pings every peer each keepaliveInterval and drops peers
// that have been silent for longer than keepaliveTimeout — the liveness
// half of the peer churn the paper's node counts reflect. Runs until the
// server closes; call in a goroutine.
func (s *Server) KeepaliveLoop() {
	s.every(keepaliveInterval, func() {
		now := s.cfg.Clock.Now()
		for _, p := range s.Peers() {
			if now.Sub(p.LastSeen()) > keepaliveTimeout {
				s.cfg.Logf("p2p[%s]: dropping silent peer %x", s.cfg.Self.Addr, p.node.ID[:4])
				// Unanswered pings feed the score ledger: chronic
				// silence eventually demotes and bans the node instead
				// of redialing it forever.
				s.penalizePeer(p, penaltyUnansweredPing, "unanswered pings")
				s.dropPeer(p)
				continue
			}
			p.send(pingFrame)
		}
	})
}

// every runs tick each interval on the server's clock until the server
// closes. Close waits for it, so a closed server leaves no timer behind.
func (s *Server) every(interval time.Duration, tick func()) {
	if !s.join() {
		return
	}
	defer s.wg.Done()
	for clock.Wait(s.cfg.Clock, interval, s.quit) {
		tick()
	}
}

// handleKeepalive processes ping/pong; returns true when the message was
// one of them.
func (s *Server) handleKeepalive(p *Peer, msg Message) bool {
	switch msg.Code {
	case MsgPing:
		p.send(pongFrame)
		return true
	case MsgPong:
		return true // touch() already updated liveness
	default:
		return false
	}
}
