package p2p

import (
	"sync/atomic"
	"time"
)

// Keepalive message codes (continuing the table in messages.go).
const (
	MsgPing uint64 = iota + 16
	MsgPong
)

// The keepalive frames have empty bodies, so one of each serves every peer.
var pingFrame, pongFrame = endFrame(beginFrame(MsgPing)), endFrame(beginFrame(MsgPong))

// lastSeenNanos is maintained on every inbound message (see readLoop) and
// consulted by the keepalive loop.
func (p *Peer) touch() {
	atomic.StoreInt64(&p.lastSeen, time.Now().UnixNano())
}

// LastSeen returns the time of the peer's most recent inbound message.
func (p *Peer) LastSeen() time.Time {
	return time.Unix(0, atomic.LoadInt64(&p.lastSeen))
}

// KeepaliveLoop pings every peer each interval and drops peers that have
// been silent for longer than timeout — the liveness half of the peer
// churn the paper's node counts reflect. Runs until the server closes;
// call in a goroutine.
func (s *Server) KeepaliveLoop(interval, timeout time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, p := range s.Peers() {
			if now.Sub(p.LastSeen()) > timeout {
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
