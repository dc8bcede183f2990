package p2p

import (
	"math/big"
	"net"
	"sync"
	"sync/atomic"

	"forkwatch/internal/clock"
	"forkwatch/internal/discover"
	"forkwatch/internal/types"
)

// sendQueueLen bounds the per-peer outbound queue. Gossip is lossy by
// design: a peer that cannot keep up misses announcements and recovers
// through block-range sync.
const sendQueueLen = 256

// Peer is one live connection after a successful handshake.
type Peer struct {
	node discover.Node
	conn net.Conn

	// clk times the write-stall timer; onWriteTimeout, when set, hears
	// that a stalled write closed the conn (to score it).
	clk            clock.Clock
	onWriteTimeout func()

	sendCh chan []byte
	closed chan struct{}
	once   sync.Once

	mu         sync.Mutex
	headHash   types.Hash
	headNumber uint64
	td         *big.Int

	// lastSeen is the clock's unix-nano time of the latest inbound
	// message (atomic; see keepalive.go).
	lastSeen int64
	// queueDrops counts frames dropped because the send queue was full
	// (atomic).
	queueDrops uint64
}

func newPeer(conn net.Conn, status *Status, clk clock.Clock, onWriteTimeout func()) *Peer {
	p := &Peer{
		node:           status.Node,
		conn:           conn,
		clk:            clk,
		onWriteTimeout: onWriteTimeout,
		sendCh:         make(chan []byte, sendQueueLen),
		closed:         make(chan struct{}),
		headHash:       status.Head,
		headNumber:     status.HeadNumber,
		td:             types.BigCopy(status.TD),
	}
	p.touch()
	go p.writeLoop()
	return p
}

// Node returns the peer's identity.
func (p *Peer) Node() discover.Node { return p.node }

// Head returns the peer's last announced head and total difficulty.
func (p *Peer) Head() (types.Hash, uint64, *big.Int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.headHash, p.headNumber, types.BigCopy(p.td)
}

func (p *Peer) setHead(hash types.Hash, number uint64, td *big.Int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if td != nil && (p.td == nil || td.Cmp(p.td) > 0) {
		p.headHash, p.headNumber, p.td = hash, number, types.BigCopy(td)
	}
}

// QueueDrops returns how many outbound frames were shed because the
// peer's send queue was full.
func (p *Peer) QueueDrops() uint64 { return atomic.LoadUint64(&p.queueDrops) }

// send enqueues a frame; the queue and the write loop only read it, so
// one frame serves every peer it is sent to. A full queue sheds the OLDEST
// queued frame to make room — stale gossip is the cheapest thing to lose,
// and a slow peer degrades gracefully instead of head-of-line blocking
// every broadcast. Reports whether the new message was queued.
func (p *Peer) send(frame []byte) bool {
	select {
	case p.sendCh <- frame:
		return true
	case <-p.closed:
		return false
	default:
	}
	// Queue full: drop the oldest frame, then retry once.
	select {
	case <-p.sendCh:
		atomic.AddUint64(&p.queueDrops, 1)
	default:
	}
	select {
	case p.sendCh <- frame:
		return true
	case <-p.closed:
		return false
	default:
		atomic.AddUint64(&p.queueDrops, 1)
		return false
	}
}

func (p *Peer) writeLoop() {
	for {
		select {
		case frame := <-p.sendCh:
			// Re-check for close: both channels may be ready and select
			// picks randomly — never write after Close.
			select {
			case <-p.closed:
				return
			default:
			}
			stall := p.clk.AfterFunc(writeTimeout, func() { p.conn.Close() })
			_, err := p.conn.Write(frame)
			if !stall.Stop() && p.onWriteTimeout != nil {
				p.onWriteTimeout() // the timer closed the conn
			}
			if err != nil {
				p.Close()
				return
			}
		case <-p.closed:
			return
		}
	}
}

// Close tears the connection down. Idempotent.
func (p *Peer) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.conn.Close()
	})
}

// Closed reports whether the peer has been torn down.
func (p *Peer) Closed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}
