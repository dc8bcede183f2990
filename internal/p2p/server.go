package p2p

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/clock"
	"forkwatch/internal/discover"
)

// Handshake / connection errors.
var (
	ErrGenesisMismatch  = errors.New("p2p: genesis mismatch")
	ErrNetworkMismatch  = errors.New("p2p: network id mismatch")
	ErrProtocolMismatch = errors.New("p2p: protocol version mismatch")
	ErrForkMismatch     = errors.New("p2p: incompatible fork id (other side of the partition)")
	ErrAlreadyConnected = errors.New("p2p: already connected to this node")
	ErrTooManyPeers     = errors.New("p2p: peer limit reached")
	ErrServerClosed     = errors.New("p2p: server closed")
	ErrSelfConnect      = errors.New("p2p: refusing to connect to self")
	ErrPeerBanned       = errors.New("p2p: peer is banned (score ledger)")
	ErrDialBackoff      = errors.New("p2p: dial suppressed by backoff window")
)

// Resilience constants; tests step a fake clock by them.
const (
	handshakeTimeout = 5 * time.Second        // the status exchange
	readTimeout      = 2 * time.Minute        // a silent peer (above the keepalive interval)
	writeTimeout     = 10 * time.Second       // one frame write: a slow loris is dropped
	syncTimeout      = 10 * time.Second       // one block-range request, then an alternate peer
	dialBackoff      = 250 * time.Millisecond // first redial window, doubling per failure...
	maxDialBackoff   = 30 * time.Second       // ...up to this, with per-node jitter
	dialMaxFails     = 3                      // consecutive dial errors evict a node from the table
	demoteScore      = 50                     // misbehavior score dialed last...
	banScore         = 100                    // ...and banned for banWindow
	banWindow        = 5 * time.Minute        // a ban, and the score half-life
)

// maxServedBlocks caps one MsgGetBlocks response: one chain run, so a
// received range lands as one commit.
const maxServedBlocks = chain.MaxRun

// Dialer connects to a node address. net.Dialer-based transports and the
// in-memory MemNet both satisfy it.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(addr string) (net.Conn, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(addr string) (net.Conn, error) { return f(addr) }

// TCPDialer dials over real TCP.
func TCPDialer(timeout time.Duration) Dialer {
	return DialerFunc(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
}

// Config configures a Server.
type Config struct {
	// Self is the node identity advertised in handshakes and neighbors
	// responses. Self.Addr must be dialable via Dialer.
	Self discover.Node
	// NetworkID must match between peers (1 for the mainnet-like nets).
	NetworkID uint64
	// MaxPeers bounds live connections (inbound + outbound).
	MaxPeers int
	// Backend is the ledger gossiped for.
	Backend Backend
	// Dialer reaches other nodes; required for Connect and discovery.
	Dialer Dialer
	// Logf, when set, receives debug lines.
	Logf func(format string, args ...any)

	// Clock times handshakes, idle and stalled connections, the sync
	// watchdog, the score ledger and the background loops; nil means
	// the real clock.
	Clock clock.Clock
}

// Server runs the wire protocol for one node: it accepts and dials peers,
// gossips blocks and transactions, serves sync and discovery queries, and
// enforces the fork-id handshake that partitions the network.
type Server struct {
	cfg    Config
	table  *discover.Table
	scores *scoreLedger

	mu       sync.Mutex
	peers    map[discover.NodeID]*Peer
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup

	// syncTimer watches the latest block-range request, number syncGen;
	// a newer request stops it, and a fired one acts only if current.
	syncTimer clock.Timer
	syncGen   uint64

	quit chan struct{}
}

// NewServer returns a stopped server; call Serve (with a listener) and/or
// Connect to join the network.
func NewServer(cfg Config) *Server {
	if cfg.MaxPeers <= 0 {
		cfg.MaxPeers = 25
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Clock = clock.Or(cfg.Clock)
	return &Server{
		cfg:    cfg,
		table:  discover.NewTable(cfg.Self),
		scores: newScoreLedger(cfg.Clock),
		peers:  make(map[discover.NodeID]*Peer),
		quit:   make(chan struct{}),
	}
}

// PeerScore returns the node's current misbehavior score (tests and
// operators inspect the ledger through this).
func (s *Server) PeerScore(id discover.NodeID) int { return s.scores.scoreOf(id) }

// Banned reports whether the node is inside an active ban window.
func (s *Server) Banned(id discover.NodeID) bool { return s.scores.banned(id) }

// Serve accepts inbound connections until the listener or server closes.
// It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listener = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return ErrServerClosed
			default:
				return err
			}
		}
		if !s.join() {
			conn.Close()
			return ErrServerClosed
		}
		go func() {
			defer s.wg.Done()
			if _, err := s.setupConn(conn); err != nil {
				s.cfg.Logf("p2p[%s]: inbound handshake failed: %v", s.cfg.Self.Addr, err)
			}
		}()
	}
}

// join registers one more goroutine for Close to wait for, unless the
// server is already closed (no Add may race Close's Wait).
func (s *Server) join() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.wg.Add(1)
	}
	return !s.closed
}

// Connect dials a node and runs the handshake. On success the peer is
// live and its read loop runs until disconnect. Failed attempts feed an
// exponential redial backoff; repeated dial errors evict the node from
// the discovery table; banned nodes are refused outright.
func (s *Server) Connect(n discover.Node) error {
	if n.ID == s.cfg.Self.ID {
		return ErrSelfConnect
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if _, dup := s.peers[n.ID]; dup {
		s.mu.Unlock()
		return ErrAlreadyConnected
	}
	s.mu.Unlock()
	if s.scores.banned(n.ID) {
		return fmt.Errorf("%w: %x", ErrPeerBanned, n.ID[:4])
	}
	if !s.scores.canDial(n.ID) {
		return fmt.Errorf("%w: %x", ErrDialBackoff, n.ID[:4])
	}

	conn, err := s.cfg.Dialer.Dial(n.Addr)
	if err != nil {
		// Dead endpoint: back off, and evict from the table once the
		// consecutive-failure budget is spent (it can be re-learned
		// through Neighbors gossip later).
		if s.scores.dialFailed(n.ID) >= dialMaxFails {
			s.table.Remove(n.ID)
		}
		return fmt.Errorf("p2p: dial %s: %w", n.Addr, err)
	}
	if _, err = s.setupConn(conn); err != nil {
		// The endpoint is alive but the handshake failed (other fork,
		// wrong genesis, timeout under loss...): back off so the dial
		// loop does not redial it hot, but keep it in the table.
		if !errors.Is(err, ErrAlreadyConnected) && !errors.Is(err, ErrTooManyPeers) && !errors.Is(err, ErrServerClosed) {
			s.scores.dialFailed(n.ID)
		}
		return err
	}
	s.scores.dialOK(n.ID)
	return nil
}

// localStatus snapshots the handshake payload.
func (s *Server) localStatus() *Status {
	head, number, td := s.cfg.Backend.Head()
	return &Status{
		ProtocolVersion: ProtocolVersion,
		NetworkID:       s.cfg.NetworkID,
		TD:              td,
		Head:            head,
		HeadNumber:      number,
		Genesis:         s.cfg.Backend.Genesis(),
		ForkID:          s.cfg.Backend.ForkID(),
		Node:            s.cfg.Self,
	}
}

// exchangeStatus is the handshake's status exchange on conn, for servers
// and probes alike: it writes local's status frame and reads the remote's
// concurrently — net.Pipe has no buffering, so write-then-read deadlocks
// when both sides write first — and decodes the remote's. A failed read
// closes conn, which releases the write; any other failure leaves conn to
// the caller.
func exchangeStatus(conn net.Conn, local *Status) (*Status, error) {
	errCh := make(chan error, 1)
	go func() { errCh <- writeFrame(conn, local.encode()) }()
	msg, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		<-errCh
		return nil, fmt.Errorf("p2p: reading status: %w", err)
	}
	if err := <-errCh; err != nil {
		return nil, fmt.Errorf("p2p: writing status: %w", err)
	}
	if msg.Code != MsgStatus {
		return nil, fmt.Errorf("%w: first message code %d", ErrBadMessage, msg.Code)
	}
	return decodeStatus(msg.Body)
}

// setupConn performs the status exchange and, on success, registers the
// peer and starts its read loop.
func (s *Server) setupConn(conn net.Conn) (*Peer, error) {
	// The exchange ends at handshakeTimeout, or at Close, which must not
	// wait on a silent peer.
	done := make(chan struct{})
	go func() {
		select {
		case <-s.quit:
			conn.Close()
		case <-done:
		}
	}()
	timer := s.cfg.Clock.AfterFunc(handshakeTimeout, func() { conn.Close() })
	remote, err := exchangeStatus(conn, s.localStatus())
	timer.Stop()
	close(done)
	if err == nil {
		err = s.checkStatus(remote)
	}
	if err == nil && s.scores.banned(remote.Node.ID) {
		err = fmt.Errorf("%w: %x", ErrPeerBanned, remote.Node.ID[:4])
	}
	if err != nil {
		conn.Close()
		return nil, err
	}

	remoteID := remote.Node.ID
	peer := newPeer(conn, remote, s.cfg.Clock, func() {
		s.cfg.Logf("p2p[%s]: write timeout to %x (stalled peer)", s.cfg.Self.Addr, remoteID[:4])
		s.scores.penalize(remoteID, penaltyWriteTimeout)
	})
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		peer.Close()
		return nil, ErrServerClosed
	case len(s.peers) >= s.cfg.MaxPeers:
		s.mu.Unlock()
		peer.Close()
		return nil, ErrTooManyPeers
	default:
		if _, dup := s.peers[remote.Node.ID]; dup {
			s.mu.Unlock()
			peer.Close()
			return nil, ErrAlreadyConnected
		}
		s.peers[remote.Node.ID] = peer
	}
	s.mu.Unlock()
	s.table.Add(remote.Node)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.readLoop(peer)
	}()

	// If the peer is ahead, start syncing.
	s.maybeSync(peer)
	return peer, nil
}

func (s *Server) checkStatus(remote *Status) error {
	if remote.ProtocolVersion != ProtocolVersion {
		return fmt.Errorf("%w: %d vs %d", ErrProtocolMismatch, remote.ProtocolVersion, ProtocolVersion)
	}
	if remote.NetworkID != s.cfg.NetworkID {
		return fmt.Errorf("%w: %d vs %d", ErrNetworkMismatch, remote.NetworkID, s.cfg.NetworkID)
	}
	if remote.Genesis != s.cfg.Backend.Genesis() {
		return ErrGenesisMismatch
	}
	if remote.Node.ID == s.cfg.Self.ID {
		return ErrSelfConnect
	}
	if !remote.ForkID.Compatible(s.cfg.Backend.ForkID()) {
		return ErrForkMismatch
	}
	return nil
}

func (s *Server) readLoop(p *Peer) {
	defer s.dropPeer(p)
	for {
		idle := s.cfg.Clock.AfterFunc(readTimeout, func() { p.conn.Close() })
		msg, err := ReadMsg(p.conn)
		idle.Stop()
		if err != nil {
			switch {
			case errors.Is(err, ErrBadMessage):
				// The length framing survived, only the payload was
				// garbage: account for the corruption and keep reading
				// unless the peer crossed the ban line.
				if s.penalizePeer(p, penaltyCorruptFrame, "corrupt frame") {
					return
				}
				continue
			case errors.Is(err, ErrFrameTooLarge):
				// A corrupted length prefix desyncs the stream beyond
				// recovery: score it and drop the connection.
				s.penalizePeer(p, penaltyCorruptFrame, "corrupt frame header")
				return
			default:
				// I/O error or closed conn (idle, stalled or dropped).
				return
			}
		}
		p.touch()
		if s.handleKeepalive(p, msg) {
			continue
		}
		if err := s.handle(p, msg); err != nil {
			if errors.Is(err, ErrBadMessage) {
				if s.penalizePeer(p, penaltyBadMessage, "malformed message") {
					return
				}
				continue
			}
			s.cfg.Logf("p2p[%s]: dropping %x: %v", s.cfg.Self.Addr, p.node.ID[:4], err)
			return
		}
	}
}

// penalizePeer charges pts against the peer's misbehavior score and
// reports whether the peer is now banned (callers should disconnect).
func (s *Server) penalizePeer(p *Peer, pts int, why string) bool {
	if s.scores.penalize(p.node.ID, pts) {
		s.cfg.Logf("p2p[%s]: banning %x for %v: %s", s.cfg.Self.Addr, p.node.ID[:4], banWindow, why)
		return true
	}
	s.cfg.Logf("p2p[%s]: penalizing %x (+%d): %s", s.cfg.Self.Addr, p.node.ID[:4], pts, why)
	return false
}

func (s *Server) dropPeer(p *Peer) {
	p.Close()
	s.mu.Lock()
	if cur, ok := s.peers[p.node.ID]; ok && cur == p {
		delete(s.peers, p.node.ID)
	}
	s.mu.Unlock()
}

func (s *Server) handle(p *Peer, msg Message) error {
	switch msg.Code {
	case MsgStatus:
		// Post-handshake status refresh (head announcement).
		remote, err := decodeStatus(msg.Body)
		if err != nil {
			return err
		}
		// A peer that crossed to the other side of the partition (e.g.
		// upgraded software mid-session) is dropped, as real nodes do.
		if !remote.ForkID.Compatible(s.cfg.Backend.ForkID()) {
			return ErrForkMismatch
		}
		p.setHead(remote.Head, remote.HeadNumber, remote.TD)
		s.maybeSync(p)
		return nil

	case MsgNewBlock:
		blk, td, err := decodeNewBlock(msg.Body)
		if err != nil {
			return err
		}
		p.setHead(blk.Hash(), blk.Number(), td)
		if s.cfg.Backend.HasBlock(blk.Hash()) {
			return nil
		}
		switch err := s.cfg.Backend.InsertBlock(blk); {
		case err == nil:
			s.broadcast(encodeNewBlock(blk, td), p.node.ID)
		case errors.Is(err, chain.ErrKnownBlock):
			// raced another relay; fine
		case errors.Is(err, chain.ErrUnknownParent):
			s.maybeSync(p)
		case errors.Is(err, chain.ErrSideOfPartition):
			return err // drop peers feeding us the other fork
		default:
			s.cfg.Logf("p2p[%s]: bad block %s: %v", s.cfg.Self.Addr, blk.Hash(), err)
			if s.penalizePeer(p, penaltyInvalidBlock, "invalid block") {
				return fmt.Errorf("%w: repeated invalid blocks", ErrPeerBanned)
			}
		}
		return nil

	case MsgTransactions:
		txs, err := decodeTxs(msg.Body)
		if err != nil {
			return err
		}
		var fresh []*chain.Transaction
		for _, tx := range txs {
			if s.cfg.Backend.KnowsTransaction(tx.Hash()) {
				continue
			}
			if err := s.cfg.Backend.AddTransaction(tx); err == nil {
				fresh = append(fresh, tx)
			}
		}
		if len(fresh) > 0 {
			s.broadcast(encodeTxs(fresh), p.node.ID)
		}
		return nil

	case MsgGetBlocks:
		from, count, err := decodeGetBlocks(msg.Body)
		if err != nil {
			return err
		}
		if count > maxServedBlocks {
			count = maxServedBlocks
		}
		var blocks []*chain.Block
		for n := from; n < from+count; n++ {
			b, ok := s.cfg.Backend.BlockByNumber(n)
			if !ok {
				break
			}
			blocks = append(blocks, b)
		}
		p.send(encodeBlocks(blocks))
		return nil

	case MsgBlocks:
		blocks, err := decodeBlocks(msg.Body)
		if err != nil {
			return err
		}
		// The range lands as one commit, up to its first invalid block.
		if _, err := s.cfg.Backend.InsertChain(blocks); errors.Is(err, chain.ErrSideOfPartition) {
			return err
		}
		// Keep pulling if the peer is still ahead.
		s.maybeSync(p)
		return nil

	case MsgFindNode:
		target, err := decodeFindNode(msg.Body)
		if err != nil {
			return err
		}
		nodes := s.table.Closest(target, discover.BucketSize)
		p.send(encodeNeighbors(nodes))
		return nil

	case MsgNeighbors:
		nodes, err := decodeNeighbors(msg.Body)
		if err != nil {
			return err
		}
		for _, n := range nodes {
			if n.ID != s.cfg.Self.ID {
				s.table.Add(n)
			}
		}
		return nil

	default:
		return fmt.Errorf("%w: unknown code %d", ErrBadMessage, msg.Code)
	}
}

// maybeSync requests the next block range when the peer advertises a
// heavier chain. Each request arms a watchdog, replacing the previous
// request's: if the range makes no progress within syncTimeout (the
// response was lost, or the peer is stalling), the range is re-requested
// from an alternate peer.
func (s *Server) maybeSync(p *Peer) {
	_, localNum, localTD := s.cfg.Backend.Head()
	_, remoteNum, remoteTD := p.Head()
	if remoteTD == nil || localTD.Cmp(remoteTD) >= 0 {
		return
	}
	from := localNum + 1
	count := uint64(maxServedBlocks)
	if remoteNum >= from && remoteNum-from+1 < count {
		count = remoteNum - from + 1
	}
	// A heavier chain may be shorter; ask for at least one block around
	// our head so fork choice can see it.
	if remoteNum < from {
		if remoteNum == 0 {
			return
		}
		from = remoteNum
		count = 1
	}
	if !p.send(encodeGetBlocks(from, count)) {
		return // peer closing or queue saturated; a later trigger retries
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.syncTimer != nil {
		s.syncTimer.Stop()
	}
	if s.closed {
		s.syncTimer = nil
		return
	}
	s.syncGen++
	gen := s.syncGen
	s.syncTimer = s.cfg.Clock.AfterFunc(syncTimeout, func() { s.syncExpired(gen, p, localNum) })
}

// syncExpired is the block-range watchdog: when the request generation is
// still current and the head has not advanced, the requested peer never
// delivered — charge it and re-request from the best alternate peer.
func (s *Server) syncExpired(gen uint64, p *Peer, localNum uint64) {
	s.mu.Lock()
	current := !s.closed && s.syncGen == gen
	s.mu.Unlock()
	if !current {
		return // closed, or a newer request superseded this watchdog
	}
	_, num, _ := s.cfg.Backend.Head()
	if num > localNum {
		return // made progress through this or any other peer
	}
	s.penalizePeer(p, penaltyUnansweredSync, "unanswered block-range request")
	alt, _, _ := s.heaviestPeer(p.node.ID)
	if alt == nil {
		if p.Closed() {
			return
		}
		alt = p // nobody else: retry the same peer
	}
	s.cfg.Logf("p2p[%s]: sync request to %x timed out, re-requesting via %x",
		s.cfg.Self.Addr, p.node.ID[:4], alt.node.ID[:4])
	s.maybeSync(alt)
}

// BroadcastBlock announces a locally produced block to every peer.
func (s *Server) BroadcastBlock(b *chain.Block) {
	_, _, td := s.cfg.Backend.Head()
	s.broadcast(encodeNewBlock(b, td), discover.NodeID{})
}

// broadcast queues one frame, encoded once, to every peer but except.
func (s *Server) broadcast(frame []byte, except discover.NodeID) {
	for _, p := range s.Peers() {
		if p.node.ID != except {
			p.send(frame)
		}
	}
}

// BroadcastTxs announces transactions to every peer.
func (s *Server) BroadcastTxs(txs []*chain.Transaction) {
	s.broadcast(encodeTxs(txs), discover.NodeID{})
}

// AnnounceHead sends a status refresh to all peers (e.g. after importing
// blocks out of band). Peers that became incompatible — the fork just
// activated — will drop us, partitioning the network.
func (s *Server) AnnounceHead() {
	s.broadcast(s.localStatus().encode(), discover.NodeID{})
}

// RequestNeighbors asks every peer for nodes near target, growing the
// local table.
func (s *Server) RequestNeighbors(target discover.NodeID) {
	s.broadcast(encodeFindNode(target), discover.NodeID{})
}

// BestPeerHead returns the heaviest head any live peer has advertised:
// its height and total difficulty, and whether any peer has advertised a
// head at all. Replicas read it to measure their own sync lag.
func (s *Server) BestPeerHead() (number uint64, td *big.Int, ok bool) {
	p, number, td := s.heaviestPeer(discover.NodeID{})
	return number, td, p != nil
}

// SyncNow nudges the sync pull: if the best peer advertises a heavier
// chain than ours, re-request the next block range from it. The follow
// loop of a replica calls this periodically so a lost MsgBlocks frame
// (or a head announcement dropped by a faulty network) never strands the
// sync until the peer happens to announce again.
func (s *Server) SyncNow() {
	if best, _, _ := s.heaviestPeer(discover.NodeID{}); best != nil {
		s.maybeSync(best)
	}
}

// heaviestPeer returns the live peer but except with the heaviest
// advertised head, and that head's height and total difficulty.
func (s *Server) heaviestPeer(except discover.NodeID) (best *Peer, number uint64, td *big.Int) {
	for _, p := range s.Peers() {
		if p.node.ID == except || p.Closed() {
			continue
		}
		if _, num, ptd := p.Head(); ptd != nil && (td == nil || ptd.Cmp(td) > 0) {
			best, number, td = p, num, ptd
		}
	}
	return best, number, td
}

// Peers returns a snapshot of live peers.
func (s *Server) Peers() []*Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	return out
}

// PeerCount returns the number of live peers.
func (s *Server) PeerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// Close tears down the listener and every peer and waits for the loops to
// exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.quit)
	if s.syncTimer != nil {
		s.syncTimer.Stop()
	}
	ln := s.listener
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.Close()
	}
	s.wg.Wait()
}
