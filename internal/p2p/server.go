package p2p

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"forkwatch/internal/chain"
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

// Resilience defaults (all overridable via Config; negative disables).
const (
	defaultHandshakeTimeout = 5 * time.Second
	defaultReadTimeout      = 2 * time.Minute
	defaultWriteTimeout     = 10 * time.Second
	defaultSyncTimeout      = 10 * time.Second
	defaultDialBackoff      = 250 * time.Millisecond
	defaultMaxDialBackoff   = 30 * time.Second
	defaultDialMaxFails     = 3
	defaultDemoteScore      = 50
	defaultBanScore         = 100
	defaultBanWindow        = 5 * time.Minute
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

	// Resilience knobs. Zero selects the documented default; a negative
	// duration (or count) disables the mechanism.

	// HandshakeTimeout bounds the status exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReadTimeout is the per-message read deadline in the read loop; a
	// peer silent for longer is disconnected (default 2m — above the
	// keepalive ping interval, so live peers always have traffic).
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline; a stalled
	// (slow-loris) connection is dropped instead of wedging the write
	// loop (default 10s).
	WriteTimeout time.Duration
	// SyncTimeout bounds one block-range request; on expiry without
	// progress the range is re-requested from an alternate peer
	// (default 10s).
	SyncTimeout time.Duration
	// DialBackoff is the base redial backoff after a failed dial,
	// doubling per consecutive failure up to MaxDialBackoff with
	// deterministic per-node jitter (defaults 250ms / 30s).
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration
	// DialMaxFails is how many consecutive dial errors evict a node from
	// the discovery table (default 3).
	DialMaxFails int
	// DemoteScore and BanScore are the misbehavior-score thresholds at
	// which a peer is demoted (dialed last) and banned (defaults 50/100).
	DemoteScore int
	BanScore    int
	// BanWindow is how long a ban lasts, and the score half-life
	// (default 5m).
	BanWindow time.Duration
}

// effective returns v, or def when v is zero, or 0 when v is negative
// (negative = disabled).
func effective(v, def time.Duration) time.Duration {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
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

	// syncGen numbers block-range requests; the sync watchdog only acts
	// when its generation is still the latest (atomic).
	syncGen uint64

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
	cfg.HandshakeTimeout = effective(cfg.HandshakeTimeout, defaultHandshakeTimeout)
	cfg.ReadTimeout = effective(cfg.ReadTimeout, defaultReadTimeout)
	cfg.WriteTimeout = effective(cfg.WriteTimeout, defaultWriteTimeout)
	cfg.SyncTimeout = effective(cfg.SyncTimeout, defaultSyncTimeout)
	cfg.DialBackoff = effective(cfg.DialBackoff, defaultDialBackoff)
	cfg.MaxDialBackoff = effective(cfg.MaxDialBackoff, defaultMaxDialBackoff)
	cfg.BanWindow = effective(cfg.BanWindow, defaultBanWindow)
	switch {
	case cfg.DialMaxFails < 0:
		cfg.DialMaxFails = 0
	case cfg.DialMaxFails == 0:
		cfg.DialMaxFails = defaultDialMaxFails
	}
	if cfg.DemoteScore == 0 {
		cfg.DemoteScore = defaultDemoteScore
	}
	if cfg.BanScore == 0 {
		cfg.BanScore = defaultBanScore
	}
	return &Server{
		cfg:    cfg,
		table:  discover.NewTable(cfg.Self),
		scores: newScoreLedger(cfg.DemoteScore, cfg.BanScore, cfg.BanWindow, cfg.DialBackoff, cfg.MaxDialBackoff),
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
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if _, err := s.setupConn(conn); err != nil {
				s.cfg.Logf("p2p[%s]: inbound handshake failed: %v", s.cfg.Self.Addr, err)
			}
		}()
	}
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
		if fails := s.scores.dialFailed(n.ID); s.cfg.DialMaxFails > 0 && fails >= s.cfg.DialMaxFails {
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

// setupConn performs the status exchange and, on success, registers the
// peer and starts its read loop.
func (s *Server) setupConn(conn net.Conn) (*Peer, error) {
	if s.cfg.HandshakeTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	}
	// Write our status and read theirs concurrently; net.Pipe has no
	// buffering, so sequential write-then-read deadlocks when both sides
	// write first.
	errCh := make(chan error, 1)
	go func() {
		errCh <- WriteMsg(conn, MsgStatus, s.localStatus().encode())
	}()
	msg, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		<-errCh
		return nil, fmt.Errorf("p2p: reading status: %w", err)
	}
	if err := <-errCh; err != nil {
		conn.Close()
		return nil, fmt.Errorf("p2p: writing status: %w", err)
	}
	if msg.Code != MsgStatus {
		conn.Close()
		return nil, fmt.Errorf("%w: first message code %d", ErrBadMessage, msg.Code)
	}
	remote, err := decodeStatus(msg.Body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := s.checkStatus(remote); err != nil {
		conn.Close()
		return nil, err
	}
	if s.scores.banned(remote.Node.ID) {
		conn.Close()
		return nil, fmt.Errorf("%w: %x", ErrPeerBanned, remote.Node.ID[:4])
	}
	conn.SetDeadline(time.Time{})

	remoteID := remote.Node.ID
	peer := newPeer(conn, remote, s.cfg.WriteTimeout, func(err error) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.cfg.Logf("p2p[%s]: write timeout to %x (stalled peer)", s.cfg.Self.Addr, remoteID[:4])
			s.scores.penalize(remoteID, penaltyWriteTimeout)
		}
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
		if s.cfg.ReadTimeout > 0 {
			p.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		msg, err := ReadMsg(p.conn)
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
				// I/O error, deadline or closed conn.
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
		s.cfg.Logf("p2p[%s]: banning %x for %v: %s", s.cfg.Self.Addr, p.node.ID[:4], s.cfg.BanWindow, why)
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
			s.relayBlock(blk, td, p.node.ID)
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
			s.relayTxs(fresh, p.node.ID)
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
		p.send(MsgBlocks, encodeBlocks(blocks))
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
		p.send(MsgNeighbors, encodeNeighbors(nodes))
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
// heavier chain. Each request arms a watchdog: if the range makes no
// progress within SyncTimeout (the response was lost, or the peer is
// stalling), the range is re-requested from an alternate peer.
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
	if !p.send(MsgGetBlocks, encodeGetBlocks(from, count)) {
		return // peer closing or queue saturated; a later trigger retries
	}
	if s.cfg.SyncTimeout > 0 {
		gen := atomic.AddUint64(&s.syncGen, 1)
		time.AfterFunc(s.cfg.SyncTimeout, func() { s.syncExpired(gen, p, localNum) })
	}
}

// syncExpired is the block-range watchdog: when the request generation is
// still current and the head has not advanced, the requested peer never
// delivered — charge it and re-request from the best alternate peer.
func (s *Server) syncExpired(gen uint64, p *Peer, localNum uint64) {
	select {
	case <-s.quit:
		return
	default:
	}
	if atomic.LoadUint64(&s.syncGen) != gen {
		return // a newer request superseded this watchdog
	}
	_, num, _ := s.cfg.Backend.Head()
	if num > localNum {
		return // made progress through this or any other peer
	}
	s.penalizePeer(p, penaltyUnansweredSync, "unanswered block-range request")
	var alt *Peer
	var altTD *big.Int
	for _, cand := range s.Peers() {
		if cand.node.ID == p.node.ID || cand.Closed() {
			continue
		}
		_, _, td := cand.Head()
		if td != nil && (altTD == nil || td.Cmp(altTD) > 0) {
			alt, altTD = cand, td
		}
	}
	if alt == nil {
		if !p.Closed() {
			alt = p // nobody else: retry the same peer
		} else {
			return
		}
	}
	s.cfg.Logf("p2p[%s]: sync request to %x timed out, re-requesting via %x",
		s.cfg.Self.Addr, p.node.ID[:4], alt.node.ID[:4])
	s.maybeSync(alt)
}

// BroadcastBlock announces a locally produced block to every peer.
func (s *Server) BroadcastBlock(b *chain.Block) {
	_, _, td := s.cfg.Backend.Head()
	s.relayBlock(b, td, discover.NodeID{})
}

func (s *Server) relayBlock(b *chain.Block, td *big.Int, except discover.NodeID) {
	body := encodeNewBlock(b, td)
	for _, p := range s.Peers() {
		if p.node.ID == except {
			continue
		}
		p.send(MsgNewBlock, body)
	}
}

// BroadcastTxs announces transactions to every peer.
func (s *Server) BroadcastTxs(txs []*chain.Transaction) {
	s.relayTxs(txs, discover.NodeID{})
}

func (s *Server) relayTxs(txs []*chain.Transaction, except discover.NodeID) {
	body := encodeTxs(txs)
	for _, p := range s.Peers() {
		if p.node.ID == except {
			continue
		}
		p.send(MsgTransactions, body)
	}
}

// AnnounceHead sends a status refresh to all peers (e.g. after importing
// blocks out of band). Peers that became incompatible — the fork just
// activated — will drop us, partitioning the network.
func (s *Server) AnnounceHead() {
	status := s.localStatus().encode()
	for _, p := range s.Peers() {
		p.send(MsgStatus, status)
	}
}

// RequestNeighbors asks every peer for nodes near target, growing the
// local table.
func (s *Server) RequestNeighbors(target discover.NodeID) {
	body := encodeFindNode(target)
	for _, p := range s.Peers() {
		p.send(MsgFindNode, body)
	}
}

// BestPeerHead returns the heaviest head any live peer has advertised:
// its height and total difficulty, and whether any peer has advertised a
// head at all. Replicas read it to measure their own sync lag.
func (s *Server) BestPeerHead() (number uint64, td *big.Int, ok bool) {
	for _, p := range s.Peers() {
		_, num, ptd := p.Head()
		if ptd != nil && (td == nil || ptd.Cmp(td) > 0) {
			number, td, ok = num, ptd, true
		}
	}
	return number, td, ok
}

// SyncNow nudges the sync pull: if the best peer advertises a heavier
// chain than ours, re-request the next block range from it. The follow
// loop of a replica calls this periodically so a lost MsgBlocks frame
// (or a head announcement dropped by a faulty network) never strands the
// sync until the peer happens to announce again.
func (s *Server) SyncNow() {
	var best *Peer
	var bestTD *big.Int
	for _, p := range s.Peers() {
		if p.Closed() {
			continue
		}
		_, _, td := p.Head()
		if td != nil && (bestTD == nil || td.Cmp(bestTD) > 0) {
			best, bestTD = p, td
		}
	}
	if best != nil {
		s.maybeSync(best)
	}
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
