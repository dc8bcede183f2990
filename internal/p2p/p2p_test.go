package p2p

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/clock"
	"forkwatch/internal/db"
	"forkwatch/internal/discover"
	"forkwatch/internal/keccak"
	"forkwatch/internal/types"
)

var (
	alice = types.HexToAddress("0xa11ce")
	bob   = types.HexToAddress("0xb0b")
	miner = types.HexToAddress("0x313233")
)

func testGenesis() *chain.Genesis {
	return &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       1_000_000,
		Alloc: map[types.Address]*big.Int{
			alice: new(big.Int).Mul(big.NewInt(100), chain.Ether),
		},
	}
}

// Self returns the local node identity.
func (s *Server) Self() discover.Node { return s.cfg.Self }

// Table exposes the discovery table, which tests seed and inspect.
func (s *Server) Table() *discover.Table { return s.table }

func nodeID(name string) discover.NodeID {
	h := keccak.Sum256([]byte(name))
	return discover.IDFromHash(types.BytesToHash(h[:]))
}

// testNode bundles a served p2p node for tests.
type testNode struct {
	name    string
	server  *Server
	backend *ChainBackend
	bc      *chain.Blockchain
}

func newTestNode(t *testing.T, mem *MemNet, name string, bc *chain.Blockchain) *testNode {
	return newTestNodeCfg(t, mem, name, bc, nil)
}

// newTestNodeCfg is newTestNode with a config hook (its clock, its dialer).
func newTestNodeCfg(t *testing.T, mem *MemNet, name string, bc *chain.Blockchain, mut func(*Config)) *testNode {
	t.Helper()
	backend := NewChainBackend(bc)
	self := discover.Node{ID: nodeID(name), Addr: name}
	cfg := Config{
		Self:      self,
		NetworkID: 1,
		MaxPeers:  32,
		Backend:   backend,
		Dialer:    mem,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv := NewServer(cfg)
	ln, err := mem.Listen(name)
	if err != nil {
		t.Fatalf("listen %s: %v", name, err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return &testNode{name: name, server: srv, backend: backend, bc: bc}
}

func newChain(t testing.TB, cfg *chain.Config) *chain.Blockchain {
	t.Helper()
	bc, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func mineOn(t testing.TB, bc *chain.Blockchain, txs ...*chain.Transaction) *chain.Block {
	t.Helper()
	b, err := bc.BuildBlock(miner, bc.Head().Header.Time+14, txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// stepUntil advances clk by step, pausing a millisecond of wall time
// per step for the goroutines it woke, until cond holds; it fails the
// test after 20 s of wall time. A loaded host takes more steps, never a
// timeout sooner: every timer is on clk.
func stepUntil(t *testing.T, clk *clock.Fake, step time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (clock stepped by %v)", what, step)
		}
		clk.Advance(step)
		time.Sleep(time.Millisecond)
	}
}

// onClock is a newTestNodeCfg hook that runs the node on clk.
func onClock(clk clock.Clock) func(*Config) {
	return func(c *Config) { c.Clock = clk }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMsgFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, encodeGetBlocks(42, 7)); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Code != MsgGetBlocks {
		t.Errorf("code = %d", msg.Code)
	}
	if from, count, err := decodeGetBlocks(msg.Body); err != nil || from != 42 || count != 7 {
		t.Errorf("payload corrupted: from %d, count %d, err %v", from, count, err)
	}
	if err := writeFrame(&buf, make([]byte, 4+MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame written: err = %v", err)
	}
}

func TestMsgFramingErrors(t *testing.T) {
	// Truncated frame.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2})); err == nil {
		t.Error("truncated frame should fail")
	}
	// Oversized frame header.
	if _, err := ReadMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v", err)
	}
	// Garbage payload.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 1, 0xb9})); !errors.Is(err, ErrBadMessage) {
		t.Errorf("garbage payload: err = %v", err)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	s := &Status{
		ProtocolVersion: ProtocolVersion,
		NetworkID:       1,
		TD:              big.NewInt(12345678),
		Head:            types.HexToHash("0xbeef"),
		HeadNumber:      99,
		Genesis:         types.HexToHash("0xfeed"),
		ForkID:          chain.ForkID{DAOForkBlock: 1920000, DAOForkSupport: true},
		Node:            discover.Node{ID: nodeID("n"), Addr: "n"},
	}
	msg, err := ReadMsg(bytes.NewReader(s.encode()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeStatus(msg.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TD.Cmp(s.TD) != 0 || dec.Head != s.Head || dec.ForkID != s.ForkID || dec.Node != s.Node {
		t.Errorf("status round trip mismatch: %+v vs %+v", dec, s)
	}
}

func TestMemNet(t *testing.T) {
	mem := NewMemNet()
	ln, err := mem.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate listen: err = %v", err)
	}
	if _, err := mem.Dial("nobody"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial unknown: err = %v", err)
	}
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	client, err := mem.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	server := <-done
	go client.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := server.Read(buf); err != nil || string(buf) != "ping" {
		t.Errorf("pipe transfer failed: %q %v", buf, err)
	}
	ln.Close()
	if _, err := mem.Dial("a"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial closed listener: err = %v", err)
	}
}

func TestHandshakeAndPeering(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "a", newChain(t, chain.MainnetLikeConfig()))
	b := newTestNode(t, mem, "b", newChain(t, chain.MainnetLikeConfig()))

	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatalf("connect: %v", err)
	}
	waitFor(t, "peering", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 1
	})
	if err := a.server.Connect(b.server.Self()); !errors.Is(err, ErrAlreadyConnected) {
		t.Errorf("duplicate connect: err = %v", err)
	}
	if err := a.server.Connect(a.server.Self()); !errors.Is(err, ErrSelfConnect) {
		t.Errorf("self connect: err = %v", err)
	}
}

func TestHandshakeGenesisMismatch(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "a", newChain(t, chain.MainnetLikeConfig()))

	otherGen, err := chain.NewBlockchain(chain.MainnetLikeConfig(), &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       42, // different genesis
	})
	if err != nil {
		t.Fatal(err)
	}
	b := newTestNode(t, mem, "b", otherGen)
	if err := a.server.Connect(b.server.Self()); !errors.Is(err, ErrGenesisMismatch) {
		t.Errorf("genesis mismatch: err = %v", err)
	}
	if a.server.PeerCount() != 0 {
		t.Error("mismatched peer should not be registered")
	}
}

// buildPartitionedChains returns an ETH and an ETC chain sharing genesis,
// both advanced past the DAO fork block so their fork ids conflict.
func buildPartitionedChains(t *testing.T) (*chain.Blockchain, *chain.Blockchain) {
	t.Helper()
	const forkBlock = 2
	gen := testGenesis()
	eth, err := chain.NewBlockchain(chain.ETHConfig(forkBlock, nil, types.Address{}), gen)
	if err != nil {
		t.Fatal(err)
	}
	etc, err := eth.NewSibling(chain.ETCConfig(forkBlock), gen)
	if err != nil {
		t.Fatal(err)
	}
	// Shared block 1.
	b1, err := eth.BuildBlock(miner, eth.Head().Header.Time+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eth.InsertBlock(b1); err != nil {
		t.Fatal(err)
	}
	if err := etc.InsertBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Divergent fork blocks.
	mineOn(t, eth)
	mineOn(t, etc)
	return eth, etc
}

func TestHandshakeForkPartition(t *testing.T) {
	mem := NewMemNet()
	eth, etc := buildPartitionedChains(t)
	a := newTestNode(t, mem, "eth-node", eth)
	b := newTestNode(t, mem, "etc-node", etc)

	if err := a.server.Connect(b.server.Self()); !errors.Is(err, ErrForkMismatch) {
		t.Errorf("cross-partition connect: err = %v", err)
	}
	if a.server.PeerCount() != 0 || b.server.PeerCount() != 0 {
		t.Error("cross-partition peers should not persist")
	}
}

func TestBlockGossip(t *testing.T) {
	mem := NewMemNet()
	cfg := chain.MainnetLikeConfig()
	a := newTestNode(t, mem, "a", newChain(t, cfg))
	b := newTestNode(t, mem, "b", newChain(t, chain.MainnetLikeConfig()))
	c := newTestNode(t, mem, "c", newChain(t, chain.MainnetLikeConfig()))

	// Line topology a-b-c: the block must be relayed through b.
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	if err := b.server.Connect(c.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "line topology wired", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 2 && c.server.PeerCount() == 1
	})

	blk := mineOn(t, a.bc)
	a.server.BroadcastBlock(blk)

	waitFor(t, "block relay to c", func() bool {
		return c.bc.Head().Hash() == blk.Hash()
	})
	if b.bc.Head().Hash() != blk.Hash() {
		t.Error("relay node did not import the block")
	}
}

func TestSyncFromScratch(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "a", newChain(t, chain.MainnetLikeConfig()))
	for i := 0; i < 20; i++ {
		mineOn(t, a.bc)
	}
	b := newTestNode(t, mem, "b", newChain(t, chain.MainnetLikeConfig()))
	if err := b.server.Connect(a.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync to height 20", func() bool {
		return b.bc.Head().Number() == 20
	})
	if b.bc.Head().Hash() != a.bc.Head().Hash() {
		t.Error("synced head differs")
	}
}

// commitCountKV counts the batches written to the store under it: one per
// chain commit.
type commitCountKV struct {
	db.KV
	commits *atomic.Int64
}

func (k commitCountKV) NewBatch() db.Batch { return commitCountBatch{k.KV.NewBatch(), k.commits} }

type commitCountBatch struct {
	db.Batch
	commits *atomic.Int64
}

func (b commitCountBatch) Write() error {
	b.commits.Add(1)
	return b.Batch.Write()
}

// TestSyncCommitsOncePerRange: a node syncing more than one range of blocks
// from a peer lands each MsgBlocks range as one store commit.
func TestSyncCommitsOncePerRange(t *testing.T) {
	const height = maxServedBlocks + 72
	mem := NewMemNet()
	a := newTestNode(t, mem, "a", newChain(t, chain.MainnetLikeConfig()))
	for i := 0; i < height; i++ {
		mineOn(t, a.bc)
	}
	var commits atomic.Int64
	bc, err := chain.NewBlockchainWithDB(chain.MainnetLikeConfig(), testGenesis(), commitCountKV{KV: db.NewMemDB(), commits: &commits})
	if err == nil {
		err = bc.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	commits.Store(0) // genesis
	b := newTestNode(t, mem, "b", bc)
	if err := b.server.Connect(a.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync past one range", func() bool {
		return b.bc.Head().Number() == height
	})
	if b.bc.Head().Hash() != a.bc.Head().Hash() {
		t.Fatal("synced head differs")
	}
	if got, ranges := commits.Load(), int64(height+maxServedBlocks-1)/maxServedBlocks; got != ranges {
		t.Fatalf("%d blocks in %d ranges took %d store commits", height, ranges, got)
	}
}

func TestTxGossip(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "a", newChain(t, chain.MainnetLikeConfig()))
	b := newTestNode(t, mem, "b", newChain(t, chain.MainnetLikeConfig()))
	c := newTestNode(t, mem, "c", newChain(t, chain.MainnetLikeConfig()))
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	if err := b.server.Connect(c.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "line topology wired", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 2 && c.server.PeerCount() == 1
	})

	to := bob
	tx := chain.NewTransaction(0, &to, big.NewInt(5), 21_000, big.NewInt(1), nil).Sign(alice, 0)
	if err := a.backend.AddTransaction(tx); err != nil {
		t.Fatal(err)
	}
	a.server.BroadcastTxs([]*chain.Transaction{tx})
	waitFor(t, "tx relay to c", func() bool {
		return c.backend.KnowsTransaction(tx.Hash())
	})
	// An invalid (unfunded) transaction must not propagate.
	bad := chain.NewTransaction(0, &to, big.NewInt(5), 21_000, big.NewInt(1), nil).Sign(bob, 0)
	a.server.BroadcastTxs([]*chain.Transaction{bad})
	time.Sleep(20 * time.Millisecond)
	if b.backend.KnowsTransaction(bad.Hash()) {
		t.Error("unfunded tx should not enter peer pools")
	}
}

func TestProbeAndCrawlPartition(t *testing.T) {
	mem := NewMemNet()
	eth, etc := buildPartitionedChains(t)

	// 6 ETH nodes, 3 ETC nodes, wired within their own partitions plus
	// stale cross-partition table entries (as real tables had at the
	// fork moment).
	var ethNodes, etcNodes []*testNode
	for i := 0; i < 6; i++ {
		ethNodes = append(ethNodes, newTestNode(t, mem, fmt.Sprintf("eth%d", i), eth))
	}
	for i := 0; i < 3; i++ {
		etcNodes = append(etcNodes, newTestNode(t, mem, fmt.Sprintf("etc%d", i), etc))
	}
	wire := func(nodes []*testNode) {
		for i := 1; i < len(nodes); i++ {
			if err := nodes[i].server.Connect(nodes[0].server.Self()); err != nil {
				t.Fatal(err)
			}
		}
	}
	wire(ethNodes)
	wire(etcNodes)
	// Stale entries: every node's table also lists one node of the other
	// partition.
	for _, n := range ethNodes {
		n.server.Table().Add(etcNodes[0].server.Self())
	}
	for _, n := range etcNodes {
		n.server.Table().Add(ethNodes[0].server.Self())
	}

	// Crawl as an ETC client: only the 3 ETC nodes are reachable.
	probe := &Probe{
		Self: discover.Node{ID: nodeID("crawler"), Addr: "crawler"},
		Status: Status{
			NetworkID:  1,
			TD:         big.NewInt(1),
			Genesis:    etc.Genesis().Hash(),
			HeadNumber: etc.Head().Number(),
			Head:       etc.Head().Hash(),
			ForkID:     etc.ForkID(),
		},
		Dialer: mem,
	}
	seeds := []discover.Node{etcNodes[0].server.Self()}
	res := discover.Crawl(seeds, probe.FindNodeFunc(), 0)
	if len(res.Reachable) != 3 {
		t.Errorf("ETC crawl reached %d nodes, want 3 (got %v)", len(res.Reachable), res.Reachable)
	}
	if len(res.Unreachable) == 0 {
		t.Error("crawl should have discovered unreachable ETH nodes via stale table entries")
	}
}

func TestServeOverTCP(t *testing.T) {
	a := newChainBackendPair(t)
	b := newChainBackendPair(t)

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(Config{
		Self:      discover.Node{ID: nodeID("tcp-a"), Addr: lnA.Addr().String()},
		NetworkID: 1, Backend: a, Dialer: TCPDialer(time.Second),
	})
	go srvA.Serve(lnA)
	defer srvA.Close()

	srvB := NewServer(Config{
		Self:      discover.Node{ID: nodeID("tcp-b"), Addr: "client"},
		NetworkID: 1, Backend: b, Dialer: TCPDialer(time.Second),
	})
	defer srvB.Close()

	if err := srvB.Connect(discover.Node{ID: nodeID("tcp-a"), Addr: lnA.Addr().String()}); err != nil {
		t.Fatalf("TCP connect: %v", err)
	}
	// Connect returns when the dialing side is done; the acceptor may
	// still be registering. Wait for both before a one-shot broadcast.
	waitFor(t, "mutual peering", func() bool {
		return srvA.PeerCount() == 1 && srvB.PeerCount() == 1
	})
	blk, err := a.BC.BuildBlock(miner, a.BC.Head().Header.Time+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BC.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	srvA.BroadcastBlock(blk)
	waitFor(t, "block over TCP", func() bool {
		return b.BC.Head().Hash() == blk.Hash()
	})
}

func newChainBackendPair(t *testing.T) *ChainBackend {
	t.Helper()
	bc, err := chain.NewBlockchain(chain.MainnetLikeConfig(), testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	return NewChainBackend(bc)
}

// TestMaintainPeersKnitsNetwork: nodes that initially know only one
// neighbor discover and dial the rest of the network via the
// maintenance loop.
func TestMaintainPeersKnitsNetwork(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	const n = 6
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = newTestNodeCfg(t, mem, fmt.Sprintf("knit%d", i), newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	}
	// Line topology: i connects to i-1 only.
	for i := 1; i < n; i++ {
		if err := nodes[i].server.Connect(nodes[i-1].server.Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range nodes {
		go tn.server.MaintainPeers(n - 1)
	}
	stepUntil(t, clk, maintainInterval, "network knitting", func() bool {
		for _, tn := range nodes {
			if tn.server.PeerCount() < 3 {
				return false
			}
		}
		return true
	})
}

// TestMaintainPeersEvictsDeadNodes: a table polluted with unreachable
// entries is cleaned by failed dials. Every dial loop tick redials each
// dead node (its backoff, under 1.25 s for three failures, is shorter
// than the tick), and the third consecutive failure evicts it.
func TestMaintainPeersEvictsDeadNodes(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	var dials atomic.Int64
	a := newTestNodeCfg(t, mem, "evict-a", newChain(t, chain.MainnetLikeConfig()), func(c *Config) {
		c.Clock = clk
		c.Dialer = DialerFunc(func(addr string) (net.Conn, error) {
			dials.Add(1)
			return mem.Dial(addr)
		})
	})
	const ghosts = 5
	for i := 0; i < ghosts; i++ {
		a.server.Table().Add(discover.Node{ID: nodeID(fmt.Sprintf("ghost%d", i)), Addr: fmt.Sprintf("ghost%d", i)})
	}
	go a.server.MaintainPeers(4)
	for tick := 1; tick <= dialMaxFails; tick++ {
		if tick == 1 {
			waitFor(t, "dial loop armed", func() bool { return clk.Pending() == 1 })
		}
		clk.Advance(maintainInterval)
		waitFor(t, fmt.Sprintf("tick %d dials", tick), func() bool { return dials.Load() == int64(tick*ghosts) })
		waitFor(t, "dial loop re-armed", func() bool { return clk.Pending() == 1 })
		want := ghosts
		if tick == dialMaxFails {
			want = 0
		}
		if got := a.server.Table().Len(); got != want {
			t.Fatalf("after %d failed dials each, the table holds %d nodes, want %d", tick, got, want)
		}
	}
}

// TestConnectBacksOffDeadNode pins the redial schedule Connect enforces,
// on the score ledger's clock: a failed dial closes a backoff window in
// which Connect refuses with ErrDialBackoff without dialling, the window
// grows with each consecutive failure, and a successful handshake resets
// the history.
func TestConnectBacksOffDeadNode(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	var dials atomic.Int64
	a := newTestNodeCfg(t, mem, "backoff-a", newChain(t, chain.MainnetLikeConfig()), func(c *Config) {
		c.Clock = clk
		c.Dialer = DialerFunc(func(addr string) (net.Conn, error) {
			dials.Add(1)
			return mem.Dial(addr)
		})
	})
	advance := clk.Advance
	base := dialBackoff // the first window is base, jittered by ±25%
	b := discover.Node{ID: nodeID("backoff-b"), Addr: "backoff-b"}

	// connect calls Connect and checks whether it dialled and whether it
	// was refused by the backoff window.
	connect := func(step string, wantDial, wantBackoff bool) error {
		t.Helper()
		before := dials.Load()
		err := a.server.Connect(b)
		if dialled := dials.Load() > before; dialled != wantDial {
			t.Fatalf("%s: dialled = %v, want %v (err %v)", step, dialled, wantDial, err)
		}
		if backoff := errors.Is(err, ErrDialBackoff); backoff != wantBackoff {
			t.Fatalf("%s: err = %v, want ErrDialBackoff = %v", step, err, wantBackoff)
		}
		return err
	}

	connect("first dial of a dead node", true, false)
	connect("redial at once", false, true)
	advance(base * 5 / 4)
	connect("redial after the first window", true, false)
	// Second failure: the window doubled, so the first one's length is
	// not enough — even with the node back up.
	bn := newTestNode(t, mem, "backoff-b", newChain(t, chain.MainnetLikeConfig()))
	advance(base * 5 / 4)
	connect("redial inside the doubled window", false, true)
	advance(base * 5 / 4)
	if err := connect("redial after the doubled window", true, false); err != nil {
		t.Fatalf("connect to the live node: %v", err)
	}

	// The handshake cleared the history: after a disconnect and one more
	// failure, the window is the first one again, not the third.
	for _, p := range a.server.Peers() {
		p.Close()
	}
	waitFor(t, "disconnect", func() bool { return a.server.PeerCount() == 0 })
	bn.server.Close()
	connect("dial after the reset", true, false)
	advance(base * 5 / 4)
	connect("redial after a first-size window", true, false)

	// The doubling stops at maxDialBackoff: a node that keeps failing is
	// still redialled once per cap, however long the outage.
	for i := 0; i < 12; i++ {
		connect("redial inside the capped window", false, true)
		advance(maxDialBackoff)
		connect("redial after the capped window", true, false)
	}
}

// TestKeepalivePingPong: two live servers stay peered through minutes of
// keepalive ticks because pings are answered, and liveness stays fresh.
func TestKeepalivePingPong(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	a := newTestNodeCfg(t, mem, "ka-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	b := newTestNodeCfg(t, mem, "ka-b", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peering", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 1
	})
	go a.server.KeepaliveLoop()
	go b.server.KeepaliveLoop()
	// Each tick, both sides ping and answer the other's ping, so each
	// hears from the other at the tick's own instant.
	fresh := func() bool {
		if clk.Pending() != 4 { // two loops and two idle timers
			return false
		}
		now := clk.Now()
		for _, n := range []*testNode{a, b} {
			if peers := n.server.Peers(); len(peers) != 1 || !peers[0].LastSeen().Equal(now) {
				return false
			}
		}
		return true
	}
	waitFor(t, "keepalive armed", func() bool { return clk.Pending() == 4 })
	for i := 0; i < 4*int(keepaliveTimeout/keepaliveInterval); i++ {
		clk.Advance(keepaliveInterval)
		waitFor(t, fmt.Sprintf("ping-pong of tick %d", i+1), fresh)
	}
}

// TestKeepaliveDropsSilentPeer: a raw connection that completes the
// handshake and reads everything but never sends anything is dropped
// once it has been silent past keepaliveTimeout, and scored for it.
func TestKeepaliveDropsSilentPeer(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	a := newTestNodeCfg(t, mem, "kd-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))

	// Hand-rolled mute peer: handshake, then drain and never answer.
	conn, err := mem.Dial("kd-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, a.bc, "mute", big.NewInt(1), 0)
	go io.Copy(io.Discard, conn)
	waitFor(t, "mute peer registered", func() bool { return a.server.PeerCount() == 1 })

	go a.server.KeepaliveLoop()
	// Each step waits for the loop to finish its tick and park again
	// (beside the peer's idle timer) before the next.
	parked := func() bool { return clk.Pending() == 2 }
	waitFor(t, "keepalive armed", parked)
	for silent := keepaliveInterval; silent <= keepaliveTimeout; silent += keepaliveInterval {
		clk.Advance(keepaliveInterval)
		waitFor(t, "keepalive tick", parked)
		if a.server.PeerCount() != 1 {
			t.Fatalf("peer dropped after %v of silence, before the %v keepalive timeout", silent, keepaliveTimeout)
		}
	}
	clk.Advance(keepaliveInterval)
	waitFor(t, "silent peer eviction", func() bool { return a.server.PeerCount() == 0 })
	if got := a.server.PeerScore(nodeID("mute")); got != penaltyUnansweredPing {
		t.Errorf("mute peer score = %d, want %d", got, penaltyUnansweredPing)
	}
}

// TestHandshakeTimeout: an inbound connection that never sends its
// status is cut when handshakeTimeout passes on the server's clock, and
// the server keeps no timer for it afterwards.
func TestHandshakeTimeout(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	newTestNodeCfg(t, mem, "hs-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))

	conn, err := mem.Dial("hs-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadMsg(conn); err != nil { // the server's status
		t.Fatal(err)
	}
	cut := make(chan error, 1)
	go func() {
		_, err := ReadMsg(conn)
		cut <- err
	}()
	waitFor(t, "handshake timer armed", func() bool { return clk.Pending() == 1 })
	clk.Advance(handshakeTimeout - time.Millisecond)
	select {
	case err := <-cut:
		t.Fatalf("silent handshake cut (%v) before the %v timeout", err, handshakeTimeout)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	select {
	case err := <-cut:
		if err == nil {
			t.Fatal("the server sent a message to a peer that never handshook")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent handshake never cut")
	}
	if clk.Pending() != 0 {
		t.Errorf("%d timers pending after the cut handshake", clk.Pending())
	}
}

// TestLivePartition is the paper's event end to end at the network layer:
// four nodes peer up BEFORE the fork (all fork ids compatible), share the
// pre-fork chain via gossip, and then — the moment each side mines its
// fork block — the network physically splits: nodes feeding the other
// side's fork block are dropped, and each partition converges on its own
// head.
func TestLivePartition(t *testing.T) {
	mem := NewMemNet()
	const forkBlock = 3
	gen := testGenesis()

	mkChain := func(eth bool) *chain.Blockchain {
		var cfg *chain.Config
		if eth {
			cfg = chain.ETHConfig(forkBlock, nil, types.Address{})
		} else {
			cfg = chain.ETCConfig(forkBlock)
		}
		bc, err := chain.NewBlockchain(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	nodes := []*testNode{
		newTestNode(t, mem, "lp-eth0", mkChain(true)),
		newTestNode(t, mem, "lp-eth1", mkChain(true)),
		newTestNode(t, mem, "lp-etc0", mkChain(false)),
		newTestNode(t, mem, "lp-etc1", mkChain(false)),
	}
	// Full mesh pre-fork: everyone is compatible with everyone.
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if err := nodes[i].server.Connect(nodes[j].server.Self()); err != nil {
				t.Fatalf("pre-fork connect %d-%d: %v", i, j, err)
			}
		}
	}
	waitFor(t, "full pre-fork mesh", func() bool {
		for _, n := range nodes {
			if n.server.PeerCount() != 3 {
				return false
			}
		}
		return true
	})

	// Shared era: eth0 mines blocks 1 and 2; gossip carries them to all.
	for i := 0; i < 2; i++ {
		blk := mineOn(t, nodes[0].bc, blkTx(t, nodes[0].bc, i))
		nodes[0].server.BroadcastBlock(blk)
		waitFor(t, "pre-fork block propagation", func() bool {
			for _, n := range nodes {
				if n.bc.Head().Hash() != blk.Hash() {
					return false
				}
			}
			return true
		})
	}

	// The fork: each side mines its own block 3 and announces. Gossiping
	// the incompatible block gets the sender dropped on the other side.
	ethFork := mineOn(t, nodes[0].bc)
	nodes[0].server.BroadcastBlock(ethFork)
	nodes[0].server.AnnounceHead()
	etcFork := mineOn(t, nodes[2].bc)
	nodes[2].server.BroadcastBlock(etcFork)
	nodes[2].server.AnnounceHead()

	waitFor(t, "network partition", func() bool {
		// Each node ends up peered only within its own side.
		for i, n := range nodes {
			for _, p := range n.server.Peers() {
				sameSide := (i < 2) == (p.Node().Addr == "lp-eth0" || p.Node().Addr == "lp-eth1")
				if !sameSide {
					return false
				}
			}
		}
		// And the partitions converge on their own heads.
		return nodes[1].bc.Head().Hash() == ethFork.Hash() &&
			nodes[3].bc.Head().Hash() == etcFork.Hash()
	})

	// The split is permanent: reconnecting across the partition fails.
	if err := nodes[0].server.Connect(nodes[2].server.Self()); !errors.Is(err, ErrForkMismatch) {
		t.Errorf("cross-partition reconnect: err = %v", err)
	}
}

// countingConn counts Write calls reaching the wrapped conn.
type countingConn struct {
	net.Conn
	writes int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	atomic.AddInt64(&c.writes, 1)
	return c.Conn.Write(p)
}

// TestNoSendAfterClose hammers Peer.send concurrently with Close and
// verifies that a peer dropped mid-broadcast never gets another frame
// written to its (closed) connection. Run with -race: this is exactly the
// dropPeer/relayBlock interleaving the write loop must tolerate.
func TestNoSendAfterClose(t *testing.T) {
	local, remote := net.Pipe()
	go io.Copy(io.Discard, remote)
	cc := &countingConn{Conn: local}
	status := &Status{
		Node: discover.Node{ID: nodeID("count"), Addr: "count"},
		TD:   big.NewInt(1),
	}
	p := newPeer(cc, status, clock.NewFake(), nil)

	var stop int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				p.send(pingFrame)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	p.Close()
	waitFor(t, "send refused after close", func() bool {
		return !p.send(pingFrame)
	})
	// Let any in-flight write loop iteration settle, then verify the write
	// count no longer moves while sends keep hammering.
	time.Sleep(20 * time.Millisecond)
	before := atomic.LoadInt64(&cc.writes)
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		if p.send(pingFrame) {
			t.Fatal("send succeeded on closed peer")
		}
	}
	atomic.StoreInt32(&stop, 1)
	wg.Wait()
	if after := atomic.LoadInt64(&cc.writes); after != before {
		t.Errorf("conn written after close: %d -> %d writes", before, after)
	}
	remote.Close()
}

// TestSendQueueShedsOldest: a peer that stops reading causes queue
// overflow; send stays non-blocking and sheds frames instead of wedging
// the caller.
func TestSendQueueShedsOldest(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	status := &Status{
		Node: discover.Node{ID: nodeID("shed"), Addr: "shed"},
		TD:   big.NewInt(1),
	}
	// A clock that never moves and nobody reading remote: the write loop
	// blocks on its first frame forever, so everything else piles into
	// the queue.
	p := newPeer(local, status, clock.NewFake(), nil)
	defer p.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Overfill the queue well past capacity; every call must return
		// promptly (shedding), never block.
		for i := 0; i < sendQueueLen*3; i++ {
			p.send(pingFrame)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("send blocked on a saturated queue")
	}
	if p.QueueDrops() == 0 {
		t.Error("overflow did not shed any frames")
	}
}

// TestConcurrentDropRelayServe drives dropPeer, block/tx relay, head
// announces and redials against the same server concurrently. It asserts
// nothing beyond "no deadlock, no panic" — under -race it is the detector
// for the peer-map and write-loop interleavings.
func TestConcurrentDropRelayServe(t *testing.T) {
	mem := NewMemNet()
	// The redialer steps the clock past any backoff window before each
	// round, so failed handshakes never pause the churn.
	clk := clock.NewFake()
	a := newTestNodeCfg(t, mem, "ccr-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	b := newTestNodeCfg(t, mem, "ccr-b", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	c := newTestNodeCfg(t, mem, "ccr-c", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	if err := a.server.Connect(c.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial peering", func() bool { return a.server.PeerCount() == 2 })

	blk := mineOn(t, a.bc)
	tx := blkTx(t, a.bc, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					body()
				}
			}
		}()
	}
	loop(func() { // broadcaster
		a.server.BroadcastBlock(blk)
		a.server.BroadcastTxs([]*chain.Transaction{tx})
		a.server.AnnounceHead()
	})
	loop(func() { // dropper
		for _, p := range a.server.Peers() {
			a.server.dropPeer(p)
		}
	})
	loop(func() { // redialer
		clk.Advance(maxDialBackoff)
		_ = a.server.Connect(b.server.Self())
		_ = a.server.Connect(c.server.Self())
	})
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The server must still be functional after the churn.
	waitFor(t, "re-peering after churn", func() bool {
		clk.Advance(maxDialBackoff)
		_ = a.server.Connect(b.server.Self())
		return a.server.PeerCount() >= 1
	})
}

// blkTx returns a small funded transfer for block bodies.
func blkTx(t testing.TB, bc *chain.Blockchain, nonce int) *chain.Transaction {
	t.Helper()
	to := bob
	return chain.NewTransaction(uint64(nonce), &to, big.NewInt(1), 21_000, big.NewInt(1), nil).Sign(alice, 0)
}

// TestGossipCarriesUncles: a block with an uncle survives the wire.
func TestGossipCarriesUncles(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "unc-a", newChain(t, chain.MainnetLikeConfig()))
	b := newTestNode(t, mem, "unc-b", newChain(t, chain.MainnetLikeConfig()))
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peering", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 1
	})

	// Build a sibling at height 1 on A, then a block 2 including it.
	genesis := a.bc.Genesis()
	main1, err := a.bc.BuildBlock(miner, genesis.Header.Time+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.bc.InsertBlock(main1); err != nil {
		t.Fatal(err)
	}
	a.server.BroadcastBlock(main1)
	sibling, err := a.bc.BuildBlock(alice, genesis.Header.Time+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the sibling on the genesis parent: BuildBlock builds on
	// head (main1), so construct from genesis state directly.
	st, err := a.bc.StateAt(genesis.Hash())
	if err != nil {
		t.Fatal(err)
	}
	st.AddBalance(alice, a.bc.Config().BlockReward)
	root, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	sibling = &chain.Block{Header: &chain.Header{
		ParentHash:  genesis.Hash(),
		Number:      1,
		Time:        genesis.Header.Time + 20,
		Difficulty:  chain.CalcDifficulty(a.bc.Config(), genesis.Header.Time+20, genesis.Header),
		GasLimit:    a.bc.Config().GasLimit,
		Coinbase:    alice,
		StateRoot:   root,
		TxRoot:      chain.TxRoot(nil),
		ReceiptRoot: chain.ReceiptRoot(nil),
		UncleHash:   chain.EmptyUncleHash,
	}}
	if err := a.bc.InsertBlock(sibling); err != nil {
		t.Fatal(err)
	}
	a.server.BroadcastBlock(sibling)

	uncles := a.bc.CollectUncles(a.bc.Head().Hash())
	if len(uncles) != 1 {
		t.Fatalf("CollectUncles = %d", len(uncles))
	}
	b2, err := a.bc.BuildBlockWithUncles(miner, a.bc.Head().Header.Time+14, nil, uncles)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.bc.InsertBlock(b2); err != nil {
		t.Fatal(err)
	}
	a.server.BroadcastBlock(b2)
	waitFor(t, "uncle block propagation", func() bool {
		return b.bc.Head().Hash() == b2.Hash()
	})
	got, _ := b.bc.GetBlock(b2.Hash())
	if len(got.Uncles) != 1 || got.Uncles[0].Hash() != sibling.Hash() {
		t.Error("uncle lost or corrupted in gossip")
	}
}
