package p2p

// Chaos tests: the hardened p2p layer under the faultnet fault-injecting
// transport. The centerpiece, TestChaosPartitionCensusE1, re-runs the
// paper's E1 node census over 40 nodes with 20% frame loss, 200ms jitter
// and a scripted bisection partition that later heals — the resilience
// layer must still converge every node to its fork's heaviest head and
// the census must still count the partition exactly.

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/discover"
	"forkwatch/internal/faultnet"
	"forkwatch/internal/types"
)

// handshakeAs performs the client half of the status exchange on conn,
// presenting name's identity and the chain summary of bc. Used by
// hand-rolled misbehaving peers.
func handshakeAs(t *testing.T, conn net.Conn, bc *chain.Blockchain, name string, td *big.Int, headNumber uint64) {
	t.Helper()
	status := &Status{
		ProtocolVersion: ProtocolVersion,
		NetworkID:       1,
		TD:              td,
		Genesis:         bc.Genesis().Hash(),
		Head:            bc.Head().Hash(),
		HeadNumber:      headNumber,
		Node:            discover.Node{ID: nodeID(name), Addr: name},
	}
	if _, err := exchangeStatus(conn, status); err != nil {
		t.Fatalf("%s: status exchange: %v", name, err)
	}
}

// TestSlowLorisPeerDropped: a peer that completes the handshake and then
// never reads again stalls its pipe. The per-frame write deadline must cut
// it loose promptly, and broadcasts to healthy peers must never block on
// it (each peer has its own bounded queue and write loop).
func TestSlowLorisPeerDropped(t *testing.T) {
	mem := NewMemNet()
	const writeTimeout = 80 * time.Millisecond
	a := newTestNodeCfg(t, mem, "sl-a", newChain(t, chain.MainnetLikeConfig()), func(c *Config) {
		c.WriteTimeout = writeTimeout
	})
	b := newTestNode(t, mem, "sl-b", newChain(t, chain.MainnetLikeConfig()))
	if err := a.server.Connect(b.server.Self()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "healthy peering", func() bool {
		return a.server.PeerCount() == 1 && b.server.PeerCount() == 1
	})

	// The slow loris: handshake, then total silence — no reads, no writes.
	loris, err := mem.Dial("sl-a")
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	handshakeAs(t, loris, a.bc, "loris", big.NewInt(1), 0)
	waitFor(t, "loris registered", func() bool { return a.server.PeerCount() == 2 })

	blk := mineOn(t, a.bc)
	start := time.Now()
	a.server.BroadcastBlock(blk)
	if d := time.Since(start); d > writeTimeout/2 {
		t.Errorf("BroadcastBlock blocked for %v on a stalled peer", d)
	}
	// The write deadline fires on the stalled pipe and the peer is
	// dropped; generous multiple of the deadline for scheduling slack.
	waitFor(t, "loris dropped", func() bool { return a.server.PeerCount() == 1 })
	if d := time.Since(start); d > 10*writeTimeout {
		t.Errorf("stalled peer dropped after %v; write deadline is %v", d, writeTimeout)
	}
	// The healthy peer was served while the loris stalled.
	waitFor(t, "block at healthy peer", func() bool {
		return b.bc.Head().Hash() == blk.Hash()
	})
	// The write timeout fed the score ledger.
	if got := a.server.PeerScore(nodeID("loris")); got < penaltyWriteTimeout {
		t.Errorf("loris score = %d, want >= %d", got, penaltyWriteTimeout)
	}
}

// TestCorruptPeerBannedThenForgiven: repeated garbage frames cross the ban
// threshold; the banned node is refused on dial and on inbound reconnect
// until the ban window expires.
func TestCorruptPeerBannedThenForgiven(t *testing.T) {
	mem := NewMemNet()
	const banWindow = 300 * time.Millisecond
	a := newTestNodeCfg(t, mem, "cb-a", newChain(t, chain.MainnetLikeConfig()), func(c *Config) {
		c.BanScore = 60
		c.BanWindow = banWindow
	})
	id := nodeID("corrupter")

	conn, err := mem.Dial("cb-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, a.bc, "corrupter", big.NewInt(1), 0)
	waitFor(t, "corrupter registered", func() bool { return a.server.PeerCount() == 1 })

	// Three well-framed garbage payloads at 25 points each cross the
	// 60-point ban line on the third frame.
	garbage := []byte{0, 0, 0, 1, 0xb9}
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(garbage); err != nil {
			break // server may already have dropped us on the final frame
		}
	}
	waitFor(t, "corrupter banned and dropped", func() bool {
		return a.server.Banned(id) && a.server.PeerCount() == 0
	})

	// Outbound: the dial loop (and Connect) refuse banned nodes outright —
	// a banned peer is not redialed during its window.
	if err := a.server.Connect(discover.Node{ID: id, Addr: "corrupter"}); !errors.Is(err, ErrPeerBanned) {
		t.Errorf("dialing banned node: err = %v, want ErrPeerBanned", err)
	}
	// Inbound: a reconnect from the banned identity is cut after the
	// status exchange.
	conn2, err := mem.Dial("cb-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	handshakeAs(t, conn2, a.bc, "corrupter", big.NewInt(1), 0)
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadMsg(conn2); err == nil {
		t.Error("banned inbound reconnect was not closed")
	}
	if a.server.PeerCount() != 0 {
		t.Error("banned peer re-registered")
	}

	// The ban expires with its window; afterwards the node is dialable
	// again (the dial now fails only because nobody listens there).
	waitFor(t, "ban expiry", func() bool { return !a.server.Banned(id) })
	if err := a.server.Connect(discover.Node{ID: id, Addr: "corrupter"}); errors.Is(err, ErrPeerBanned) {
		t.Errorf("node still refused after ban window: %v", err)
	}
}

// TestSyncTimeoutReRequestsAlternatePeer: two fake peers advertise a heavy
// chain but never serve blocks. The sync watchdog must fire, penalize the
// silent peer and re-request the range from the alternate — observable as
// unanswered-sync penalties accumulating on BOTH fakes (the second fake is
// only ever asked via the alternate-peer path).
func TestSyncTimeoutReRequestsAlternatePeer(t *testing.T) {
	mem := NewMemNet()
	b := newTestNodeCfg(t, mem, "st-b", newChain(t, chain.MainnetLikeConfig()), func(c *Config) {
		c.SyncTimeout = 60 * time.Millisecond
		c.BanScore = 100000 // keep both fakes connected throughout
	})

	mkFake := func(name string, td int64) net.Conn {
		conn, err := mem.Dial("st-b")
		if err != nil {
			t.Fatal(err)
		}
		handshakeAs(t, conn, b.bc, name, big.NewInt(td), 30)
		// Drain everything (GetBlocks requests included) and answer none
		// of it.
		go func() {
			for {
				if _, err := ReadMsg(conn); err != nil {
					return
				}
			}
		}()
		return conn
	}
	f1 := mkFake("fake1", 1_000_000)
	defer f1.Close()
	waitFor(t, "fake1 registered", func() bool { return b.server.PeerCount() == 1 })
	f2 := mkFake("fake2", 1_000_001)
	defer f2.Close()
	waitFor(t, "fake2 registered", func() bool { return b.server.PeerCount() == 2 })

	// Each watchdog expiry penalizes the silent peer and re-requests from
	// the best alternate, which then times out too — the penalties must
	// reach both identities.
	waitFor(t, "alternate-peer re-requests", func() bool {
		return b.server.PeerScore(nodeID("fake1")) > 0 && b.server.PeerScore(nodeID("fake2")) > 0
	})
	if b.bc.Head().Number() != 0 {
		t.Error("no blocks should have been imported from silent fakes")
	}
}

// TestChaosPartitionCensusE1 is the acceptance scenario: the 40-node E1
// census (36 ETH / 4 ETC at a DAO-style fork) under seeded 20% frame
// loss, 20ms latency + 200ms jitter, and one scripted partition-and-heal
// bisecting the ETH side. The fault schedule is fully determined by the
// seed (see TestFaultScheduleDeterministic); injected delays are scaled
// down through the Sleep hook without changing the schedule, and every
// assertion below is on converged state, never on wall-clock timing.
func TestChaosPartitionCensusE1(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos census is slow; skipped with -short")
	}
	const (
		nEth      = 36
		nEtc      = 4
		forkBlock = 2
	)
	mem := NewMemNet()
	fnet := faultnet.New(mem, faultnet.Faults{
		Seed:     1729,
		Latency:  20 * time.Millisecond,
		Jitter:   200 * time.Millisecond,
		DropRate: 0.20,
		// Scale injected delays 20x down so the test runs in seconds; the
		// schedule (who is delayed/dropped, and by how much nominal delay)
		// is identical to the unscaled run.
		Sleep: func(d time.Duration) { time.Sleep(d / 20) },
	})
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
	mkNode := func(name string, bc *chain.Blockchain) *testNode {
		t.Helper()
		backend := NewChainBackend(bc)
		ep := fnet.Endpoint(name)
		srv := NewServer(Config{
			Self:      discover.Node{ID: nodeID(name), Addr: name},
			NetworkID: 1,
			// Well above the MaintainPeers target (6): a node pinned at
			// its peer limit refuses probes deterministically, which would
			// undercount the census.
			MaxPeers: 20,
			Backend:  backend,
			Dialer:   ep,
			// Resilience knobs sized for scaled-down chaos: short enough
			// to retry fast under 20% loss, long enough to survive jitter.
			HandshakeTimeout: 500 * time.Millisecond,
			ReadTimeout:      2 * time.Second,
			WriteTimeout:     400 * time.Millisecond,
			SyncTimeout:      200 * time.Millisecond,
			DialBackoff:      25 * time.Millisecond,
			MaxDialBackoff:   250 * time.Millisecond,
			// Chaos penalties (drops, stalls) hit honest peers too: keep
			// the tables intact and the ban line out of reach so the run
			// measures the partition, not collateral damage. Ban mechanics
			// are covered by TestCorruptPeerBannedThenForgiven.
			DialMaxFails: -1,
			DemoteScore:  5000,
			BanScore:     10000,
			BanWindow:    time.Second,
		})
		ln, err := mem.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ep.WrapListener(ln))
		t.Cleanup(srv.Close)
		return &testNode{name: name, server: srv, backend: backend, bc: bc}
	}

	var all, ethNodes, etcNodes []*testNode
	for i := 0; i < nEth; i++ {
		n := mkNode(fmt.Sprintf("ch-eth%02d", i), mkChain(true))
		ethNodes = append(ethNodes, n)
		all = append(all, n)
	}
	for i := 0; i < nEtc; i++ {
		n := mkNode(fmt.Sprintf("ch-etc%d", i), mkChain(false))
		etcNodes = append(etcNodes, n)
		all = append(all, n)
	}
	// Every node starts knowing every other node, as crawled tables did at
	// the fork moment.
	for _, n := range all {
		for _, m := range all {
			if n != m {
				n.server.Table().Add(m.server.Self())
			}
		}
	}
	for _, n := range all {
		go n.server.MaintainPeers(6, 20*time.Millisecond)
		go n.server.KeepaliveLoop(100*time.Millisecond, 1500*time.Millisecond)
	}

	// drive polls cond while nudging propagation with head announces;
	// lost announces are simply re-sent next tick.
	drive := func(what string, budget time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(budget)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			for _, n := range all {
				n.server.AnnounceHead()
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("chaos: timed out waiting for %s", what)
	}
	allAt := func(nodes []*testNode, blk *chain.Block) bool {
		for _, n := range nodes {
			if n.bc.Head().Hash() != blk.Hash() {
				return false
			}
		}
		return true
	}

	// Phase 1: the mesh knits itself under loss.
	drive("initial mesh", 30*time.Second, func() bool {
		for _, n := range all {
			if n.server.PeerCount() < 2 {
				return false
			}
		}
		return true
	})

	// Phase 2: shared pre-fork block 1 reaches all 40 nodes.
	b1 := mineOn(t, ethNodes[0].bc)
	ethNodes[0].server.BroadcastBlock(b1)
	drive("pre-fork block propagation", 30*time.Second, func() bool { return allAt(all, b1) })

	// Phase 3: the fork. Each side mines its own block 2; the network
	// partitions itself along fork ids.
	ethFork := mineOn(t, ethNodes[0].bc)
	ethNodes[0].server.BroadcastBlock(ethFork)
	etcFork := mineOn(t, etcNodes[0].bc)
	etcNodes[0].server.BroadcastBlock(etcFork)
	drive("fork divergence", 30*time.Second, func() bool {
		return allAt(ethNodes, ethFork) && allAt(etcNodes, etcFork)
	})

	// Phase 4: the ETH side extends to height 5; stragglers that missed a
	// gossip frame recover through block-range sync.
	var tip *chain.Block
	for i := 0; i < 3; i++ {
		tip = mineOn(t, ethNodes[0].bc)
		ethNodes[0].server.BroadcastBlock(tip)
	}
	drive("ETH chain at height 5", 30*time.Second, func() bool { return allAt(ethNodes, tip) })

	// Phase 5: scripted bisection of the ETH side. The miner's half keeps
	// producing; the far half must stay frozen at the pre-partition head.
	var sideA, sideB []string
	for i, n := range ethNodes {
		if i < nEth/2 {
			sideA = append(sideA, n.name)
		} else {
			sideB = append(sideB, n.name)
		}
	}
	for _, n := range etcNodes {
		sideA = append(sideA, n.name) // keep the small ETC net whole
	}
	fnet.PartitionSets(sideA, sideB)
	preSplit := tip
	for i := 0; i < 2; i++ {
		tip = mineOn(t, ethNodes[0].bc)
		ethNodes[0].server.BroadcastBlock(tip)
	}
	drive("partition-side convergence", 30*time.Second, func() bool {
		return allAt(ethNodes[:nEth/2], tip)
	})
	for _, n := range ethNodes[nEth/2:] {
		if n.bc.Head().Hash() != preSplit.Hash() {
			t.Fatalf("chaos: %s crossed the scripted partition (head %d)", n.name, n.bc.Head().Number())
		}
	}

	// Phase 6: heal; the far half backfills blocks 6..7 and the whole ETH
	// fork converges on the heaviest head.
	fnet.Heal()
	drive("post-heal convergence", 30*time.Second, func() bool {
		return allAt(ethNodes, tip) && allAt(etcNodes, etcFork)
	})

	// Phase 7: the E1 census. Crawl every node once as an ETC client and
	// once as an ETH client; fork-id handshakes partition the counts.
	census := func(ref *chain.Blockchain, label string) int {
		td, _ := ref.TD(ref.Head().Hash())
		var count int32
		var wg sync.WaitGroup
		for _, tn := range all {
			wg.Add(1)
			go func(tn *testNode) {
				defer wg.Done()
				for attempt := 0; attempt < 24; attempt++ {
					name := fmt.Sprintf("probe-%s-%s-%d", label, tn.name, attempt)
					probe := &Probe{
						Self: discover.Node{ID: nodeID(name), Addr: name},
						Status: Status{
							NetworkID:  1,
							TD:         td,
							Genesis:    ref.Genesis().Hash(),
							Head:       ref.Head().Hash(),
							HeadNumber: ref.Head().Number(),
							ForkID:     ref.ForkID(),
						},
						Dialer:  fnet.Endpoint(name),
						Timeout: 300 * time.Millisecond,
					}
					_, err := probe.Run(tn.server.Self())
					if err == nil {
						atomic.AddInt32(&count, 1)
						return
					}
					if errors.Is(err, ErrForkMismatch) {
						return // deterministic refusal: the other fork
					}
					// Lost frame; retry.
				}
			}(tn)
		}
		wg.Wait()
		return int(count)
	}
	if got := census(etcNodes[0].bc, "etc"); got != nEtc {
		t.Errorf("ETC census reached %d nodes, want %d", got, nEtc)
	}
	if got := census(ethNodes[0].bc, "eth"); got != nEth {
		t.Errorf("ETH census reached %d nodes, want %d", got, nEth)
	}

	// The faults really happened: frames were dropped and the scripted
	// partition refused cross-side dials.
	stats := fnet.Stats()
	if stats.Dropped == 0 {
		t.Error("fault injection dropped no frames")
	}
	if stats.Refusals == 0 {
		t.Error("scripted partition refused no dials")
	}
	t.Logf("chaos stats: %+v", stats)
}
