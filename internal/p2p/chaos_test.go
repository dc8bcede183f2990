package p2p

// Chaos tests: the hardened p2p layer under the faultnet fault-injecting
// transport, on a fake clock stepped by the production timeouts. The
// centerpiece, TestChaosPartitionCensusE1, re-runs the paper's E1 node
// census over 40 nodes with 20% frame loss, 200ms jitter and a scripted
// bisection partition that later heals — the resilience layer must still
// converge every node to its fork's heaviest head and the census must
// still count the partition exactly.

import (
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/clock"
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
// never reads again stalls its pipe. The write-stall timer must cut it
// loose exactly writeTimeout after the stalled write began, and
// broadcasts to healthy peers must never block on it (each peer has its
// own bounded queue and write loop).
func TestSlowLorisPeerDropped(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	a := newTestNodeCfg(t, mem, "sl-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	b := newTestNodeCfg(t, mem, "sl-b", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
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
	a.server.BroadcastBlock(blk)
	// The healthy peer is served while the loris stalls.
	waitFor(t, "block at healthy peer", func() bool {
		return b.bc.Head().Hash() == blk.Hash()
	})
	// Three idle timers (a's two peers, b's one) and the stalled write's.
	waitFor(t, "stalled write timed", func() bool { return clk.Pending() == 4 })
	clk.Advance(writeTimeout - time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if a.server.PeerCount() != 2 {
		t.Fatalf("stalled peer dropped before the %v write timeout", writeTimeout)
	}
	clk.Advance(time.Millisecond)
	waitFor(t, "loris dropped", func() bool { return a.server.PeerCount() == 1 })
	// The write timeout fed the score ledger.
	if got := a.server.PeerScore(nodeID("loris")); got != penaltyWriteTimeout {
		t.Errorf("loris score = %d, want %d", got, penaltyWriteTimeout)
	}
}

// TestCorruptPeerBannedThenForgiven: garbage frames at 25 points each
// cross the 100-point ban line on the fourth; the banned node is refused
// on dial and on inbound reconnect until banWindow has passed.
func TestCorruptPeerBannedThenForgiven(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	a := newTestNodeCfg(t, mem, "cb-a", newChain(t, chain.MainnetLikeConfig()), onClock(clk))
	id := nodeID("corrupter")

	conn, err := mem.Dial("cb-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshakeAs(t, conn, a.bc, "corrupter", big.NewInt(1), 0)
	waitFor(t, "corrupter registered", func() bool { return a.server.PeerCount() == 1 })

	garbage := []byte{0, 0, 0, 1, 0xb9}
	for i := 1; i <= banScore/penaltyCorruptFrame; i++ {
		if _, err := conn.Write(garbage); err != nil {
			t.Fatalf("garbage frame %d: %v", i, err)
		}
		if i < banScore/penaltyCorruptFrame {
			waitFor(t, "frame scored", func() bool { return a.server.PeerScore(id) == i*penaltyCorruptFrame })
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
	cut := make(chan error, 1)
	go func() {
		_, err := ReadMsg(conn2)
		cut <- err
	}()
	select {
	case err := <-cut:
		if err == nil {
			t.Error("banned inbound reconnect was served a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("banned inbound reconnect was not closed")
	}
	if a.server.PeerCount() != 0 {
		t.Error("banned peer re-registered")
	}

	// The ban lasts exactly its window; afterwards the node is dialable
	// again (the dial now fails only because nobody listens there).
	clk.Advance(banWindow - time.Second)
	if !a.server.Banned(id) {
		t.Fatalf("ban lifted before its %v window", banWindow)
	}
	clk.Advance(time.Second)
	if a.server.Banned(id) {
		t.Fatalf("ban outlived its %v window", banWindow)
	}
	if err := a.server.Connect(discover.Node{ID: id, Addr: "corrupter"}); errors.Is(err, ErrPeerBanned) {
		t.Errorf("node still refused after ban window: %v", err)
	}
}

// TestSyncTimeoutReRequestsAlternatePeer: two fake peers advertise a heavy
// chain but never serve blocks. Each request's watchdog fires syncTimeout
// later, penalizes the silent peer and re-requests the range from the
// alternate, whose own watchdog then fires in turn. A newer request
// replaces the older watchdog, and Close stops the last one: the server
// leaves no timer on its clock.
func TestSyncTimeoutReRequestsAlternatePeer(t *testing.T) {
	mem := NewMemNet()
	clk := clock.NewFake()
	b := newTestNodeCfg(t, mem, "st-b", newChain(t, chain.MainnetLikeConfig()), onClock(clk))

	var requests [2]atomic.Int64 // GetBlocks received per fake
	mkFake := func(i int, name string, td int64) net.Conn {
		conn, err := mem.Dial("st-b")
		if err != nil {
			t.Fatal(err)
		}
		handshakeAs(t, conn, b.bc, name, big.NewInt(td), 30)
		// Drain everything and answer none of it.
		go func() {
			for {
				msg, err := ReadMsg(conn)
				if err != nil {
					return
				}
				if msg.Code == MsgGetBlocks {
					requests[i].Add(1)
				}
			}
		}()
		return conn
	}
	f1 := mkFake(0, "fake1", 1_000_000)
	defer f1.Close()
	waitFor(t, "fake1 asked", func() bool { return requests[0].Load() == 1 })
	f2 := mkFake(1, "fake2", 1_000_001)
	defer f2.Close()
	waitFor(t, "fake2 asked", func() bool { return requests[1].Load() == 1 })
	// Two idle timers and ONE watchdog: fake2's request replaced fake1's.
	waitFor(t, "one watchdog", func() bool { return clk.Pending() == 3 })

	clk.Advance(syncTimeout - time.Millisecond)
	if b.server.PeerScore(nodeID("fake2")) != 0 {
		t.Fatalf("watchdog fired before %v", syncTimeout)
	}
	clk.Advance(time.Millisecond)
	if s1, s2 := b.server.PeerScore(nodeID("fake1")), b.server.PeerScore(nodeID("fake2")); s1 != 0 || s2 != penaltyUnansweredSync {
		t.Fatalf("after fake2's watchdog: scores %d/%d, want 0/%d", s1, s2, penaltyUnansweredSync)
	}
	waitFor(t, "re-request via fake1", func() bool { return requests[0].Load() == 2 })
	clk.Advance(syncTimeout)
	if s1 := b.server.PeerScore(nodeID("fake1")); s1 != penaltyUnansweredSync {
		t.Fatalf("after fake1's watchdog: score %d, want %d", s1, penaltyUnansweredSync)
	}
	waitFor(t, "re-request via fake2", func() bool { return requests[1].Load() == 2 })
	if b.bc.Head().Number() != 0 {
		t.Error("no blocks should have been imported from silent fakes")
	}

	b.server.Close()
	waitFor(t, "no timer left after Close", func() bool { return clk.Pending() == 0 })
	clk.Advance(syncTimeout)
	if requests[0].Load() != 2 || requests[1].Load() != 2 {
		t.Error("a watchdog re-requested after Close")
	}
}

// TestChaosPartitionCensusE1 is the acceptance scenario: the 40-node E1
// census (36 ETH / 4 ETC at a DAO-style fork) under seeded 20% frame
// loss, 20ms latency + 200ms jitter, and one scripted partition-and-heal
// bisecting the ETH side, with every production timeout. The fault
// schedule is fully determined by the seed (see
// TestFaultScheduleDeterministic); every delay and timeout runs on one
// fake clock that only the test moves, and every assertion is on
// converged state.
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
	clk := clock.NewFake()
	fnet := faultnet.New(mem, faultnet.Faults{
		Seed:     1729,
		Latency:  20 * time.Millisecond,
		Jitter:   200 * time.Millisecond,
		DropRate: 0.20,
		Clock:    clk,
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
			Clock:    clk,
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
		go n.server.MaintainPeers(6)
		go n.server.KeepaliveLoop()
	}

	// drive steps the clock until cond holds, nudging propagation with a
	// head announce every second of fake time; lost announces are simply
	// re-sent.
	const step = 50 * time.Millisecond
	drive := func(what string, cond func() bool) {
		t.Helper()
		steps := 0
		stepUntil(t, clk, step, "chaos: "+what, func() bool {
			if cond() {
				return true
			}
			if steps%int(time.Second/step) == 0 {
				for _, n := range all {
					n.server.AnnounceHead()
				}
			}
			steps++
			return false
		})
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
	drive("initial mesh", func() bool {
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
	drive("pre-fork block propagation", func() bool { return allAt(all, b1) })

	// Phase 3: the fork. Each side mines its own block 2; the network
	// partitions itself along fork ids.
	ethFork := mineOn(t, ethNodes[0].bc)
	ethNodes[0].server.BroadcastBlock(ethFork)
	etcFork := mineOn(t, etcNodes[0].bc)
	etcNodes[0].server.BroadcastBlock(etcFork)
	drive("fork divergence", func() bool {
		return allAt(ethNodes, ethFork) && allAt(etcNodes, etcFork)
	})

	// Phase 4: the ETH side extends to height 5; stragglers that missed a
	// gossip frame recover through block-range sync.
	var tip *chain.Block
	for i := 0; i < 3; i++ {
		tip = mineOn(t, ethNodes[0].bc)
		ethNodes[0].server.BroadcastBlock(tip)
	}
	drive("ETH chain at height 5", func() bool { return allAt(ethNodes, tip) })

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
	drive("partition-side convergence", func() bool {
		return allAt(ethNodes[:nEth/2], tip)
	})
	// Nodes that lost their far-side peers redial; the cut refuses them.
	drive("a dial refused by the partition", func() bool { return fnet.Stats().Refusals > 0 })
	for _, n := range ethNodes[nEth/2:] {
		if n.bc.Head().Hash() != preSplit.Hash() {
			t.Fatalf("chaos: %s crossed the scripted partition (head %d)", n.name, n.bc.Head().Number())
		}
	}

	// Phase 6: heal; the far half backfills blocks 6..7 and the whole ETH
	// fork converges on the heaviest head.
	fnet.Heal()
	drive("post-heal convergence", func() bool {
		return allAt(ethNodes, tip) && allAt(etcNodes, etcFork)
	})

	// Phase 7: the E1 census. Crawl every node once as an ETC client and
	// once as an ETH client; fork-id handshakes partition the counts. The
	// probes wait on the clock, so it keeps stepping while they run, in
	// steps small against the 3 s probe timeout.
	census := func(ref *chain.Blockchain, label string) int {
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				clk.Advance(25 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}()
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
						Dialer: fnet.Endpoint(name),
						Clock:  clk,
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

	// The faults really happened: frames were dropped.
	stats := fnet.Stats()
	if stats.Dropped == 0 {
		t.Error("fault injection dropped no frames")
	}
	t.Logf("chaos stats: %+v", stats)
}

// TestHealReknitsSaturatedHalves pins the heal at production settings.
// Each half of a scripted partition can fill every node's dial target by
// itself, so once the partition has held, no node is below its target
// and the dial-up path alone never crosses the healed cut again. Peer
// rotation must re-knit the halves and converge them on one head.
func TestHealReknitsSaturatedHalves(t *testing.T) {
	const (
		half   = 5
		target = 3
		step   = 250 * time.Millisecond
	)
	mem := NewMemNet()
	clk := clock.NewFake()
	fnet := faultnet.New(mem, faultnet.Faults{Seed: 5, Latency: 20 * time.Millisecond, Clock: clk})
	var nodes []*testNode
	var sideA, sideB []string
	side := map[string]int{}
	for i := 0; i < 2*half; i++ {
		name := fmt.Sprintf("heal%d", i)
		ep := fnet.Endpoint(name)
		bc := newChain(t, chain.MainnetLikeConfig())
		srv := NewServer(Config{
			Self:      discover.Node{ID: nodeID(name), Addr: name},
			NetworkID: 1,
			Backend:   NewChainBackend(bc),
			Dialer:    ep,
			Clock:     clk,
		})
		ln, err := mem.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ep.WrapListener(ln))
		t.Cleanup(srv.Close)
		nodes = append(nodes, &testNode{name: name, server: srv, bc: bc})
		if i < half {
			sideA = append(sideA, name)
		} else {
			sideB = append(sideB, name)
			side[name] = 1
		}
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.server.Table().Add(m.server.Self())
			}
		}
		go n.server.MaintainPeers(target)
		go n.server.KeepaliveLoop()
	}
	// saturated: every node at its target, and no link crosses the cut.
	saturated := func() bool {
		for _, n := range nodes {
			peers := n.server.Peers()
			if len(peers) < target {
				return false
			}
			for _, p := range peers {
				if side[p.Node().Addr] != side[n.name] {
					return false
				}
			}
		}
		return true
	}
	stepUntil(t, clk, step, "initial mesh", func() bool {
		for _, n := range nodes {
			if n.server.PeerCount() < target {
				return false
			}
		}
		return true
	})
	fnet.PartitionSets(sideA, sideB)
	stepUntil(t, clk, step, "each half saturated on its own side", saturated)

	fnet.Heal()
	blk := mineOn(t, nodes[0].bc)
	nodes[0].server.BroadcastBlock(blk)
	stepUntil(t, clk, step, "post-heal convergence", func() bool {
		for _, n := range nodes {
			if n.bc.Head().Hash() != blk.Hash() {
				n.server.AnnounceHead()
				return false
			}
		}
		return true
	})
}

// TestWireSoakConnectPartitionHeal runs a thousand cycles of connect,
// scripted partition and heal between two MemNet nodes behind faultnet on
// one fake clock, stepping the clock a second per cycle. Every cycle must
// connect and sever cleanly, and afterwards the goroutine count and the
// clock's pending timers are back at their baseline: no handshake,
// idle, write-stall or sync timer and no peer loop outlives its
// connection.
func TestWireSoakConnectPartitionHeal(t *testing.T) {
	const cycles = 1000
	mem := NewMemNet()
	clk := clock.NewFake()
	fnet := faultnet.New(mem, faultnet.Faults{Seed: 3, Clock: clk})
	mk := func(name string) *testNode {
		ep := fnet.Endpoint(name)
		bc := newChain(t, chain.MainnetLikeConfig())
		srv := NewServer(Config{
			Self:      discover.Node{ID: nodeID(name), Addr: name},
			NetworkID: 1,
			Backend:   NewChainBackend(bc),
			Dialer:    ep,
			Clock:     clk,
		})
		ln, err := mem.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ep.WrapListener(ln))
		t.Cleanup(srv.Close)
		return &testNode{name: name, server: srv, bc: bc}
	}
	a, b := mk("soak-a"), mk("soak-b")
	mineOn(t, a.bc) // a is ahead, so every handshake also starts a sync

	settled := func(peers int) func() bool {
		return func() bool { return a.server.PeerCount() == peers && b.server.PeerCount() == peers }
	}
	spin := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("soak: timed out waiting for %s", what)
			}
		}
	}
	baseGoroutines, baseTimers := runtime.NumGoroutine(), clk.Pending()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if err := b.server.Connect(a.server.Self()); err != nil {
			t.Fatalf("cycle %d: connect: %v", i, err)
		}
		spin("peering", settled(1))
		fnet.PartitionSets([]string{a.name}, []string{b.name})
		spin("partition", settled(0))
		fnet.Heal()
		clk.Advance(time.Second)
	}
	elapsed := time.Since(start)
	waitFor(t, "goroutines back at baseline", func() bool { return runtime.NumGoroutine() <= baseGoroutines })
	waitFor(t, "timers back at baseline", func() bool { return clk.Pending() == baseTimers })
	if b.bc.Head().Hash() != a.bc.Head().Hash() {
		t.Error("the soak never synced b to a's head")
	}
	t.Logf("%d connect/partition/heal cycles in %v", cycles, elapsed)
}
