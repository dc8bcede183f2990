// Command forknode runs a real forkwatch node over TCP: it keeps a ledger
// (ETH- or ETC-ruled), speaks the partition-aware wire protocol, gossips
// blocks and transactions, and can mine at an accelerated wall-clock rate.
// In -crawl mode it instead performs the paper's node census: handshake
// with every reachable node, presenting the chosen fork id, and report who
// answered — the measurement behind observation O1.
//
// Examples (three terminals):
//
//	forknode -listen 127.0.0.1:30301 -chain eth -mine
//	forknode -listen 127.0.0.1:30302 -chain eth -connect 127.0.0.1:30301
//	forknode -chain eth -crawl 127.0.0.1:30301
//
// scripts/nodesmoke.sh (make nodesmoke) runs three nodes over loopback TCP
// and checks the sync and the census split.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/big"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/discover"
	"forkwatch/internal/faultnet"
	"forkwatch/internal/keccak"
	"forkwatch/internal/p2p"
	"forkwatch/internal/pow"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	var (
		listen   = flag.String("listen", "", "TCP listen address (host:port); empty = client only")
		connects = flag.String("connect", "", "comma-separated peer addresses to dial")
		chainSel = flag.String("chain", "eth", `consensus rules: "eth", "etc" or "pre" (before the fork)`)
		mine     = flag.Bool("mine", false, "produce blocks at -blockms intervals and gossip them")
		blockMS  = flag.Int("blockms", 1000, "accelerated wall-clock milliseconds per mined block")
		crawl    = flag.String("crawl", "", "census mode: crawl the network from this seed address and exit")
		name     = flag.String("name", "", "node name (defaults to the listen address or a random tag)")
		loadPath = flag.String("load", "", "import a chain snapshot before starting")
		savePath = flag.String("save", "", "export the chain snapshot on shutdown")
		seed     = flag.Int64("seed", time.Now().UnixNano(), "rng seed for mining")
		faultStr = flag.String("faults", "", `fault injection spec, comma-separated key=value: seed=<n>, latency=<dur>, jitter=<dur>, drop=<rate>, corrupt=<rate>, reset=<rate>, bw=<bytes/s>, stall=<frames> (e.g. "seed=7,drop=0.2,jitter=200ms")`)
	)
	flag.Parse()

	bc, err := buildChain(*chainSel)
	if err != nil {
		log.Fatal(err)
	}

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		n, err := bc.ImportChain(f)
		f.Close()
		if err != nil {
			log.Fatalf("import %s: %v (after %d blocks)", *loadPath, err, n)
		}
		log.Printf("imported %d blocks from %s (head %d)", n, *loadPath, bc.Head().Number())
	}

	if *crawl != "" {
		runCrawl(bc, *crawl, *faultStr)
		return
	}

	nodeName := *name
	if nodeName == "" {
		if *listen != "" {
			nodeName = *listen
		} else {
			nodeName = fmt.Sprintf("node-%d", *seed)
		}
	}
	idHash := keccak.Sum256([]byte(nodeName))
	self := discover.Node{ID: discover.IDFromHash(types.BytesToHash(idHash[:])), Addr: *listen}

	backend := p2p.NewChainBackend(bc)
	// Transport stack, innermost first: TCP, then the optional fault layer.
	var dialer p2p.Dialer = p2p.TCPDialer(3 * time.Second)
	var fnet *faultnet.Net
	var fep *faultnet.Endpoint
	if *faultStr != "" {
		faults, err := faultnet.ParseSpec(*faultStr)
		if err != nil {
			log.Fatal(err)
		}
		fnet = faultnet.New(dialer, faults)
		fep = fnet.Endpoint(nodeName)
		dialer = fep
		log.Printf("fault injection active: %s", faults.String())
	}
	srv := p2p.NewServer(p2p.Config{
		Self:      self,
		NetworkID: 1,
		MaxPeers:  25,
		Backend:   backend,
		Dialer:    dialer,
		Logf:      log.Printf,
	})
	defer srv.Close()

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		if fep != nil {
			ln = fep.WrapListener(ln)
		}
		go func() {
			if err := srv.Serve(ln); err != nil && err != p2p.ErrServerClosed {
				log.Printf("serve: %v", err)
			}
		}()
		log.Printf("%s listening on %s (%s rules, fork id %+v)", nodeName, *listen, bc.Config().Name, bc.ForkID())
	}

	for _, addr := range splitNonEmpty(*connects) {
		peerHash := keccak.Sum256([]byte(addr))
		peer := discover.Node{ID: discover.IDFromHash(types.BytesToHash(peerHash[:])), Addr: addr}
		if err := srv.Connect(peer); err != nil {
			log.Printf("connect %s: %v", addr, err)
		} else {
			log.Printf("connected to %s", addr)
		}
	}

	// Background network hygiene: discovery/dial maintenance and
	// liveness keepalive, as real nodes run.
	go srv.MaintainPeers(25)
	go srv.KeepaliveLoop()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// The signal channel has one reader, this loop: on a signal it closes
	// done and waits for the miner, so the snapshot is cut at a fixed head.
	done := make(chan struct{})
	var miner sync.WaitGroup
	if *mine {
		miner.Add(1)
		go func() {
			defer miner.Done()
			mineLoop(bc, srv, rand.New(rand.NewSource(*seed)), time.Duration(*blockMS)*time.Millisecond, done)
		}()
	}

	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			close(done)
			miner.Wait()
			if *savePath != "" {
				if err := saveChain(bc, *savePath); err != nil {
					log.Printf("save: %v", err)
				} else {
					log.Printf("saved chain (head %d) to %s", bc.Head().Number(), *savePath)
				}
			}
			log.Printf("shutting down")
			return
		case <-ticker.C:
			head := bc.Head()
			if fnet != nil {
				st := fnet.Stats()
				log.Printf("height %d, difficulty %v, peers %d, txpool %d | faults: %d frames, %d dropped, %d corrupted, %d resets, %d refusals",
					head.Number(), head.Header.Difficulty, srv.PeerCount(), backend.Pool.Len(),
					st.Frames, st.Dropped, st.Corrupted, st.Resets, st.Refusals)
			} else {
				log.Printf("height %d, difficulty %v, peers %d, txpool %d",
					head.Number(), head.Header.Difficulty, srv.PeerCount(), backend.Pool.Len())
			}
		}
	}
}

// saveChain writes the chain snapshot to path. The file counts as written
// only once Close has succeeded.
func saveChain(bc *chain.Blockchain, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bc.WriteChain(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildChain creates a ledger with the shared demo genesis under the
// selected rule set. All forknode instances derive the same genesis, so
// they can peer and sync.
func buildChain(sel string) (*chain.Blockchain, error) {
	gen := demoGenesis()
	var cfg *chain.Config
	switch sel {
	case "eth":
		cfg = chain.ETHConfig(8, []types.Address{sim.DAOAddress(0)}, sim.DAORefundAddress)
	case "etc":
		cfg = chain.ETCConfig(8)
	case "pre":
		cfg = chain.MainnetLikeConfig()
	default:
		return nil, fmt.Errorf("unknown -chain %q", sel)
	}
	return chain.NewBlockchain(cfg, gen)
}

func demoGenesis() *chain.Genesis {
	alloc := map[types.Address]*big.Int{
		sim.DAOAddress(0): new(big.Int).Mul(big.NewInt(1_000_000), chain.Ether),
	}
	for i := 0; i < 16; i++ {
		alloc[sim.UserAddress(i)] = new(big.Int).Mul(big.NewInt(1000), chain.Ether)
	}
	return &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       1_469_020_840,
		Alloc:      alloc,
	}
}

// mineLoop produces sealed blocks on a wall-clock cadence, advancing the
// ledger's internal clock by one target interval per block, and gossips
// them. It also injects a demo transaction per block so peers see tx
// gossip.
func mineLoop(bc *chain.Blockchain, srv *p2p.Server, r *rand.Rand, every time.Duration, done <-chan struct{}) {
	coinbase := sim.UserAddress(0)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		head := bc.Head()
		sender := sim.UserAddress(int(head.Number())%15 + 1)
		st, err := bc.HeadState()
		if err != nil {
			log.Printf("mine: %v", err)
			continue
		}
		to := sim.UserAddress(0)
		tx := chain.NewTransaction(st.GetNonce(sender), &to, big.NewInt(1), 21_000, big.NewInt(1), nil).
			Sign(sender, 0)
		uncles := bc.CollectUncles(head.Hash())
		blk, err := bc.MineBlock(coinbase, head.Header.Time+bc.Config().TargetBlockTime, []*chain.Transaction{tx}, uncles,
			func(h *chain.Header) { pow.Seal(h, r) })
		if err != nil {
			log.Printf("mine: %v", err)
			continue
		}
		srv.BroadcastBlock(blk)
		srv.AnnounceHead()
		log.Printf("mined block %d (%s) with %d txs, %d uncles", blk.Number(), blk.Hash(), len(blk.Txs), len(blk.Uncles))
	}
}

// runCrawl performs the node census from a seed address, presenting this
// chain's fork id, and prints the reachable/unreachable split. A fault
// spec degrades the crawler's own link, showing how loss undercounts a
// census.
func runCrawl(bc *chain.Blockchain, seedAddr, faultStr string) {
	head := bc.Head()
	td, _ := bc.TD(head.Hash())
	var dialer p2p.Dialer = p2p.TCPDialer(3 * time.Second)
	if faultStr != "" {
		faults, err := faultnet.ParseSpec(faultStr)
		if err != nil {
			log.Fatal(err)
		}
		dialer = faultnet.New(dialer, faults).Endpoint("crawler")
	}
	idHash := keccak.Sum256([]byte("crawler"))
	probe := &p2p.Probe{
		Self: discover.Node{ID: discover.IDFromHash(types.BytesToHash(idHash[:])), Addr: "crawler"},
		Status: p2p.Status{
			NetworkID:  1,
			TD:         td,
			Head:       head.Hash(),
			HeadNumber: head.Number(),
			Genesis:    bc.Genesis().Hash(),
			ForkID:     bc.ForkID(),
		},
		Dialer: dialer,
	}
	seedHash := keccak.Sum256([]byte(seedAddr))
	seeds := []discover.Node{{ID: discover.IDFromHash(types.BytesToHash(seedHash[:])), Addr: seedAddr}}
	res := discover.Crawl(seeds, probe.FindNodeFunc(), 0)
	fmt.Printf("crawl as %s (fork id %+v): %d reachable, %d advertised-but-unreachable, %d queries\n",
		bc.Config().Name, bc.ForkID(), len(res.Reachable), len(res.Unreachable), res.Queries)
	for _, n := range res.Reachable {
		fmt.Printf("  reachable   %s\n", n.Addr)
	}
	for _, n := range res.Unreachable {
		fmt.Printf("  unreachable %s\n", n.Addr)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
