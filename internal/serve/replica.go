package serve

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/clock"
	"forkwatch/internal/db"
	"forkwatch/internal/discover"
	"forkwatch/internal/faultnet"
	"forkwatch/internal/keccak"
	"forkwatch/internal/p2p"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// This file is the replicated serving plane: a primary process serves
// the archive it simulated (or reopened), and replica processes follow
// its head over the internal/p2p sync protocol — one p2p mesh per chain,
// separated by network id — importing every block into their own db.KV
// store so each replica serves the full RPC surface by itself.
//
// The failure contract:
//
//   - a replica more than StalenessBound blocks behind the last primary
//     head it has seen (or that has never reached its primary) reports
//     degraded on /readyz and tags every RPC response with a `staleness`
//     field instead of silently answering from an old head;
//   - a lost primary is redialled on p2p's per-node dial backoff (250ms
//     doubling to 30s, reset by a successful handshake), and repeated
//     storage failures open the rpc layer's per-route breaker, shedding
//     with typed -32013 errors;
//   - Close drains in-flight RPC work, stops the follow loops and closes
//     the stores (flushing disk segments) — never dying mid-commit.

// Transport is the listen/dial seam the replica tier runs over: real TCP
// on the real clock in production, MemNet (optionally behind faultnet) on
// a fake clock in tests.
type Transport struct {
	// Listen opens the accept side of addr.
	Listen func(addr string) (net.Listener, error)
	// Dialer reaches other nodes' listen addresses.
	Dialer p2p.Dialer
	// Clock times the p2p servers and the follow loop; nil means the
	// real clock.
	Clock clock.Clock
}

// TCPTransport is the production transport.
func TCPTransport(dialTimeout time.Duration) Transport {
	return Transport{
		Listen: func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
		Dialer: p2p.TCPDialer(dialTimeout),
	}
}

// FaultyTransport routes tr through a faultnet.Net: dials go out through
// the node's fault-injecting endpoint, accepted connections inject on
// their outbound half. The Net must have been built over tr.Dialer
// (faultnet.New(tr.Dialer, faults)); self labels this node's side of
// every connection for partition scripting and seed derivation.
func FaultyTransport(tr Transport, n *faultnet.Net, self string) Transport {
	return Transport{
		Listen: func(addr string) (net.Listener, error) {
			ln, err := tr.Listen(addr)
			if err != nil {
				return nil, err
			}
			return n.Endpoint(addr).WrapListener(ln), nil
		},
		Dialer: n.Endpoint(self),
		Clock:  tr.Clock,
	}
}

// networkIDBase separates the per-chain meshes: chain i handshakes with
// network id networkIDBase+i on primary and replica alike. All partitions
// share a genesis, so the network id — not the genesis check — is what
// keeps a replica of one chain from syncing another.
const networkIDBase = 1

// p2pNodeID derives a stable node identity from a transport address, so
// both ends of the tier agree on the primary's identity without an
// out-of-band exchange.
func p2pNodeID(label string) discover.NodeID {
	h := keccak.Sum256([]byte(label))
	return discover.IDFromHash(types.BytesToHash(h[:]))
}

// PrimaryConfig configures ServePrimary.
type PrimaryConfig struct {
	// Addrs is one p2p listen address per served chain, in partition
	// order. Each chain gets its own mesh: replicas of chain i dial
	// Addrs[i].
	Addrs []string
	// Transport provides the listeners and is required.
	Transport Transport
	// Logf receives debug lines.
	Logf func(format string, args ...any)
}

// maxReplicasPerChain bounds the replicas one chain's sync plane accepts.
const maxReplicasPerChain = 16

// Primary is the serving side of the replica tier: one p2p server per
// chain, accepting replica connections and serving their block-range
// pulls from the archive.
type Primary struct {
	servers   []*p2p.Server
	listeners []net.Listener
}

// ServePrimary exposes a built (or reopened) archive's chains for
// replicas to sync from. The Result keeps serving RPC as before; the
// primary only adds the sync plane.
func ServePrimary(res *Result, cfg PrimaryConfig) (*Primary, error) {
	if len(cfg.Addrs) != len(res.Chains) {
		return nil, fmt.Errorf("serve: %d p2p addrs for %d chains", len(cfg.Addrs), len(res.Chains))
	}
	if cfg.Transport.Listen == nil {
		return nil, fmt.Errorf("serve: primary transport has no listener")
	}
	p := &Primary{}
	for i, c := range res.Chains {
		addr := cfg.Addrs[i]
		pcfg := p2p.Config{
			Self:      discover.Node{ID: p2pNodeID(addr), Addr: addr},
			NetworkID: networkIDBase + uint64(i),
			MaxPeers:  maxReplicasPerChain,
			Backend:   p2p.NewChainBackend(c.Ledger.BC),
			Dialer:    cfg.Transport.Dialer,
			Logf:      cfg.Logf,
			Clock:     cfg.Transport.Clock,
		}
		srv := p2p.NewServer(pcfg)
		ln, err := cfg.Transport.Listen(addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("serve: primary listen %s: %w", addr, err)
		}
		p.servers = append(p.servers, srv)
		p.listeners = append(p.listeners, ln)
		go srv.Serve(ln) //nolint:errcheck // exits when the listener closes
	}
	return p, nil
}

// Close stops accepting replicas and tears down the sync plane.
func (p *Primary) Close() {
	for _, srv := range p.servers {
		srv.Close()
	}
	for _, ln := range p.listeners {
		ln.Close()
	}
}

// ReplicaConfig configures NewReplica.
type ReplicaConfig struct {
	// Name uniquely labels this replica on the transport.
	Name string
	// PrimaryAddrs are the primary's per-chain p2p listen addresses, in
	// the scenario's partition order.
	PrimaryAddrs []string
	// Transport provides the dialer and is required.
	Transport Transport
	// StalenessBound is K: lagging more than K blocks behind the best
	// primary head seen flips the route to degraded (default 8).
	StalenessBound uint64
	// DataDir overrides the scenario's disk directory — a replica must
	// never share the primary's store. Required for the disk backend.
	DataDir string
	// Logf receives debug lines.
	Logf func(format string, args ...any)
}

// syncTracker measures one chain's lag behind the primary. The target is
// the highest primary head ever observed, so a replica that loses its
// primary mid-sync still knows it is behind.
type syncTracker struct {
	bc     *chain.Blockchain
	bound  uint64
	seen   atomic.Bool
	target atomic.Uint64
}

func (t *syncTracker) observe(head uint64) {
	t.seen.Store(true)
	for {
		cur := t.target.Load()
		if head <= cur || t.target.CompareAndSwap(cur, head) {
			return
		}
	}
}

// staleness implements rpc.StalenessFunc: a replica that has never seen
// its primary is degraded with unknown (0) lag; one that has is degraded
// when more than bound blocks behind the best head it ever saw.
func (t *syncTracker) staleness() (uint64, bool) {
	if !t.seen.Load() {
		return 0, true
	}
	local := t.bc.Head().Number()
	target := t.target.Load()
	if target <= local {
		return 0, false
	}
	lag := target - local
	return lag, lag > t.bound
}

// Replica is a follower process: its own stores, its own RPC server, its
// head pulled from the primary. Embeds Result, so everything that serves
// a primary serves a replica.
type Replica struct {
	Result
	cfg       ReplicaConfig
	epoch     uint64 // fork unix time (relayed heads derive Day from it)
	dayLen    uint64
	servers   []*p2p.Server
	trackers  []*syncTracker
	relays    []*headRelay
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// headRelay tracks, per chain, which canonical blocks the follow loop
// has already relayed onto the replica's live feed.
type headRelay struct {
	lastPub  uint64 // highest block number published
	lastTime uint64 // its timestamp (for the next block's Delta)
}

// NewReplica builds a replica of sc's chains: fresh (or reopened, when
// DataDir already holds them) stores seeded with the shared genesis, an
// RPC server mounting every chain, and one follow loop per chain that
// connects to the primary, tracks staleness and keeps the sync pulled.
// The scenario is only consulted for the chain configs, genesis and its
// storage fault plan, which the stores apply — the replica never
// simulates, so it refuses a crash schedule; every block arrives over the
// wire.
func NewReplica(sc *sim.Scenario, cfg ReplicaConfig, rcfg rpc.ServerConfig) (*Replica, error) {
	if sc.Mode != sim.ModeFull {
		return nil, fmt.Errorf("serve: scenario mode must be full (replicas serve real chains)")
	}
	if len(sc.Crashes) > 0 {
		return nil, fmt.Errorf("serve: a replica mines no blocks, so it cannot apply a crash schedule")
	}
	if cfg.Transport.Dialer == nil {
		return nil, fmt.Errorf("serve: replica transport has no dialer")
	}
	specs := sc.PartitionSpecs()
	if len(cfg.PrimaryAddrs) != len(specs) {
		return nil, fmt.Errorf("serve: %d primary addrs for %d chains", len(cfg.PrimaryAddrs), len(specs))
	}
	if cfg.StalenessBound == 0 {
		cfg.StalenessBound = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	// The replica's stores live under its own DataDir, never the primary's.
	own := *sc
	if sc.Storage.Backend == db.BackendDisk {
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("serve: a disk-backed replica needs its own DataDir (it must not share the primary's)")
		}
		own.Storage.DataDir = cfg.DataDir
	}
	chains, stores, err := openLedgers(&own, sim.NewWorkload(sc).Genesis())
	if err != nil {
		return nil, err
	}

	srv, backends := mount(rcfg, chains)
	// The replica's own live plane feeds from the follow loops: every
	// newly synced canonical block is relayed as a head event, so
	// subscriptions work on the replica tier too (staleness-stamped by
	// the same source as plain responses when the replica is degraded).
	plane := newPlane(srv, backends, sc.Epoch)
	r := &Replica{
		Result: Result{Server: srv, Chains: chains, Live: plane, stores: stores},
		cfg:    cfg,
		epoch:  sc.Epoch,
		dayLen: sc.DayLength,
		quit:   make(chan struct{}),
	}
	for _, c := range chains {
		// Start relaying AFTER the boot head: a reopened store's history
		// predates this process, and followers wanting it poll the
		// primary's archive instead.
		head := c.Ledger.BC.Head()
		r.relays = append(r.relays, &headRelay{lastPub: head.Number(), lastTime: head.Header.Time})
	}
	reg := r.Server.Registry()
	for i, c := range chains {
		route := strings.ToLower(c.Name)
		tracker := &syncTracker{bc: c.Ledger.BC, bound: cfg.StalenessBound}
		r.trackers = append(r.trackers, tracker)
		backends[i].SetStaleness(tracker.staleness)
		reg.GaugeFunc("sync."+route+".lag_blocks", func() float64 {
			lag, _ := tracker.staleness()
			return float64(lag)
		})

		pcfg := p2p.Config{
			Self:      discover.Node{ID: p2pNodeID(cfg.Name + "/" + route), Addr: cfg.Name},
			NetworkID: networkIDBase + uint64(i),
			MaxPeers:  4,
			Backend:   p2p.NewChainBackend(c.Ledger.BC),
			Dialer:    cfg.Transport.Dialer,
			Logf:      cfg.Logf,
			Clock:     cfg.Transport.Clock,
		}
		r.servers = append(r.servers, p2p.NewServer(pcfg))
	}
	// Aggregate gauges: worst-chain lag and the node's degraded verdict
	// (these override the zero defaults the rpc server pre-registers).
	reg.GaugeFunc("sync.lag_blocks", func() float64 {
		var max uint64
		for _, t := range r.trackers {
			if lag, _ := t.staleness(); lag > max {
				max = lag
			}
		}
		return float64(max)
	})
	reg.GaugeFunc("serve.degraded", func() float64 {
		for _, t := range r.trackers {
			if _, degraded := t.staleness(); degraded {
				return 1
			}
		}
		return 0
	})

	for i := range chains {
		r.wg.Add(1)
		go r.follow(i)
	}
	return r, nil
}

// pollInterval paces the follow loop: reconnect checks, lag accounting
// and sync nudges.
const pollInterval = 500 * time.Millisecond

// follow is one chain's sync loop: keep a connection to the primary,
// record the advertised head for staleness accounting, and nudge the pull
// so a dropped frame never strands the sync. Redials of a lost primary
// are paced by p2p's dial backoff alone: Connect refuses with
// ErrDialBackoff inside the window, and a successful handshake resets it.
func (r *Replica) follow(i int) {
	defer r.wg.Done()
	srv, tracker := r.servers[i], r.trackers[i]
	route := strings.ToLower(r.Chains[i].Name)
	addr := r.cfg.PrimaryAddrs[i]
	primary := discover.Node{ID: p2pNodeID(addr), Addr: addr}
	reg := r.Server.Registry()
	for clock.Wait(clock.Or(r.cfg.Transport.Clock), pollInterval, r.quit) {
		if srv.PeerCount() == 0 {
			err := srv.Connect(primary)
			if errors.Is(err, p2p.ErrDialBackoff) {
				continue // inside the backoff window: nothing dialled
			}
			reg.Counter("sync." + route + ".dials").Inc()
			switch {
			case err == nil:
				reg.Counter("sync." + route + ".reconnects").Inc()
			case !errors.Is(err, p2p.ErrAlreadyConnected):
				r.cfg.Logf("replica[%s/%s]: dial primary: %v", r.cfg.Name, route, err)
				continue
			}
		}
		if head, _, ok := srv.BestPeerHead(); ok {
			tracker.observe(head)
		}
		srv.SyncNow()
		r.relayHeads(i)
	}
}

// relayHeads publishes every canonical block the sync imported since
// the last relay onto the replica's live feed, rebuilding the head
// events exactly as the engine's observer delivery would have built
// them (Day from the fork epoch, Delta from the parent's timestamp,
// the engine's own sim.TxInfoOf for the transactions).
func (r *Replica) relayHeads(i int) {
	relay := r.relays[i]
	bc := r.Chains[i].Ledger.BC
	head := bc.Head().Number()
	if head <= relay.lastPub {
		return
	}
	name := r.Chains[i].Name
	epoch, dayLen := r.epoch, r.dayLen
	for _, b := range bc.CanonicalBlocks(relay.lastPub+1, head) {
		t := b.Header.Time
		day := 0
		if t >= epoch && dayLen > 0 {
			day = int((t - epoch) / dayLen)
		}
		ev := &sim.BlockEvent{
			Chain:      name,
			Day:        day,
			Number:     b.Number(),
			Time:       t,
			Delta:      t - relay.lastTime,
			Difficulty: b.Header.Difficulty,
			Coinbase:   b.Header.Coinbase,
		}
		for _, tx := range b.Txs {
			ev.Txs = append(ev.Txs, sim.TxInfoOf(tx))
		}
		r.Live.OnBlock(ev)
		relay.lastPub = b.Number()
		relay.lastTime = t
	}
}

// Close stops the follow loops, drains the RPC server and closes the
// stores. Safe to call more than once.
func (r *Replica) Close() (err error) {
	r.closeOnce.Do(func() {
		close(r.quit)
		r.wg.Wait()
		for _, srv := range r.servers {
			srv.Close()
		}
		err = r.Result.Close()
	})
	return err
}
