// Package serve boots the JSON-RPC archive over a simulated partition
// set: it runs a full-fidelity scenario to materialise every chain, then
// mounts them all on one rpc.Server — the single-process stand-in for
// the paper's paired full nodes. cmd/forkserve and cmd/forkload's
// self-serve mode share this path. With the disk storage backend the
// archive is restartable: Open remounts chains persisted by an earlier
// Build without re-simulating, and OpenOrBuild picks automatically.
package serve

import (
	"errors"
	"fmt"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/export"
	"forkwatch/internal/live"
	"forkwatch/internal/prng"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
)

// ServedChain is one mounted partition: its name and the live ledger
// behind its route.
type ServedChain struct {
	Name   string
	Ledger *sim.FullLedger
}

// Result is a booted archive: the server (caller owns Close) and the
// live chains behind it, in partition order.
type Result struct {
	Server *rpc.Server
	Chains []ServedChain
	Engine *sim.Engine
	// Live is the measurement plane behind the fork_live* methods and
	// the /<route>/stream transport (every boot path attaches one; it
	// feeds from the engine, an archive replay, or — on the replica
	// tier — the follow loops).
	Live *live.Plane
	// stores are the stacks behind Chains when no engine owns them (Open,
	// replicas).
	stores []*sim.ChainStore
}

// Ledger returns the named chain's ledger, or nil.
func (r *Result) Ledger(name string) *sim.FullLedger {
	for _, c := range r.Chains {
		if c.Name == name {
			return c.Ledger
		}
	}
	return nil
}

// Close shuts the archive down gracefully: drain the RPC server (stop
// accepting, finish in-flight), stop the worker pool, then close every
// chain's store so the disk backend releases its segments — the shutdown
// path never dies mid-commit. The error is the first store that failed to
// close: the WAL already made it crash-consistent, so that costs recovery
// time on reopen, not data.
func (r *Result) Close() error {
	r.Server.Drain()
	if r.Live != nil {
		// Wake streams waiting on a feed that will never publish again.
		r.Live.Feed.Close()
	}
	r.Server.Close()
	var err error
	if r.Engine != nil {
		err = r.Engine.Close()
	}
	if cerr := sim.CloseStores(r.stores); err == nil {
		err = cerr
	}
	return err
}

// mount builds a server over every chain, cross-linking all ordered
// backend pairs for the fork_* joins, and routes each at its lowercase
// name.
func mount(cfg rpc.ServerConfig, chains []ServedChain) (*rpc.Server, []*rpc.Backend) {
	backends := make([]*rpc.Backend, len(chains))
	for i, c := range chains {
		backends[i] = rpc.NewBackend(c.Name, c.Ledger.BC)
	}
	for i, b := range backends {
		for j, p := range backends {
			if i != j {
				b.AddPeer(p)
			}
		}
	}
	return rpc.NewServer(cfg, backends...), backends
}

// newPlane builds the live measurement plane on the server's registry
// and attaches it to every route. All routes share one plane: the feed
// carries every partition's events (newHeads filters per route), and
// the snapshot covers the whole partition set, like the batch analyzer.
func newPlane(srv *rpc.Server, backends []*rpc.Backend, epoch uint64) *live.Plane {
	plane := live.NewPlane(epoch, srv.Registry())
	src := &rpc.LiveSource{
		Feed:     plane.Feed,
		Snapshot: func() any { return plane.Analyzer.Snapshot() },
	}
	for _, b := range backends {
		b.SetLive(src)
	}
	return plane
}

// Build runs sc (which must be ModeFull — the archive needs real blocks
// and tries) and mounts every resulting chain on a new server built from
// cfg. The returned server routes each partition at its lowercase name,
// all cross-linked as peers for the fork_* joins. The live plane is
// attached and already complete: Build serves after the run finishes.
func Build(sc *sim.Scenario, cfg rpc.ServerConfig) (*Result, error) {
	res, run, err := BuildLive(sc, cfg)
	if err != nil {
		return nil, err
	}
	if err := run(); err != nil {
		res.Close()
		return nil, err
	}
	return res, nil
}

// BuildLive mounts sc's chains at genesis and returns the archive plus
// a run function that executes the simulation with the live measurement
// plane attached as an engine observer. Callers serve WHILE run()
// simulates — subscribers watch the partition unfold in real time —
// and run() publishes the feed's EOF marker when the scenario ends.
// (Concurrent serving is safe: the Blockchain's locks already carry the
// replica tier's concurrent read-under-import load.)
//
// A disk data directory that already holds a chain is refused: building
// into it would write the whole chain a second time. OpenOrBuild reopens
// such a directory instead.
func BuildLive(sc *sim.Scenario, cfg rpc.ServerConfig) (*Result, func() error, error) {
	if sc.Mode != sim.ModeFull {
		return nil, nil, fmt.Errorf("serve: scenario mode must be full (the archive serves real chains)")
	}
	if sc.Storage.Backend == db.BackendDisk {
		if err := refusePersistedChains(sc); err != nil {
			return nil, nil, err
		}
	}
	eng, err := sim.New(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: building engine: %w", err)
	}
	names := eng.PartitionNames()
	chains := make([]ServedChain, len(names))
	for i, name := range names {
		led, ok := eng.LedgerAt(i).(*sim.FullLedger)
		if !ok {
			return nil, nil, fmt.Errorf("serve: %s ledger is %T, want *sim.FullLedger", name, eng.LedgerAt(i))
		}
		chains[i] = ServedChain{Name: name, Ledger: led}
	}
	srv, backends := mount(cfg, chains)
	plane := newPlane(srv, backends, sc.Epoch)
	eng.AddObserver(plane)
	res := &Result{Server: srv, Chains: chains, Engine: eng, Live: plane}
	run := func() error {
		if err := eng.Run(); err != nil {
			return fmt.Errorf("serve: running scenario: %w", err)
		}
		plane.Complete()
		return nil
	}
	return res, run, nil
}

// refusePersistedChains fails if any partition's disk store under
// sc.Storage.DataDir holds a chain (the head marker chain.Open looks for).
func refusePersistedChains(sc *sim.Scenario) error {
	for i, sp := range sc.PartitionSpecs() {
		st, err := sim.OpenChainStore(sc, i, sp.Name, false)
		if err != nil {
			return err
		}
		_, held, err := chain.NewStore(st.KV()).Head()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("serve: probing %s store: %w", sp.Name, err)
		}
		if held {
			return fmt.Errorf("serve: %s already holds the %s chain; building would write it a second time (OpenOrBuild reopens a persisted archive)", sim.ChainDataDir(sc.Storage.DataDir, sp.Name), sp.Name)
		}
	}
	return nil
}

// openLedgers opens every partition's serving store under sc.Storage —
// bare, or the fault stack when sc.StorageFaults is set — and the ledger
// over it: the chain the store holds (chain.Open — WAL redo, no
// re-simulation) or, when genesis is given and the store holds none, a
// fresh chain at that genesis. Fault injection is on once genesis is
// durable: from the open of a store that holds a chain, right after
// writing a fresh one's genesis. A failure closes every store opened so far
// (nothing was written through them), so the caller can reuse the
// directory in this process.
func openLedgers(sc *sim.Scenario, genesis *chain.Genesis) ([]ServedChain, []*sim.ChainStore, error) {
	cfgs := sim.PartitionChainConfigs(sc)
	specs := sc.PartitionSpecs()
	chains := make([]ServedChain, len(specs))
	stores := make([]*sim.ChainStore, len(specs))
	for i, sp := range specs {
		st, err := sim.OpenChainStore(sc, i, sp.Name, false)
		if err != nil {
			sim.CloseStores(stores)
			return nil, nil, err
		}
		stores[i] = st
		st.EnableFaults(true) // a chain the store holds has its genesis durable
		led, err := sim.OpenFullLedger(cfgs[i], sc, sp.Name, st.KV())
		if genesis != nil && errors.Is(err, chain.ErrNoChain) {
			st.EnableFaults(false) // writing genesis has no recovery path
			led, err = sim.NewFullLedgerWithDB(cfgs[i], genesis, prng.New(sc.Seed, "seal", sp.Name), st.KV())
			st.EnableFaults(true)
		}
		if err != nil {
			sim.CloseStores(stores)
			return nil, nil, fmt.Errorf("serve: opening %s chain: %w", sp.Name, err)
		}
		chains[i] = ServedChain{Name: sp.Name, Ledger: led}
	}
	return chains, stores, nil
}

// Open remounts an archive that an earlier Build persisted through the
// disk backend: every chain is reopened from sc.Storage.DataDir (each
// chain lives in its own subdirectory) via chain.Open — WAL redo, no
// re-simulation — and served exactly as Build would serve them. The
// scenario must use the disk backend and full mode; it is otherwise only
// consulted for the chain configs, the data directory and its storage
// fault plan, so the restart serves whatever the directory durably holds,
// through the faults the plan injects. Nothing is mined, so a crash
// schedule is refused. Result.Engine is nil: no simulation ran.
//
// A directory holding no chain fails with chain.ErrNoChain (wrapped);
// OpenOrBuild uses that to fall back to a fresh Build. A chain the
// replay refuses (export.ReplayChains: a block before the epoch or out
// of delivery order) fails the open too.
func Open(sc *sim.Scenario, cfg rpc.ServerConfig) (*Result, error) {
	if sc.Mode != sim.ModeFull {
		return nil, fmt.Errorf("serve: scenario mode must be full (the archive serves real chains)")
	}
	if sc.Storage.Backend != db.BackendDisk {
		return nil, fmt.Errorf("serve: reopening an archive requires the %q storage backend, not %q", db.BackendDisk, sc.Storage.Backend)
	}
	if len(sc.Crashes) > 0 {
		return nil, fmt.Errorf("serve: reopening an archive mines no blocks, so it cannot apply a crash schedule")
	}
	chains, stores, err := openLedgers(sc, nil)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(chains))
	bcs := make([]*chain.Blockchain, len(chains))
	for i, c := range chains {
		names[i], bcs[i] = c.Name, c.Ledger.BC
	}
	srv, backends := mount(cfg, chains)
	plane := newPlane(srv, backends, sc.Epoch)
	// Rebuild the live observables by replaying the persisted chains in
	// the engine's delivery order (per day, then partition, then number).
	// Day-table economics are not persisted in the chain stores, so a
	// reopened archive's plane has no day rows or hashes-per-USD —
	// blocks, windows, echoes and pool shares are all restored as the
	// run derived them. The run ended before the restart, so the feed
	// completes immediately: followers replay the ring and see EOF.
	if err := export.ReplayChains(names, bcs, sc.Epoch, sc.DayLength, plane); err != nil {
		srv.Close()
		sim.CloseStores(stores)
		return nil, err
	}
	plane.Complete()
	return &Result{Server: srv, Chains: chains, Live: plane, stores: stores}, nil
}

// OpenOrBuild reopens a persisted archive when the scenario's disk data
// directory already holds one, and otherwise builds it by running the
// simulation (which, on the disk backend, persists it for the next
// restart). Non-disk scenarios, and scenarios with a crash schedule
// (only mining applies one), always build.
func OpenOrBuild(sc *sim.Scenario, cfg rpc.ServerConfig) (*Result, error) {
	if sc.Storage.Backend != db.BackendDisk || len(sc.Crashes) > 0 {
		return Build(sc, cfg)
	}
	res, err := Open(sc, cfg)
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, chain.ErrNoChain) {
		return nil, err
	}
	return Build(sc, cfg)
}
