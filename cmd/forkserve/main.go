// Command forkserve materialises a partitioned fork scenario — the
// historical two-way split by default, any N-way split via -partitions —
// and serves every chain's archive over JSON-RPC: one process standing in
// for the paper's paired full nodes.
//
// Routes: POST /<lowercase chain name> per partition (JSON-RPC 2.0,
// batches supported), GET /debug/metrics (counters, latency histograms,
// storage stats), GET /debug/pprof/ (live CPU/heap/goroutine profiles),
// GET /healthz, GET /readyz (503 while draining or degraded).
//
// Usage:
//
//	forkserve -seed 1 -days 2 -addr :8545
//	forkserve -days 1 -storage-faults "seed=7,readerr=0.2"  # chaos serving
//	forkserve -days 2 -storage disk -datadir /var/lib/forkwatch
//	forkserve -days 1 -partitions 'ONE:share=0;TWO:share=0.2;TRI:share=0.1'
//	forkserve -days 3 -live -pace 2s          # serve while simulating
//
// Every boot shape attaches the live measurement plane: fork_liveEvents
// (a cursor read of the event feed) and fork_liveSnapshot on each route,
// plus the persistent NDJSON stream at GET /<route>/stream. With -live
// the scenario simulates in the background while the archive serves, so
// followers (forkanalyze -follow) watch the partition unfold and receive
// the feed's EOF when the run completes; -pace slows the run to human
// speed.
//
// With -storage disk the simulated chains persist in -datadir; a later
// run against the same directory reopens the archive (WAL redo, no
// re-simulation) and serves identical responses.
//
// Replica tier: a primary exposes its chains for replication with -p2p
// (one listen address per partition); replicas boot with -follow pointed
// at those addresses, sync every block over the wire into their own
// stores, and serve the same RPC surface — tagging responses with a
// staleness field and failing /readyz whenever they trail the primary by
// more than -staleness-bound blocks:
//
//	forkserve -days 2 -addr :8545 -p2p 127.0.0.1:30301,127.0.0.1:30302
//	forkserve -addr :8546 -follow 127.0.0.1:30301,127.0.0.1:30302 -replica-name r1
//
// SIGINT/SIGTERM drains gracefully: stop accepting, finish in-flight
// requests, flush and close the stores.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"forkwatch"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
)

// dayPacer slows a -live run down to watchable speed: it sleeps after
// every simulated day's events have gone out on the feed. The engine
// delivers a day while it mines the next one and waits for that delivery
// at the next barrier, so a paced chain runs at most one day ahead of its
// feed.
type dayPacer time.Duration

func (p dayPacer) OnBlock(*sim.BlockEvent) {}
func (p dayPacer) OnDay(*sim.DayEvent)     { time.Sleep(time.Duration(p)) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("forkserve: ")

	var (
		seed    = flag.Int64("seed", 1, "scenario seed (equal seeds reproduce the served chains exactly)")
		days    = flag.Int("days", 2, "days to simulate before serving (full-fidelity; keep small)")
		addr    = flag.String("addr", ":8545", "listen address")
		storage = flag.String("storage", "mem", `storage backend: "mem" or "disk"`)
		datadir = flag.String("datadir", "", `directory for -storage disk segment files; reuse it across restarts to serve without re-simulating`)
		faults  = flag.String("storage-faults", "", `storage fault injection kept on while serving, e.g. "seed=42,readerr=0.2"`)
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "queue depth before 429 backpressure (0 = default)")
		rate    = flag.Float64("rate", 0, "per-client requests/second (0 = unlimited)")
		timeout = flag.Duration("timeout", 5*time.Second, "per-request execution deadline")
		par     = flag.Int("parallelism", 0, "simulation: 1 = serial; >= 2 (all alike) = a goroutine per partition plus one delivering observers; 0 = GOMAXPROCS; served chains are identical either way")
		parts   = flag.String("partitions", "", `N-way partition spec "NAME:key=v,...;NAME:key=v,..." (empty = historical two-way split)`)

		liveRun = flag.Bool("live", false, "serve WHILE the scenario simulates: followers on fork_liveEvents or /<route>/stream watch the partition unfold, and the feed publishes EOF when the run ends")
		pace    = flag.Duration("pace", 0, "with -live, sleep this long after each simulated day so followers can watch in something like real time (0 = run flat out)")

		p2pAddrs   = flag.String("p2p", "", "primary mode: comma-separated p2p listen addresses, one per partition in order, for replicas to sync from")
		follow     = flag.String("follow", "", "replica mode: comma-separated primary p2p addresses, one per partition in order; the scenario flags must match the primary's")
		repName    = flag.String("replica-name", "replica", "this replica's name on the sync plane (replica mode)")
		staleBound = flag.Uint64("staleness-bound", 8, "blocks behind the primary head before a replica reports degraded and tags responses (replica mode)")
	)
	flag.Parse()

	sc := forkwatch.NewScenario(*seed, *days)
	sc.Mode = sim.ModeFull
	sc.Parallelism = *par
	if *parts != "" {
		specs, err := forkwatch.ParsePartitionSpecs(*parts)
		if err != nil {
			log.Fatal(err)
		}
		sc.Partitions = specs
	}
	sc.Storage = forkwatch.StorageConfig{Backend: *storage, DataDir: *datadir}
	if *faults != "" {
		f, err := forkwatch.ParseStorageFaults(*faults)
		if err != nil {
			log.Fatal(err)
		}
		sc.StorageFaults = f
		log.Printf("storage faults stay enabled while serving: %v", f)
	}

	srvCfg := rpc.ServerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		RatePerSec:     *rate,
		RequestTimeout: *timeout,
	}

	// Boot one of the three shapes — replica, primary with a sync plane,
	// or standalone archive. res serves; shutdown drains and flushes.
	var (
		res      *serve.Result
		shutdown func() error
	)
	if *follow != "" {
		if *p2pAddrs != "" {
			log.Fatal("-follow and -p2p are mutually exclusive (a node is a primary or a replica)")
		}
		rep, err := serve.NewReplica(sc, serve.ReplicaConfig{
			Name:           *repName,
			PrimaryAddrs:   strings.Split(*follow, ","),
			Transport:      serve.TCPTransport(5 * time.Second),
			StalenessBound: *staleBound,
			DataDir:        *datadir,
			Logf:           log.Printf,
		}, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		res, shutdown = &rep.Result, rep.Close
		log.Printf("replica %q following %s (staleness bound %d blocks)", *repName, *follow, *staleBound)
	} else if *liveRun {
		if *p2pAddrs != "" {
			log.Fatal("-live and -p2p are mutually exclusive (the sync plane serves a finished archive)")
		}
		built, run, err := serve.BuildLive(sc, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		if *pace > 0 {
			built.Engine.AddObserver(dayPacer(*pace))
		}
		res, shutdown = built, built.Close
		go func() {
			start := time.Now()
			if err := run(); err != nil {
				log.Printf("live run failed: %v", err)
				return
			}
			log.Printf("live run complete after %s: feed published EOF, archive now final", time.Since(start).Round(time.Millisecond))
		}()
		log.Printf("simulating %d days live (seed %d); subscribe while it runs", *days, *seed)
	} else {
		if *storage == forkwatch.StorageDisk {
			log.Printf("opening archive from %s (simulating %d days first if empty)...", *datadir, *days)
		} else {
			log.Printf("simulating %d days (seed %d, full fidelity)...", *days, *seed)
		}
		built, err := serve.OpenOrBuild(sc, srvCfg)
		if err != nil {
			log.Fatal(err)
		}
		if built.Engine == nil {
			log.Printf("reopened persisted archive from %s (no re-simulation)", *datadir)
		}
		res, shutdown = built, built.Close
		if *p2pAddrs != "" {
			psrv, err := serve.ServePrimary(built, serve.PrimaryConfig{
				Addrs:     strings.Split(*p2pAddrs, ","),
				Transport: serve.TCPTransport(5 * time.Second),
				Logf:      log.Printf,
			})
			if err != nil {
				log.Fatal(err)
			}
			shutdown = func() error { psrv.Close(); return built.Close() }
			log.Printf("primary sync plane on %s", *p2pAddrs)
		}
	}

	// The RPC server stays the catch-all; the mux only peels off the
	// pprof endpoints (/debug/metrics still falls through to the server).
	mux := http.NewServeMux()
	mux.Handle("/", res.Server)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	heads := make([]string, len(res.Chains))
	routes := make([]string, len(res.Chains))
	for i, c := range res.Chains {
		heads[i] = fmt.Sprintf("%s head %d", c.Name, c.Ledger.BC.Head().Number())
		routes[i] = "/" + strings.ToLower(c.Name)
	}
	log.Print(strings.Join(heads, ", "))
	log.Printf("serving %s /debug/metrics /debug/pprof /healthz /readyz on %s", strings.Join(routes, " "), *addr)

	// Graceful drain: the first SIGINT/SIGTERM stops the listener and
	// waits for in-flight HTTP requests; then the serving plane drains its
	// worker pool and closes the stores so disk segments flush cleanly.
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigC
		log.Printf("%s: draining (in-flight requests finish, stores flush)...", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if err := shutdown(); err != nil {
		log.Fatalf("drained, but closing the stores failed: %v", err)
	}
	log.Print("drained and closed cleanly")
}
