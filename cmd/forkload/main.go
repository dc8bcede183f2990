// Command forkload is a closed-loop load generator for the forkwatch
// JSON-RPC archive: N client goroutines issue a mixed read workload
// against both chain endpoints as fast as the server allows, then the
// run's throughput, latency percentiles, per-class failure counts and
// cache hit rate are written as JSON (to stdout, or to -out).
//
// Every request travels through the failover-aware rpc client, so -urls
// can name several replicas of the same serving plane: the generator
// health-checks them, prefers ready ones, hedges slow requests (-hedge)
// and fails over on infrastructure errors — and its report breaks
// failures down by class (timeout, overloaded, read_only, degraded,
// circuit_open, draining, transport, protocol) instead of one lump sum.
//
// The run exits non-zero if any response violated the protocol (non-2.0
// envelope, garbage body) or failed at the transport level: a correct
// serving plane under load sheds typed errors, it never returns junk.
//
// Usage:
//
//	forkload -selfserve -duration 5s -clients 64        # in-process target
//	forkload -url http://127.0.0.1:8545 -duration 10s   # external forkserve
//	forkload -urls http://127.0.0.1:8546,http://127.0.0.1:8547 -hedge 100ms
//	forkload -selfserve -subscribers 16                 # subscription mix
//
// -subscribers adds a live-feed mix on top of the read load: each
// subscriber pages fork_liveEvents from cursor 0 to the feed's EOF
// marker, over and over until the deadline, and the report gains
// sub_events/sub_gaps/sub_errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"forkwatch"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
)

// benchReport is the JSON record of one load run.
type benchReport struct {
	Target       string           `json:"target"`
	Clients      int              `json:"clients"`
	DurationSecs float64          `json:"duration_s"`
	Requests     int64            `json:"requests"`
	Throughput   float64          `json:"throughput_rps"`
	P50Ms        float64          `json:"p50_ms"`
	P90Ms        float64          `json:"p90_ms"`
	P99Ms        float64          `json:"p99_ms"`
	MaxMs        float64          `json:"max_ms"`
	Shed429      int64            `json:"shed_429"`
	RPCErrors    int64            `json:"rpc_errors"`
	Transport    int64            `json:"transport_errors"`
	ByClass      map[string]int64 `json:"by_class"`
	Failovers    uint64           `json:"failovers"`
	Hedged       uint64           `json:"hedged"`
	CacheHitRate float64          `json:"cache_hit_rate"`
	Subscribers  int              `json:"subscribers,omitempty"`
	SubEvents    int64            `json:"sub_events,omitempty"`
	SubGaps      int64            `json:"sub_gaps,omitempty"`
	SubErrors    int64            `json:"sub_errors,omitempty"`
}

// workerStats is one client's tally, merged after the run. Latencies
// cover answered requests (successes and typed errors alike).
type workerStats struct {
	latencies []time.Duration
	byClass   map[string]int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("forkload: ")

	var (
		url       = flag.String("url", "", "base URL of a running forkserve (e.g. http://127.0.0.1:8545)")
		urls      = flag.String("urls", "", "comma-separated base URLs of replicas serving the same chains; the client health-checks and fails over between them (overrides -url)")
		selfserve = flag.Bool("selfserve", false, "boot an in-process archive and load that (ignores -url/-urls)")
		seed      = flag.Int64("seed", 1, "selfserve scenario seed")
		days      = flag.Int("days", 1, "selfserve days to simulate")
		clients   = flag.Int("clients", 64, "concurrent closed-loop clients")
		duration  = flag.Duration("duration", 5*time.Second, "load duration")
		hedge     = flag.Duration("hedge", 0, "hedge a request to the next replica if the first has not answered within this delay (0 = off; needs >1 URL)")
		out       = flag.String("out", "-", "JSON report path (- for stdout)")
		chainsCSV = flag.String("chains", "eth,etc", "comma-separated chain routes to load on an external target (selfserve discovers its own)")
		subs      = flag.Int("subscribers", 0, "subscriber goroutines riding along: each replays the live feed from cursor 0 to EOF with fork_liveEvents, over and over for the whole run")
		substream = flag.String("substream", "events", "stream the subscriber mix follows (events, newHeads, newDays, pendingEchoes)")
	)
	flag.Parse()

	routes := strings.Split(*chainsCSV, ",")
	bases := []string{*url}
	if *urls != "" {
		bases = strings.Split(*urls, ",")
	}
	if *selfserve {
		sc := forkwatch.NewScenario(*seed, *days)
		sc.Mode = sim.ModeFull
		log.Printf("selfserve: simulating %d days...", *days)
		res, err := serve.Build(sc, rpc.ServerConfig{QueueDepth: 8192})
		if err != nil {
			log.Fatal(err)
		}
		defer res.Server.Close()
		ts := httptest.NewServer(res.Server)
		defer ts.Close()
		bases = []string{ts.URL}
		routes = routes[:0]
		headLog := make([]string, 0, len(res.Chains))
		for _, c := range res.Chains {
			routes = append(routes, strings.ToLower(c.Name))
			headLog = append(headLog, fmt.Sprintf("%s head %d", c.Name, c.Ledger.BC.Head().Number()))
		}
		log.Printf("selfserve: %s on %s", strings.Join(headLog, ", "), bases[0])
	}
	if len(bases) == 0 || bases[0] == "" {
		log.Fatal("need -url, -urls or -selfserve")
	}
	for i := range bases {
		bases[i] = strings.TrimRight(bases[i], "/")
	}

	// One pooled transport sized for the fleet: the default transport
	// keeps only 2 idle conns per host and would churn TCP handshakes.
	transport := &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	hc := &http.Client{Timeout: 10 * time.Second, Transport: transport}

	// One failover client per chain route, shared by every worker: a
	// single-URL run degenerates to a classifying client with nowhere to
	// fail over to.
	fcs := map[string]*rpc.FailoverClient{}
	for _, route := range routes {
		eps := make([]string, len(bases))
		for i, b := range bases {
			eps[i] = b + "/" + route
		}
		fc, err := rpc.NewFailoverClient(rpc.FailoverConfig{
			Endpoints:      eps,
			HTTPClient:     hc,
			HedgeDelay:     *hedge,
			HealthInterval: 500 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer fc.Close()
		fcs[route] = fc
	}

	heads, err := headNumbers(fcs, routes)
	if err != nil {
		log.Fatalf("probing endpoints: %v", err)
	}
	log.Printf("loading %s for %s with %d clients", strings.Join(bases, " "), *duration, *clients)

	bodies := workload(heads)
	stats := make([]workerStats, *clients)
	substats := make([]subStats, *subs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(*duration)
	// The subscriber mix: each goroutine replays the live feed from
	// cursor 0 to EOF in a loop through its route's failover client —
	// sustained poll traffic alongside the read load. A cursor is a
	// position in a feed, so -urls must name servers publishing the same
	// one (the same scenario and seed).
	for s := 0; s < *subs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			subscriberLoop(fcs[routes[s%len(routes)]], *substream, deadline, &substats[s])
		}(s)
	}
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.byClass = map[string]int64{}
			for i := 0; time.Now().Before(deadline); i++ {
				req := bodies[(c+i)%len(bodies)]
				fc := fcs[strings.TrimPrefix(req.path, "/")]
				t0 := time.Now()
				_, outc := fc.Do([]byte(req.body))
				lat := time.Since(t0)
				st.byClass[outc.Class]++
				switch outc.Class {
				case rpc.ClassTransport, rpc.ClassTimeout:
					// No well-formed answer arrived; the latency would
					// measure the client's own deadline, not the server.
				default:
					st.latencies = append(st.latencies, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := merge(stats, strings.Join(bases, ","), *clients, elapsed)
	for _, fc := range fcs {
		s := fc.Stats()
		rep.Failovers += s.Failovers
		rep.Hedged += s.Hedged
	}
	rep.CacheHitRate = scrapeHitRate(bases[0])
	rep.Subscribers = *subs
	for i := range substats {
		rep.SubEvents += substats[i].events
		rep.SubGaps += substats[i].gaps
		rep.SubErrors += substats[i].errors
	}
	if *subs > 0 {
		log.Printf("%d subscribers streamed %d events (%d gaps, %d errors)",
			*subs, rep.SubEvents, rep.SubGaps, rep.SubErrors)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	log.Printf("%d requests in %.2fs = %.0f req/s; p50 %.3fms p99 %.3fms; %d shed, %d rpc errors, %d failovers, %d hedged, cache hit %.1f%%",
		rep.Requests, rep.DurationSecs, rep.Throughput, rep.P50Ms, rep.P99Ms,
		rep.Shed429, rep.RPCErrors, rep.Failovers, rep.Hedged, 100*rep.CacheHitRate)
	if n := rep.ByClass[rpc.ClassProtocol]; n > 0 {
		log.Fatalf("%d protocol-violating responses (malformed or non-2.0 envelopes)", n)
	}
	if rep.Transport > 0 {
		log.Fatalf("%d transport errors (hung or refused connections)", rep.Transport)
	}
}

type loadReq struct {
	path string
	body string
}

// subStats is one subscriber goroutine's tally.
type subStats struct {
	events int64
	gaps   int64
	errors int64
}

// subscriberLoop replays the live feed from cursor 0 to the run's EOF
// marker through fork_liveEvents, over and over until the deadline. A
// failed read is retried from the same cursor; an empty page (a feed
// still being published) is followed by a short sleep.
func subscriberLoop(fc *rpc.FailoverClient, stream string, deadline time.Time, st *subStats) {
	var cursor uint64
	for time.Now().Before(deadline) {
		var page rpc.LivePage
		if _, err := fc.Call(&page, "fork_liveEvents", stream, cursor, 4096); err != nil {
			st.errors++
			time.Sleep(100 * time.Millisecond)
			continue
		}
		st.events += int64(len(page.Events))
		if page.Gap {
			st.gaps++
		}
		cursor = page.Cursor
		if n := len(page.Events); n == 0 {
			time.Sleep(50 * time.Millisecond)
		} else if page.Events[n-1].Kind == feed.KindEOF {
			cursor = 0
		}
	}
}

// workload builds the request mix: head polls dominate (the cacheable
// hot path every dashboard hammers), block reads spread over the archive
// behind them, and the fork_* analysis windows ride along bounded to the
// last 256 blocks — the paper's queries are windowed scans, not
// whole-chain dumps per request.
func workload(heads map[string]uint64) []loadReq {
	var reqs []loadReq
	for chain, head := range heads {
		path := "/" + chain
		add := func(times int, body string) {
			for i := 0; i < times; i++ {
				reqs = append(reqs, loadReq{path: path, body: body})
			}
		}
		add(10, `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
		for _, frac := range []uint64{4, 2, 1} {
			n := head * frac / 4
			add(2, fmt.Sprintf(`{"jsonrpc":"2.0","id":2,"method":"eth_getBlockByNumber","params":["0x%x",false]}`, n))
		}
		add(1, fmt.Sprintf(`{"jsonrpc":"2.0","id":3,"method":"eth_getBlockByNumber","params":["0x%x",true]}`, head))
		if head > 0 {
			from := uint64(1)
			if head > 256 {
				from = head - 256
			}
			add(1, fmt.Sprintf(`{"jsonrpc":"2.0","id":4,"method":"fork_poolShares","params":["0x%x","0x%x"]}`, from, head))
			add(1, fmt.Sprintf(`{"jsonrpc":"2.0","id":5,"method":"fork_difficultyWindow","params":["0x%x","0x%x"]}`, from, head))
		}
	}
	return reqs
}

// headNumbers probes each chain endpoint for its head through the
// failover clients, so a run against replicas tolerates one being down.
func headNumbers(fcs map[string]*rpc.FailoverClient, routes []string) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, chain := range routes {
		var hex string
		if _, err := fcs[chain].Call(&hex, "eth_blockNumber"); err != nil {
			return nil, fmt.Errorf("%s: %w", chain, err)
		}
		var head uint64
		if _, err := fmt.Sscanf(hex, "0x%x", &head); err != nil {
			return nil, fmt.Errorf("%s: bad head %q", chain, hex)
		}
		out[chain] = head
	}
	return out, nil
}

func merge(stats []workerStats, target string, clients int, elapsed time.Duration) *benchReport {
	var all []time.Duration
	rep := &benchReport{Target: target, Clients: clients, DurationSecs: elapsed.Seconds(), ByClass: map[string]int64{}}
	for i := range stats {
		all = append(all, stats[i].latencies...)
		for class, n := range stats[i].byClass {
			rep.ByClass[class] += n
			rep.Requests += n
		}
	}
	rep.Shed429 = rep.ByClass[rpc.ClassOverloaded]
	rep.RPCErrors = rep.ByClass[rpc.ClassRPCError]
	rep.Transport = rep.ByClass[rpc.ClassTransport]
	rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / float64(time.Millisecond)
	}
	rep.P50Ms = pct(0.50)
	rep.P90Ms = pct(0.90)
	rep.P99Ms = pct(0.99)
	if len(all) > 0 {
		rep.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	return rep
}

// scrapeHitRate reads /debug/metrics and aggregates the response-cache
// hit/miss counters across every method.
func scrapeHitRate(base string) float64 {
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0
	}
	var hits, misses float64
	for key, raw := range snap {
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(key, ".cache_hits"):
			hits += v
		case strings.HasSuffix(key, ".cache_misses"):
			misses += v
		}
	}
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
