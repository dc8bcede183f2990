package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"forkwatch/internal/clock"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/faultnet"
	"forkwatch/internal/metrics"
	"forkwatch/internal/p2p"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
)

// replicaScenario is smallScenario on the in-memory backend: the replica
// chaos run rebuilds stores from the wire, so persistence is not the
// property under test and mem keeps the -race run fast.
func replicaScenario() *sim.Scenario {
	sc := sim.NewScenario(7, 1)
	sc.Mode = sim.ModeFull
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 12
	return sc
}

// swappableHandler lets a "process" restart behind a stable URL: the
// failover client keeps its endpoint while the replica behind it is
// crashed and replaced.
type swappableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappableHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// faultyReplica is sc with a storage fault plan for one replica's
// stores: rare read errors under the derived retry budget, and stalls.
func faultyReplica(sc *sim.Scenario, seed int64) *sim.Scenario {
	own := *sc
	own.StorageFaults = faultfile.Faults{
		Seed:        seed,
		ReadErrRate: 0.01,
		StallEvery:  4000,
		Stall:       5 * time.Millisecond,
	}
	return &own
}

// waitReplicaCaughtUp steps clk by step, pausing a millisecond of wall
// time per step, until every chain of r matches the primary's heads
// exactly; it fails the test once the clock has moved by within. A step
// small against the wire's timeouts makes a host slowed by -race spend
// more wall time per step, not fire spurious timeouts.
func waitReplicaCaughtUp(t *testing.T, what string, r *Replica, primary *Result, clk *clock.Fake, step, within time.Duration) {
	t.Helper()
	for moved := time.Duration(0); moved < within; moved += step {
		caught := true
		for _, pc := range primary.Chains {
			rl := r.Ledger(pc.Name)
			if rl == nil || rl.BC.Head().Hash() != pc.Ledger.BC.Head().Hash() {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		clk.Advance(step)
		time.Sleep(time.Millisecond)
	}
	for _, pc := range primary.Chains {
		if rl := r.Ledger(pc.Name); rl != nil {
			t.Logf("%s: %s at %d, primary at %d", what, pc.Name,
				rl.BC.Head().Number(), pc.Ledger.BC.Head().Number())
		}
	}
	t.Fatalf("%s: replica did not catch up with the primary within %v on the fake clock", what, within)
}

// chaosReplicaStats is the artifact the chaos run writes for CI
// ($CHAOS_REPLICA_OUT).
type chaosReplicaStats struct {
	Requests     int               `json:"requests"`
	Successes    int               `json:"successes"`
	SuccessRate  float64           `json:"success_rate"`
	WrongAnswers int               `json:"wrong_answers"`
	Failovers    uint64            `json:"failovers"`
	Hedged       uint64            `json:"hedged"`
	ByClass      map[string]uint64 `json:"by_class"`
	// The fork_liveEvents follower riding along (see feedFollower).
	FollowerEvents     uint64 `json:"follower_events"`
	FollowerGaps       int    `json:"follower_gaps"`
	FollowerDuplicates int    `json:"follower_duplicates"`
	FollowerMissed     int    `json:"follower_missed"`
}

// feedFollower reads the "events" stream with fork_liveEvents through a
// failover client, owning the cursor the way forkanalyze -follow does. On
// that stream every event matches, so the seqs it is handed must be
// exactly 0, 1, 2, ... whichever endpoint answered each read.
type feedFollower struct {
	client     *rpc.FailoverClient
	cursor     uint64 // also the next seq expected
	gaps       int    // pages flagged gap
	duplicates int    // events with a seq already seen
	missed     int    // seqs skipped over
}

// read fetches one page of at most max events and reports how many came.
// A failed read is simply repeated from the same cursor by the next call.
func (f *feedFollower) read(max int) int {
	var page rpc.LivePage
	if _, err := f.client.Call(&page, "fork_liveEvents", "events", f.cursor, max); err != nil {
		return 0
	}
	if page.Gap {
		f.gaps++
	}
	next := f.cursor
	for _, ev := range page.Events {
		switch {
		case ev.Seq < next:
			f.duplicates++
		case ev.Seq > next:
			f.missed += int(ev.Seq - next)
		}
		next = ev.Seq + 1
	}
	f.cursor = page.Cursor
	return len(page.Events)
}

// TestChaosReplicaServingPlane is the replica-tier acceptance test: a
// primary and two replicas syncing over a 20%-loss faultnet transport
// with injected storage faults and every production timeout, the
// client's preferred replica crashed and restarted mid-run, a failover
// client hammering the pair throughout. The wire, the follow loops and
// the client's health poll share one fake clock that the test steps
// between requests, so the crash always reaches a request before any
// health poll can see it. Every successful response must be
// byte-identical to the primary's answer for the same request —
// degraded or not, the tier never returns a wrong result — and the
// success rate must clear the floor. A follower pages the replicas' live feed through a second
// two-endpoint client across the same crash and restart and must be
// handed every seq exactly once, in order, with no gap.
func TestChaosReplicaServingPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build plus chaos convergence")
	}
	sc := replicaScenario()
	primary, err := Build(sc, rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer primary.Close()

	// The wire: MemNet under faultnet — 20% frame loss plus jitter on
	// every p2p connection in both directions.
	mem := p2p.NewMemNet()
	clk := clock.NewFake()
	fnet := faultnet.New(mem, faultnet.Faults{
		Seed:     42,
		Latency:  time.Millisecond,
		Jitter:   5 * time.Millisecond,
		DropRate: 0.20,
		Clock:    clk,
	})
	base := Transport{Listen: mem.Listen, Dialer: mem, Clock: clk}
	primaryAddrs := make([]string, len(primary.Chains))
	for i, c := range primary.Chains {
		primaryAddrs[i] = "primary-" + c.Name
	}
	psrv, err := ServePrimary(primary, PrimaryConfig{
		Addrs:     primaryAddrs,
		Transport: FaultyTransport(base, fnet, "primary"),
	})
	if err != nil {
		t.Fatalf("ServePrimary: %v", err)
	}
	defer psrv.Close()

	// shared survives replica1's crash/restart: both of its incarnations
	// and the failover client count into it, so the /debug/metrics
	// assertions below see the whole run.
	shared := metrics.NewRegistry()
	mkReplica := func(name string, faultSeed int64, reg *metrics.Registry) *Replica {
		r, err := NewReplica(faultyReplica(sc, faultSeed), ReplicaConfig{
			Name:           name,
			PrimaryAddrs:   primaryAddrs,
			Transport:      FaultyTransport(base, fnet, name),
			StalenessBound: 4,
		}, rpc.ServerConfig{Registry: reg})
		if err != nil {
			t.Fatalf("NewReplica(%s): %v", name, err)
		}
		return r
	}

	r1 := mkReplica("replica1", 100, shared)
	defer func() { r1.Close() }()
	r2 := mkReplica("replica2", 200, nil)
	defer r2.Close()

	// Storage faults are on from the first synced block; the wire faults
	// are always on.
	waitReplicaCaughtUp(t, "initial sync r1", r1, primary, clk, 10*time.Millisecond, 10*time.Minute)
	waitReplicaCaughtUp(t, "initial sync r2", r2, primary, clk, 10*time.Millisecond, 10*time.Minute)

	h1 := &swappableHandler{h: r1.Server}
	ts1 := httptest.NewServer(h1)
	defer ts1.Close()
	ts2 := httptest.NewServer(r2.Server)
	defer ts2.Close()

	fc, err := rpc.NewFailoverClient(rpc.FailoverConfig{
		Endpoints:      []string{ts1.URL + "/eth", ts2.URL + "/eth"},
		HTTPClient:     &http.Client{Timeout: 3 * time.Second},
		HealthInterval: 25 * time.Millisecond,
		Registry:       shared,
		Clock:          clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// The follower's own client over the same pair, no hedge: a cursor
	// read is idempotent, so failing over is all it needs. One small page
	// per request of the main loop spreads its reads over the whole run.
	followerClient, err := rpc.NewFailoverClient(rpc.FailoverConfig{
		Endpoints:  []string{ts1.URL + "/eth", ts2.URL + "/eth"},
		HTTPClient: &http.Client{Timeout: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer followerClient.Close()
	follower := &feedFollower{client: followerClient}
	var atCrash, atRestart uint64 // the follower's cursor at those moments

	// The request mix: read-path methods with concrete params at explicit
	// heights, so the primary's answer for the identical body is the
	// ground truth a correct replica must reproduce byte for byte.
	ethHead := primary.Ledger("ETH").BC.Head().Number()
	rng := rand.New(rand.NewSource(7))
	nextBody := func(id int) string {
		h := 1 + rng.Uint64()%ethHead
		switch id % 3 {
		case 0:
			return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"eth_getBlockByNumber","params":["0x%x", true]}`, id, h)
		case 1:
			return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"fork_difficultyWindow","params":["0x1", "0x%x"]}`, id, h)
		default:
			return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"fork_poolShares","params":["0x1", "0x%x"]}`, id, h)
		}
	}
	type tagged struct {
		Result    json.RawMessage `json:"result"`
		Error     *rpc.Error      `json:"error"`
		Staleness *uint64         `json:"staleness"`
	}

	const total = 400
	successes, wrong := 0, 0
	for i := 0; i < total; i++ {
		// Time passes between requests only: the health poll runs here,
		// inside Advance, and the restarted replica resyncs.
		clk.Advance(10 * time.Millisecond)
		switch i {
		case total / 4:
			// Crash the client's preferred replica mid-run: its server
			// drains, its stores close; the endpoint answers 503 until the
			// restart below, so the client must fail over to replica2.
			r1.Close()
			atCrash = follower.cursor
		case total / 2:
			// Restart it under the same name: fresh mem stores, full resync
			// from the primary over the same faulty wire, same registry.
			r1 = mkReplica("replica1", 101, shared)
			h1.set(r1.Server)
			atRestart = follower.cursor
		}
		follower.read(1)
		body := nextBody(i)
		raw, out := fc.Do([]byte(body))
		if out.Class != rpc.ClassOK && out.Class != rpc.ClassDegraded {
			continue // shed/unavailable: allowed, counted against the floor
		}
		successes++
		var got tagged
		if err := json.Unmarshal(raw, &got); err != nil || got.Error != nil || len(got.Result) == 0 {
			wrong++
			t.Errorf("request %d: success class %q with unusable body %s", i, out.Class, raw)
			continue
		}
		want := post(t, primary.Server, "/eth", body)
		var wantResp tagged
		if err := json.Unmarshal(want, &wantResp); err != nil || wantResp.Error != nil {
			t.Fatalf("request %d: primary refused the ground-truth request: %s", i, want)
		}
		if string(got.Result) != string(wantResp.Result) {
			wrong++
			t.Errorf("request %d (%s): replica result diverges from primary\n got: %s\nwant: %s",
				i, body, got.Result, wantResp.Result)
		}
		if (out.Class == rpc.ClassDegraded) != (got.Staleness != nil) {
			t.Errorf("request %d: class %q but staleness tag present=%v", i, out.Class, got.Staleness != nil)
		}
	}

	stats := fc.Stats()
	rate := float64(successes) / float64(total)
	t.Logf("chaos replica run: %d/%d ok (%.1f%%), %d wrong, failovers=%d hedged=%d byClass=%v",
		successes, total, 100*rate, wrong, stats.Failovers, stats.Hedged, stats.ByClass)
	if wrong != 0 {
		t.Fatalf("%d wrong answers; the tier must never return one", wrong)
	}
	if rate < 0.90 {
		t.Fatalf("success rate %.2f below the 0.90 floor", rate)
	}
	if stats.Failovers == 0 {
		t.Error("the crash window produced no failovers; the client never switched endpoints")
	}

	// The restarted replica reconverges to the primary's exact heads.
	waitReplicaCaughtUp(t, "resync after restart", r1, primary, clk, 10*time.Millisecond, 10*time.Minute)

	// With both replicas converged the follower drains what is left: the
	// feed never publishes an EOF on the replica tier, so an empty page
	// from a caught-up replica is the end.
	for follower.read(4096) > 0 {
	}
	fstats := followerClient.Stats()
	t.Logf("follower: %d events (%d at the crash, %d at the restart), %d gaps, %d duplicates, %d missed, failovers=%d",
		follower.cursor, atCrash, atRestart, follower.gaps, follower.duplicates, follower.missed, fstats.Failovers)
	if follower.gaps != 0 || follower.duplicates != 0 || follower.missed != 0 {
		t.Errorf("follower across the crash/restart: %d gaps, %d duplicate seqs, %d missed seqs; want every seq exactly once, in order",
			follower.gaps, follower.duplicates, follower.missed)
	}
	var blocks uint64
	for _, c := range primary.Chains {
		blocks += c.Ledger.BC.Head().Number()
	}
	if follower.cursor < blocks {
		t.Errorf("follower read %d events, want at least one head per block (%d)", follower.cursor, blocks)
	}
	if atCrash == 0 || atCrash >= atRestart || atRestart >= follower.cursor {
		t.Errorf("follower cursor %d at the crash, %d at the restart, %d at the end; its reads did not span both", atCrash, atRestart, follower.cursor)
	}
	if fstats.Failovers == 0 {
		t.Error("the follower never failed over; the crash window did not reach it")
	}

	// Satellite: the replica metrics surface. The per-replica gauges and
	// the failover counters must all be present in the /debug/metrics
	// snapshot, and the crash window must have moved rpc.failovers.
	snap := shared.Snapshot()
	for _, key := range []string{"sync.lag_blocks", "sync.eth.lag_blocks", "serve.degraded", "rpc.failovers", "rpc.hedged"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics snapshot is missing %q", key)
		}
	}
	if v, ok := snap["rpc.failovers"].(uint64); !ok || v == 0 {
		t.Errorf("rpc.failovers = %v, want the crash window's failovers counted", snap["rpc.failovers"])
	}

	if out := os.Getenv("CHAOS_REPLICA_OUT"); out != "" {
		artifact, _ := json.MarshalIndent(chaosReplicaStats{
			Requests:     total,
			Successes:    successes,
			SuccessRate:  rate,
			WrongAnswers: wrong,
			Failovers:    stats.Failovers,
			Hedged:       stats.Hedged,
			ByClass:      stats.ByClass,

			FollowerEvents:     follower.cursor,
			FollowerGaps:       follower.gaps,
			FollowerDuplicates: follower.duplicates,
			FollowerMissed:     follower.missed,
		}, "", "  ")
		if err := os.WriteFile(out, append(artifact, '\n'), 0o644); err != nil {
			t.Errorf("writing %s: %v", out, err)
		}
	}
}

// TestNewReplicaRejectsScenarioFaults: a replica mines no blocks, so a
// crash schedule — with or without a fault plan beside it — would be
// dropped without a word; NewReplica refuses it.
func TestNewReplicaRejectsScenarioFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*sim.Scenario)
	}{
		{"scheduled crash", func(sc *sim.Scenario) { sc.Crashes = []sim.CrashSpec{{Chain: "ETH", Day: 0, Block: 1, Op: 1}} }},
		{"crash beside a fault plan", func(sc *sim.Scenario) {
			sc.Crashes = []sim.CrashSpec{{Chain: "ETH", Day: 0, Block: 1, Op: 1}}
			sc.StorageFaults = faultfile.Faults{Seed: 1, ReadErrRate: 0.2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := replicaScenario()
			tc.set(sc)
			mem := p2p.NewMemNet()
			r, err := NewReplica(sc, ReplicaConfig{
				PrimaryAddrs: []string{"nowhere-ETH", "nowhere-ETC"},
				Transport:    Transport{Listen: mem.Listen, Dialer: mem},
			}, rpc.ServerConfig{})
			if err == nil {
				r.Close()
				t.Fatal("NewReplica accepted a crash schedule it never applies")
			}
		})
	}
}

// TestNewReplicaAppliesStorageFaults: a replica opens its stores through
// the scenario's fault plan. Genesis lands clean; from then on every read
// of the medium fails, so a state query answers a typed storage error,
// never a balance.
func TestNewReplicaAppliesStorageFaults(t *testing.T) {
	sc := replicaScenario()
	sc.StorageFaults = faultfile.Faults{Seed: 1, ReadErrRate: 1}
	mem := p2p.NewMemNet()
	r, err := NewReplica(sc, ReplicaConfig{
		PrimaryAddrs: []string{"nowhere-ETH", "nowhere-ETC"},
		Transport:    Transport{Listen: mem.Listen, Dialer: mem, Clock: clock.NewFake()},
	}, rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("NewReplica with a storage fault plan: %v", err)
	}
	defer r.Close()
	for addr := range sim.NewWorkload(sc).Genesis().Alloc {
		raw := post(t, r.Server, "/eth", fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":[%q,"0x0"]}`, addr.Hex()))
		var resp struct{ Error *rpc.Error }
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Error == nil || resp.Error.Code != rpc.ErrCodeStorage {
			t.Fatalf("eth_getBalance with every read failing answered %s, want a typed storage error", raw)
		}
		break
	}
}

// TestChaosReplicaDegradedSelfReport: a replica whose primary is
// unreachable must say so — /readyz 503, every response tagged with a
// staleness field, the serve.degraded gauge raised — instead of lying
// with clean answers from a stale (here: genesis-only) head.
func TestChaosReplicaDegradedSelfReport(t *testing.T) {
	sc := replicaScenario()
	mem := p2p.NewMemNet()
	clk := clock.NewFake()
	r, err := NewReplica(sc, ReplicaConfig{
		Name:           "orphan",
		PrimaryAddrs:   []string{"nowhere-ETH", "nowhere-ETC"},
		Transport:      Transport{Listen: mem.Listen, Dialer: mem, Clock: clk},
		StalenessBound: 4,
	}, rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer r.Close()

	// Readiness: degraded on every route, 503 on the wire.
	rd := r.Server.CheckReadiness()
	if rd.Ready {
		t.Fatal("a replica that never saw its primary reported ready")
	}
	for route, h := range rd.Routes {
		if !h.Degraded {
			t.Errorf("route %s not degraded with an unreachable primary", route)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	r.Server.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", rec.Code)
	}

	// Serving: answers still flow (the genesis head is real data) but
	// every one carries the staleness tag.
	raw := post(t, r.Server, "/eth", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
	var resp struct {
		Result    json.RawMessage `json:"result"`
		Staleness *uint64         `json:"staleness"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != `"0x0"` {
		t.Fatalf("orphan replica head = %s, want the genesis height", resp.Result)
	}
	if resp.Staleness == nil {
		t.Fatalf("degraded response carries no staleness tag: %s", raw)
	}

	if v, ok := r.Server.Registry().Snapshot()["serve.degraded"].(float64); !ok || v != 1 {
		t.Errorf("serve.degraded gauge = %v, want 1", v)
	}

	// The reconnect loop is paced by p2p's dial backoff alone instead of
	// hammering the dead address on every tick. Each step waits for both
	// follow loops to finish their tick and park on the clock again.
	const ticks = 40
	for i := 0; i < ticks; i++ {
		waitParked(t, clk, 2)
		clk.Advance(pollInterval)
	}
	waitParked(t, clk, 2)
	dials, _ := r.Server.Registry().Snapshot()["sync.eth.dials"].(uint64)
	if dials == 0 || dials >= ticks/2 {
		t.Errorf("%d dial attempts in %d follow-loop ticks; the reconnect loop is not paced", dials, ticks)
	}
}

// waitParked waits until clk holds exactly n timers: the follow loops
// of an idle replica, each parked until its next tick.
func waitParked(t *testing.T, clk *clock.Fake, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); clk.Pending() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers pending, want %d parked follow loops", clk.Pending(), n)
		}
	}
}

// TestReplicaReconnectsAfterPrimaryOutage: a replica whose primary is
// down keeps redialling on p2p's backoff schedule, however long the
// outage, and catches up soon after the primary comes back. From the
// fifth failure the backoff window (4 s nominal) outlasts a 2 s cooldown,
// and by the eighth it sits at the 30 s cap — the regime in which a
// second pacer stacked on the backoff, its half-open probe refused
// inside the window, never dials again.
func TestReplicaReconnectsAfterPrimaryOutage(t *testing.T) {
	sc := replicaScenario()
	primary, err := Build(sc, rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer primary.Close()

	mem := p2p.NewMemNet()
	clk := clock.NewFake()
	tr := Transport{Listen: mem.Listen, Dialer: mem, Clock: clk}
	addrs := []string{"outage-ETH", "outage-ETC"}
	r, err := NewReplica(sc, ReplicaConfig{
		Name:         "patient",
		PrimaryAddrs: addrs,
		Transport:    tr,
	}, rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer r.Close()

	dials := func() uint64 {
		n, _ := r.Server.Registry().Snapshot()["sync.eth.dials"].(uint64)
		return n
	}
	for outage := time.Duration(0); dials() < 8; outage += pollInterval {
		if outage > 5*time.Minute {
			t.Fatalf("only %d dials of the absent primary in %v", dials(), outage)
		}
		waitParked(t, clk, 2)
		clk.Advance(pollInterval)
	}

	psrv, err := ServePrimary(primary, PrimaryConfig{Addrs: addrs, Transport: tr})
	if err != nil {
		t.Fatalf("ServePrimary: %v", err)
	}
	defer psrv.Close()
	// The next dial comes within one capped backoff window.
	waitReplicaCaughtUp(t, "after the outage", r, primary, clk, 50*time.Millisecond, 2*time.Minute)
}
