package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/export"
	"forkwatch/internal/faultnet"
	"forkwatch/internal/live"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
)

// liveThreeWay is the three-partition convergence scenario: enough
// cross-partition traffic for echoes, in-memory storage so the test is
// all about the wire, and a caller-chosen engine parallelism.
func liveThreeWay(par int) *sim.Scenario {
	sc := sim.NewScenario(7, 2)
	sc.Mode = sim.ModeFull
	sc.DayLength = 3600
	sc.Users = 30
	sc.Parallelism = par
	sc.Partitions = []sim.PartitionSpec{
		{Name: "ONE", ChainID: 1, DAOSupport: true, Price0: 10, RallyShare: 1,
			PrimaryFraction: 0.5, TxPerDay: 30, EIP155Day: -1, Pools: 20, PoolAlpha: 1, PoolCap: 0.24},
		{Name: "TWO", ChainID: 2, ShareAtFork: 0.2, Price0: 5, RallyShare: 1,
			PrimaryFraction: 0.3, TxPerDay: 12, EIP155Day: -1, Pools: 15, PoolAlpha: 1.2, PoolCap: 0.24},
		{Name: "TRI", ChainID: 3, ShareAtFork: 0.1, Price0: 2, RallyShare: 1,
			PrimaryFraction: 0.1, TxPerDay: 8, EIP155Day: -1, Pools: 10, PoolAlpha: 1.3, PoolCap: 0.3},
	}
	return sc
}

// batchTables runs the batch exporter over a Recorder's capture — the
// ground truth every streaming follower must reproduce byte for byte.
func batchTables(t *testing.T, rec *export.Recorder) (blocks, txs, days []byte) {
	t.Helper()
	var b, x, d bytes.Buffer
	if err := export.WriteBlocks(&b, rec.Blocks); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteTxs(&x, rec.Txs); err != nil {
		t.Fatal(err)
	}
	if err := export.WriteDays(&d, rec.Days); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), x.Bytes(), d.Bytes()
}

// follower is the consuming end of a transport: the streaming analyzer
// and, fed the same decoded events, the batch exporter's recorder. wire
// keeps what arrived, for comparing transports.
type follower struct {
	an   *live.Analyzer
	rec  export.Recorder
	wire []feed.Event
}

func newFollower(epoch uint64) *follower {
	return &follower{an: live.NewAnalyzer(epoch, live.Options{})}
}

func (f *follower) apply(ev feed.Event) error {
	f.wire = append(f.wire, ev)
	return f.an.Apply(ev, &f.rec)
}

// pollFollower replays the archive's event feed through the stateless
// fork_liveEvents read into a local follower until the run's EOF
// marker. Transport errors are retried from the same cursor — the call
// is idempotent, which is the whole point of the stateless read — so it
// converges even over a lossy wire.
func pollFollower(client *http.Client, url string, fo *follower, deadline time.Time) error {
	cursor := uint64(0)
	id := 0
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower deadline exceeded at cursor %d", cursor)
		}
		id++
		body := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"fork_liveEvents","params":["events",%d,4096]}`, id, cursor)
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var envelope struct {
			Result rpc.LivePage `json:"result"`
			Error  *rpc.Error   `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			// Truncated by injected loss; the cursor did not move.
			continue
		}
		if envelope.Error != nil {
			return fmt.Errorf("fork_liveEvents: %v", envelope.Error)
		}
		if envelope.Result.Gap {
			return fmt.Errorf("cursor %d fell off the replay ring", cursor)
		}
		for _, ev := range envelope.Result.Events {
			if err := fo.apply(ev); err != nil {
				return err
			}
			if ev.Kind == feed.KindEOF {
				return nil
			}
		}
		cursor = envelope.Result.Cursor
		if len(envelope.Result.Events) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// streamFollower consumes the persistent NDJSON transport at
// GET /<route>/stream into a local follower until EOF.
func streamFollower(routeURL string, fo *follower) error {
	resp, err := http.Get(routeURL + "/stream?stream=events&cursor=0")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var note struct {
			Method string `json:"method"`
			Params struct {
				Event *feed.Event `json:"event"`
				Gap   bool        `json:"gap"`
			} `json:"params"`
		}
		if err := json.Unmarshal(sc.Bytes(), &note); err != nil {
			return fmt.Errorf("stream line %q: %w", sc.Bytes(), err)
		}
		if note.Method != "fork_subscription" {
			continue // header line
		}
		if note.Params.Gap {
			return fmt.Errorf("stream reported a replay gap")
		}
		if note.Params.Event == nil {
			continue
		}
		if err := fo.apply(*note.Params.Event); err != nil {
			return err
		}
		if note.Params.Event.Kind == feed.KindEOF {
			return nil
		}
	}
	return fmt.Errorf("stream ended before EOF: %v", sc.Err())
}

// checkConverged asserts a follower's three CSV tables are
// byte-identical to the batch export.
func checkConverged(t *testing.T, name string, fo *follower, wb, wx, wd []byte) {
	t.Helper()
	gb, gx, gd := batchTables(t, &fo.rec)
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: blocks diverge (%d vs %d bytes)", name, len(gb), len(wb))
	}
	if !bytes.Equal(gx, wx) {
		t.Errorf("%s: txs diverge (%d vs %d bytes)", name, len(gx), len(wx))
	}
	if !bytes.Equal(gd, wd) {
		t.Errorf("%s: days diverge (%d vs %d bytes)", name, len(gd), len(wd))
	}
	if !fo.an.Snapshot().Complete {
		t.Errorf("%s: analyzer missed EOF", name)
	}
}

// TestLiveConvergenceOverRPC is the measurement-plane acceptance test:
// the archive serves WHILE the engine simulates, one follower replays
// the feed through stateless polls and another through the persistent
// NDJSON stream, and both must end byte-identical to the batch CSV
// export — at engine parallelism 1 and N.
func TestLiveConvergenceOverRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity live run")
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			sc := liveThreeWay(par)
			res, run, err := BuildLive(sc, rpc.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(res.Server)
			defer ts.Close()
			defer res.Close() // drains streams before ts.Close waits on them
			rec := &export.Recorder{}
			res.Engine.AddObserver(rec)

			polled := newFollower(sc.Epoch)
			streamed := newFollower(sc.Epoch)
			deadline := time.Now().Add(60 * time.Second)
			client := &http.Client{Timeout: 5 * time.Second}
			errs := make(chan error, 2)
			go func() { errs <- pollFollower(client, ts.URL+"/one", polled, deadline) }()
			go func() { errs <- streamFollower(ts.URL+"/tri", streamed) }()

			if err := run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("follower: %v", err)
				}
			}

			if len(rec.Blocks) == 0 || len(rec.Days) == 0 {
				t.Fatal("recorder captured nothing")
			}
			wb, wx, wd := batchTables(t, rec)
			checkConverged(t, "poll", polled, wb, wx, wd)
			checkConverged(t, "stream", streamed, wb, wx, wd)

			// The server-side snapshot agrees on shape and completion.
			raw := post(t, res.Server, "/one", `{"jsonrpc":"2.0","id":1,"method":"fork_liveSnapshot","params":[]}`)
			var snap struct {
				Result struct {
					Complete bool `json:"complete"`
					Chains   []struct {
						Chain string `json:"chain"`
					} `json:"chains"`
				} `json:"result"`
			}
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatalf("snapshot: %v: %s", err, raw)
			}
			if len(snap.Result.Chains) != 3 || !snap.Result.Complete {
				t.Errorf("snapshot: chains=%d complete=%v", len(snap.Result.Chains), snap.Result.Complete)
			}
		})
	}
}

// TestLiveTransportsAgree reads one finished BuildLive run from cursor 0
// to EOF through both transports and requires the identical event
// sequence — same sequence numbers, same payloads, and all of the feed.
// The server-side subscription methods that used to be a third way in
// answer method-not-found.
func TestLiveTransportsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity live run")
	}
	sc := liveThreeWay(2)
	res, run, err := BuildLive(sc, rpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(res.Server)
	defer ts.Close()
	defer res.Close()
	if err := run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	polled, streamed := newFollower(sc.Epoch), newFollower(sc.Epoch)
	if err := pollFollower(http.DefaultClient, ts.URL+"/two", polled, time.Now().Add(60*time.Second)); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if err := streamFollower(ts.URL+"/two", streamed); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n := res.Live.Feed.Seq(); uint64(len(polled.wire)) != n || polled.wire[n-1].Kind != feed.KindEOF {
		t.Fatalf("polled %d events of a %d-event feed", len(polled.wire), n)
	}
	for i, ev := range polled.wire {
		if ev.Seq != uint64(i) {
			t.Fatalf("polled event %d has seq %d", i, ev.Seq)
		}
	}
	got, _ := json.Marshal(streamed.wire)
	want, _ := json.Marshal(polled.wire)
	if !bytes.Equal(got, want) {
		t.Errorf("stream delivered %d events (%d bytes), poll %d events (%d bytes)", len(streamed.wire), len(got), len(polled.wire), len(want))
	}

	for method, params := range map[string]string{
		"fork_subscribe":        `["events",0]`,
		"fork_unsubscribe":      `["0x1"]`,
		"fork_pollSubscription": `["0x1",4096]`,
	} {
		raw := post(t, res.Server, "/two", fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":%q,"params":%s}`, method, params))
		var envelope struct {
			Error *rpc.Error `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error == nil || envelope.Error.Code != rpc.ErrCodeMethodNotFound {
			t.Errorf("%s: want error %d, got %s", method, rpc.ErrCodeMethodNotFound, raw)
		}
	}
}

// tcpDialer lets faultnet wrap real TCP connections.
type tcpDialer struct{}

func (tcpDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestChaosLiveSubscriptionLoss reruns the poll-follower convergence
// with 20% frame loss injected on the subscription path (every response
// the archive writes). Dropped responses surface as client timeouts or
// truncated bodies; the stateless cursor makes each retry safe, so the
// follower must still converge byte-identically.
func TestChaosLiveSubscriptionLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity live run under injected loss")
	}
	sc := liveThreeWay(2)
	res, run, err := BuildLive(sc, rpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fnet := faultnet.New(tcpDialer{}, faultnet.Faults{Seed: 99, DropRate: 0.20})
	ts := httptest.NewUnstartedServer(res.Server)
	ts.Listener = fnet.Endpoint("archive").WrapListener(ts.Listener)
	ts.Start()
	defer ts.Close()
	defer res.Close()
	rec := &export.Recorder{}
	res.Engine.AddObserver(rec)

	remote := newFollower(sc.Epoch)
	deadline := time.Now().Add(90 * time.Second)
	// Short timeout + no keep-alive: a dropped response costs one quick
	// retry on a fresh connection instead of a wedged stream.
	client := &http.Client{
		Timeout:   time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	errs := make(chan error, 1)
	go func() { errs <- pollFollower(client, ts.URL+"/two", remote, deadline) }()

	if err := run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("follower under loss: %v", err)
	}

	wb, wx, wd := batchTables(t, rec)
	checkConverged(t, "lossy poll", remote, wb, wx, wd)
	if fnet.Stats().Dropped == 0 {
		t.Error("fault injection never fired — the test proved nothing")
	}
}
