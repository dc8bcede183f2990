package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"

	"forkwatch/internal/analysis"
	"forkwatch/internal/export"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// threePartScenario is a small fast-mode three-partition run with
// enough cross-partition traffic to produce echoes.
func threePartScenario(seed int64, days, parallelism int) *sim.Scenario {
	sc := sim.NewScenario(seed, days)
	sc.DayLength = 3600
	sc.Users = 30
	sc.Parallelism = parallelism
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

// batchCSVs runs the batch exporter over a Recorder's capture.
func batchCSVs(t *testing.T, rec *export.Recorder) (blocks, txs, days []byte) {
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

func diffLine(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(la), len(lb))
}

// TestInProcessConvergence attaches the live analyzer to the engine as
// an observer and asserts its snapshot covers every partition and is the
// same at parallelism 1 and N.
func TestInProcessConvergence(t *testing.T) {
	var serial *Snapshot
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			sc := threePartScenario(11, 3, par)
			eng, err := sim.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			an := NewAnalyzer(sc.Epoch, Options{})
			eng.AddObserver(an)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			snap := an.Snapshot()
			if serial == nil {
				serial = &snap
			} else if !reflect.DeepEqual(snap, *serial) {
				t.Errorf("snapshot diverges from the serial run's:\n serial   %+v\n parallel %+v", *serial, snap)
			}
			if len(snap.Chains) != 3 {
				t.Fatalf("snapshot chains = %d", len(snap.Chains))
			}
			var echoes uint64
			for _, c := range snap.Chains {
				if c.Blocks == 0 {
					t.Errorf("chain %s saw no blocks", c.Chain)
				}
				echoes += c.Echoes
			}
			if echoes == 0 {
				t.Error("no cross-partition echoes observed (scenario should produce some)")
			}
			if len(snap.Correlations) != 3 {
				t.Errorf("pair correlations = %d, want 3", len(snap.Correlations))
			}
		})
	}
}

// TestWireRoundTripConvergence pushes every event through a JSON
// marshal/unmarshal cycle — the wire — into a second analyzer with a
// Recorder beside it, following the feed by cursor while the engine
// runs, and asserts the follower's tables are byte-identical to the
// in-process Recorder's.
func TestWireRoundTripConvergence(t *testing.T) {
	sc := threePartScenario(12, 2, 2)
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := &export.Recorder{}
	plane := NewPlane(sc.Epoch, nil)
	eng.AddObserver(rec)
	eng.AddObserver(plane)

	remote := NewAnalyzer(sc.Epoch, Options{})
	remoteRec := &export.Recorder{}
	done := make(chan error, 1)
	go func() {
		var cursor uint64
		for {
			<-plane.Feed.WaitChan(cursor)
			evs, next, gap := plane.Feed.ReadSince(feed.StreamEvents, "", cursor, 0)
			if gap {
				done <- fmt.Errorf("cursor %d fell off the replay ring", cursor)
				return
			}
			for _, ev := range evs {
				raw, err := json.Marshal(ev)
				if err != nil {
					done <- err
					return
				}
				var wire feed.Event
				if err := json.Unmarshal(raw, &wire); err != nil {
					done <- err
					return
				}
				if err := remote.Apply(wire, remoteRec); err != nil {
					done <- err
					return
				}
				if ev.Kind == feed.KindEOF {
					done <- nil
					return
				}
			}
			cursor = next
		}
	}()

	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	plane.Complete()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	wb, wx, wd := batchCSVs(t, rec)
	gb, gx, gd := batchCSVs(t, remoteRec)
	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{
		{"blocks", gb, wb},
		{"txs", gx, wx},
		{"days", gd, wd},
	} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s diverge over the wire: %s", cmp.name, diffLine(cmp.got, cmp.want))
		}
	}
	// The remote snapshot must agree with the local one on the derived
	// observables too (it re-derives echoes rather than trusting them).
	local, dist := plane.Analyzer.Snapshot(), remote.Snapshot()
	for i := range local.Chains {
		if local.Chains[i].Echoes != dist.Chains[i].Echoes ||
			local.Chains[i].SameDayEchoes != dist.Chains[i].SameDayEchoes {
			t.Errorf("chain %s echo counts diverge: local %+v remote %+v",
				local.Chains[i].Chain, local.Chains[i], dist.Chains[i])
		}
	}
	if !dist.Complete {
		t.Error("remote analyzer missed EOF")
	}
}

// TestEchoSetEviction bounds the first-seen set: evictions advance and
// the set never exceeds its cap.
func TestEchoSetEviction(t *testing.T) {
	an := newAnalyzer(0, 4, nil)
	for n := uint64(0); n < 10; n++ {
		an.OnBlock(&sim.BlockEvent{
			Chain: "ONE", Number: n, Time: 1000 + n, Difficulty: big.NewInt(1),
			Txs: []sim.TxInfo{{Hash: types.Hash{byte(n)}, From: types.Address{0xaa}}},
		})
	}
	snap := an.Snapshot()
	if snap.EchoSetSize > 4 {
		t.Errorf("echo set size = %d, cap 4", snap.EchoSetSize)
	}
	if snap.EchoSetEvictions != 6 {
		t.Errorf("evictions = %d, want 6", snap.EchoSetEvictions)
	}
}

// wireTrip sends an event through the JSON wire form and back.
func wireTrip(t *testing.T, ev feed.Event) feed.Event {
	t.Helper()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var out feed.Event
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// roundTripObserver checks, for every event of a run, that the wire form
// decodes back to the engine's event field for field.
type roundTripObserver struct {
	t            *testing.T
	blocks, days int
}

func (o *roundTripObserver) OnBlock(ev *sim.BlockEvent) {
	o.blocks++
	got, err := feed.HeadToSim(wireTrip(o.t, feed.Event{Kind: feed.KindHead, Head: feed.HeadFromSim(ev)}).Head)
	if err != nil {
		o.t.Fatalf("%s block %d: %v", ev.Chain, ev.Number, err)
	}
	if got.Chain != ev.Chain || got.Day != ev.Day || got.Number != ev.Number || got.Time != ev.Time ||
		got.Delta != ev.Delta || got.Difficulty.Cmp(ev.Difficulty) != 0 || got.Coinbase != ev.Coinbase ||
		!slices.Equal(got.Txs, ev.Txs) {
		o.t.Fatalf("%s block %d: decoded %+v, sent %+v", ev.Chain, ev.Number, got, ev)
	}
}

func (o *roundTripObserver) OnDay(ev *sim.DayEvent) {
	o.days++
	got, err := feed.DayToSim(wireTrip(o.t, feed.Event{Kind: feed.KindDay, Day: feed.DayFromSim(ev)}).Day)
	if err != nil {
		o.t.Fatalf("day %d: %v", ev.Day, err)
	}
	if got.Day != ev.Day || len(got.Partitions) != len(ev.Partitions) {
		o.t.Fatalf("day %d: decoded %+v, sent %+v", ev.Day, got, ev)
	}
	for i, want := range ev.Partitions {
		pd := got.Partitions[i]
		if pd.Name != want.Name || pd.USD != want.USD || pd.Hashrate != want.Hashrate ||
			pd.Difficulty.Cmp(want.Difficulty) != 0 {
			o.t.Fatalf("day %d, %s: decoded %+v, sent %+v", ev.Day, want.Name, pd, want)
		}
	}
}

// TestWireDecodeInvertsEncode: HeadToSim/DayToSim undo HeadFromSim/
// DayFromSim across a JSON round trip, over a whole three-partition run.
func TestWireDecodeInvertsEncode(t *testing.T) {
	eng, err := sim.New(threePartScenario(13, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundTripObserver{t: t}
	eng.AddObserver(obs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.blocks == 0 || obs.days != 3 {
		t.Fatalf("checked %d blocks and %d days", obs.blocks, obs.days)
	}
}

// TestApplyRejectsMalformedEvents: a damaged head or day event is an
// error at the decode boundary and leaves the analyzer untouched.
func TestApplyRejectsMalformedEvents(t *testing.T) {
	hash, addr := types.Hash{1}.Hex(), types.Address{2}.Hex()
	head := func(diff, coinbase, txHash, txFrom string) feed.Event {
		return feed.Event{Kind: feed.KindHead, Head: &feed.HeadEvent{
			Chain: "ONE", Number: 1, Time: 10, Difficulty: diff, Coinbase: coinbase,
			Txs: []feed.TxInfo{{Hash: txHash, From: txFrom}},
		}}
	}
	day := func(diff string) feed.Event {
		return feed.Event{Kind: feed.KindDay, Day: &feed.DayEvent{
			Partitions: []feed.PartitionDay{{Chain: "ONE", USD: 1, Hashrate: 1, Difficulty: diff}},
		}}
	}
	// A day or hour index the collector would index (or grow) its buckets
	// with: negative panics, huge allocates a bucket per day or hour.
	headOn := func(day int, time uint64) feed.Event {
		ev := head("1", addr, hash, addr)
		ev.Head.Day, ev.Head.Time = day, time
		return ev
	}
	dayOn := func(n int) feed.Event {
		ev := day("1")
		ev.Day.Day = n
		return ev
	}
	an := NewAnalyzer(0, Options{})
	rec := &export.Recorder{}
	for name, ev := range map[string]feed.Event{
		"negative head day":  headOn(-1, 10),
		"huge head day":      headOn(feed.MaxDay+1, 10),
		"huge head time":     headOn(0, 1<<62),
		"negative day":       dayOn(-1),
		"huge day":           dayOn(1 << 40),
		"hex difficulty":     head("0x10", addr, hash, addr),
		"empty difficulty":   head("", addr, hash, addr),
		"short coinbase":     head("1", "0xaa", hash, addr),
		"unprefixed hash":    head("1", addr, hash[2:]+"00", addr),
		"long hash":          head("1", addr, hash+"00", addr),
		"non-hex sender":     head("1", addr, hash, "0x"+strings.Repeat("zz", types.AddressLength)),
		"day hex difficulty": day("1e9"),
	} {
		if err := an.Apply(ev, rec); err == nil {
			t.Errorf("%s: applied without error", name)
		}
	}
	if got := an.Snapshot(); !reflect.DeepEqual(got, NewAnalyzer(0, Options{}).Snapshot()) {
		t.Errorf("rejected events changed the analyzer: %+v", got)
	}
	if len(rec.Blocks)+len(rec.Txs)+len(rec.Days) != 0 {
		t.Errorf("rejected events reached the recorder: %d blocks, %d txs, %d days", len(rec.Blocks), len(rec.Txs), len(rec.Days))
	}
	for _, ev := range []feed.Event{head("1", addr, hash, addr), day("1"), headOn(feed.MaxDay, 10), dayOn(feed.MaxDay)} {
		if err := an.Apply(ev, rec); err != nil {
			t.Errorf("well-formed %s event rejected: %v", ev.Kind, err)
		}
	}
	if len(rec.Blocks) != 2 || len(rec.Txs) != 2 || len(rec.Days) != 2 {
		t.Errorf("well-formed events reached the recorder as %d blocks, %d txs, %d days", len(rec.Blocks), len(rec.Txs), len(rec.Days))
	}
}

// TestSnapshotIsTheCollectorsView runs one engine with a plane, a plain
// analysis.Collector and a second analyzer fed over the JSON wire, and
// requires the two snapshots equal field for field and their derived
// observables equal to the collector's.
func TestSnapshotIsTheCollectorsView(t *testing.T) {
	sc := threePartScenario(12, 3, 2)
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	plane := NewPlane(sc.Epoch, nil)
	col := analysis.NewCollector(sc.Epoch)
	eng.AddObserver(plane)
	eng.AddObserver(col)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	plane.Complete()

	remote := NewAnalyzer(sc.Epoch, Options{})
	evs, _, gap := plane.Feed.ReadSince(feed.StreamEvents, "", 0, ringSize)
	if gap {
		t.Fatal("the run overflowed the replay ring")
	}
	for _, ev := range evs {
		if err := remote.Apply(wireTrip(t, ev)); err != nil {
			t.Fatal(err)
		}
	}
	local, wire := plane.Analyzer.Snapshot(), remote.Snapshot()
	if !reflect.DeepEqual(local, wire) {
		t.Errorf("snapshots diverge:\n in-process %+v\n over wire  %+v", local, wire)
	}

	last := sc.Days - 1
	var echoes uint64
	for _, c := range local.Chains {
		echoes += c.Echoes
		if want := uint64(col.TotalEchoes(c.Chain)); c.Echoes != want {
			t.Errorf("%s echoes = %d, collector %d", c.Chain, c.Echoes, want)
		}
		if want := col.RecoveryHour(c.Chain, 14, 0.9, 6); c.RecoveryHour != want {
			t.Errorf("%s recovery hour = %d, collector %d", c.Chain, c.RecoveryHour, want)
		}
		if want := col.TopNShare(c.Chain, 5)[last]; c.Top5Share != want {
			t.Errorf("%s top-5 share = %v, collector %v", c.Chain, c.Top5Share, want)
		}
		if want := col.PoolGini(c.Chain)[last]; c.PoolGini != want {
			t.Errorf("%s gini = %v, collector %v", c.Chain, c.PoolGini, want)
		}
	}
	if echoes == 0 {
		t.Error("no echoes: the comparison is vacuous")
	}
	if len(local.Correlations) != 3 {
		t.Fatalf("pair correlations = %d, want 3", len(local.Correlations))
	}
	for _, p := range local.Correlations {
		want := col.PayoffCorrelation(analysis.RewardEther, p.A, p.B)
		if math.IsNaN(want) {
			want = 0
		}
		if p.Correlation != want {
			t.Errorf("%s/%s correlation = %v, collector %v", p.A, p.B, p.Correlation, want)
		}
	}
}
