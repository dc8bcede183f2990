package export

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

func sampleBlocks() []BlockRow {
	return []BlockRow{
		{Chain: "ETH", Number: 1, Time: 1000,
			Difficulty: 131072, Coinbase: types.HexToAddress("0xaa"), TxCount: 2},
		{Chain: "ETH", Number: 2, Time: 1014,
			Difficulty: 131136, Coinbase: types.HexToAddress("0xbb"), TxCount: 0},
	}
}

// sampleTxs are block 1's transactions.
func sampleTxs() []TxRow {
	return []TxRow{
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1000, Hash: types.HexToHash("0xt1"),
			From: types.HexToAddress("0xee"), Contract: false},
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1000, Hash: types.HexToHash("0xt2"),
			From: types.HexToAddress("0xee"), Contract: true, ChainBound: true},
	}
}

// encodeTables writes rows as the three tables; days may be nil.
func encodeTables(t *testing.T, blocks []BlockRow, txs []TxRow, days []DayRow) (b, x, d []byte) {
	t.Helper()
	var bb, xb, db bytes.Buffer
	if err := WriteBlocks(&bb, blocks); err != nil {
		t.Fatal(err)
	}
	if err := WriteTxs(&xb, txs); err != nil {
		t.Fatal(err)
	}
	if err := WriteDays(&db, days); err != nil {
		t.Fatal(err)
	}
	return bb.Bytes(), xb.Bytes(), db.Bytes()
}

// replayBytes replays tables held in memory; a nil days replays without a
// day table.
func replayBytes(blocks, txs, days []byte, epoch, dayLength uint64, obs sim.Observer) error {
	var dr io.Reader
	if days != nil {
		dr = bytes.NewReader(days)
	}
	return ReplayTables(bytes.NewReader(blocks), bytes.NewReader(txs), dr, epoch, dayLength, obs)
}

// replayRows writes rows as tables and replays them, without a day table,
// into a Recorder.
func replayRows(t *testing.T, blocks []BlockRow, txs []TxRow, epoch uint64) *Recorder {
	t.Helper()
	b, x, _ := encodeTables(t, blocks, txs, nil)
	rec := &Recorder{}
	if err := replayBytes(b, x, nil, epoch, 86_400, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBlocksRoundTrip(t *testing.T) {
	rec := replayRows(t, sampleBlocks(), sampleTxs(), 1000)
	if !reflect.DeepEqual(rec.Blocks, sampleBlocks()) {
		t.Errorf("replayed blocks %+v, want %+v", rec.Blocks, sampleBlocks())
	}
}

func TestTxsRoundTrip(t *testing.T) {
	rec := replayRows(t, sampleBlocks(), sampleTxs(), 1000)
	if !reflect.DeepEqual(rec.Txs, sampleTxs()) {
		t.Errorf("replayed txs %+v, want %+v", rec.Txs, sampleTxs())
	}
}

// TestReadRejectsBadInput: the row parsers refuse malformed tables, naming
// the row and the field.
func TestReadRejectsBadInput(t *testing.T) {
	const header = "chain,number,hash,time,difficulty,coinbase,txcount\n"
	const txs = "chain,block,blocktime,hash,from,nonce,chainid,contract\n"
	replay := func(blocks, txs string) error {
		return ReplayTables(strings.NewReader(blocks), strings.NewReader(txs), nil, 0, 86_400, &Recorder{})
	}
	if err := replay("", txs); err == nil {
		t.Error("empty input should fail")
	}
	if err := replay("wrong,header\n", txs); err == nil {
		t.Error("wrong header should fail")
	}
	if err := replay(header+"ETH,notanumber,0x,0,1,0x,0\n", txs); err == nil {
		t.Error("bad number should fail")
	}
	// A row holds a 64-bit difficulty and a 32-bit txcount: wider or
	// negative values are refused, naming the row, never truncated.
	const good = "ETH,1,0x,0,18446744073709551615,0x,0\n"
	for _, tc := range []struct{ row, field string }{
		{"ETH,2,0x,0,18446744073709551616,0x,0\n", "difficulty"},
		{"ETH,2,0x,0,-1,0x,0\n", "difficulty"},
		{"ETH,2,0x,0,1,0x,-1\n", "txcount"},
		{"ETH,2,0x,0,1,0x,4294967296\n", "txcount"},
		{"ETH,2,0x,0,1,0x\n", "fields"},
	} {
		err := replay(header+good+tc.row, txs)
		if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("replaying %q = %v, want an error naming row 2's %s", tc.row, err, tc.field)
		}
	}
	rec := &Recorder{}
	if err := ReplayTables(strings.NewReader(header+good), strings.NewReader(txs), nil, 0, 86_400, rec); err != nil || rec.Blocks[0].Difficulty != math.MaxUint64 {
		t.Errorf("replaying the largest difficulty = %+v, %v", rec.Blocks, err)
	}
	// The largest txcount parses; the tx table then runs out.
	err := replay(header+"ETH,1,0x,0,1,0x,4294967295\n", txs)
	if err == nil || !strings.Contains(err.Error(), "0 of block row 1's 4294967295 transactions") {
		t.Errorf("replaying the largest txcount = %v, want the tx table to end inside block row 1", err)
	}
	if err := replay(header, "x\n"); err == nil {
		t.Error("bad tx header should fail")
	}
	if err := replay(header+"ETH,1,0x,0,1,0x,1\n", txs+"ETH,1,0,0x,0x,0,0,maybe\n"); err == nil || !strings.Contains(err.Error(), "tx row 1 contract") {
		t.Errorf("bad contract flag = %v, want an error naming tx row 1's contract", err)
	}
}

// TestReplayTablesRejectsForeignStreams: tables that are not one run's
// stream in delivery order are refused, naming the row.
func TestReplayTablesRejectsForeignStreams(t *testing.T) {
	const bh = "chain,number,hash,time,difficulty,coinbase,txcount\n"
	const th = "chain,block,blocktime,hash,from,nonce,chainid,contract\n"
	const dh = "day,ethusd,etcusd,ethhashrate,etchashrate\n"
	tx := func(chain string, n, tm int) string {
		return fmt.Sprintf("%s,%d,%d,0x01,0x02,0,0,false\n", chain, n, tm)
	}
	for _, tc := range []struct {
		name, blocks, txs, days, want string
	}{
		{"number order", bh + "ETH,2,0x,1010,1,0x,0\nETH,1,0x,1020,1,0x,0\n", th, "", "block row 2 (ETH block 1): out of delivery order"},
		{"repeated block", bh + "ETH,1,0x,1010,1,0x,0\nETH,1,0x,1020,1,0x,0\n", th, "", "block row 2 (ETH block 1): out of delivery order"},
		{"partition order", bh + "ETC,1,0x,1010,1,0x,0\nETH,1,0x,1020,1,0x,0\n", th, dh + "0,1,1,1,1\n", "block row 2 (ETH block 1): out of delivery order"},
		{"day order", bh + "ETH,1,0x,90000,1,0x,0\nETC,1,0x,1020,1,0x,0\n", th, "", "block row 2 (ETC block 1): out of delivery order"},
		{"time goes back", bh + "ETH,1,0x,1020,1,0x,0\nETH,2,0x,1010,1,0x,0\n", th, "", "block row 2 (ETH block 2): time 1010 is before"},
		{"tx of another block", bh + "ETH,1,0x,1010,1,0x,1\nETH,2,0x,1020,1,0x,0\n", th + tx("ETH", 2, 1020), "", "tx row 1 (ETH block 2 at 1020) does not belong to block row 1"},
		{"tx of another chain", bh + "ETH,1,0x,1010,1,0x,1\n", th + tx("ETC", 1, 1010), "", "tx row 1 (ETC block 1 at 1010) does not belong"},
		{"tx left over", bh + "ETH,1,0x,1010,1,0x,1\n", th + tx("ETH", 1, 1010) + tx("ETH", 1, 1010), "", "tx row 2 follows the last block's transactions"},
		{"tx table short", bh + "ETH,1,0x,1010,1,0x,2\n", th + tx("ETH", 1, 1010), "", "the tx table ends at 1 of block row 1's 2 transactions"},
		{"before the epoch", bh + "ETH,1,0x,999,1,0x,0\n", th, "", "block row 1 (ETH block 1): time 999 is before the epoch 1000"},
		{"past the day table", bh + "ETH,1,0x,1010,1,0x,0\nETH,2,0x,90000,1,0x,0\n", th, dh + "0,1,1,1,1\n", "block row 2 (ETH block 2): on day 1, past the day table's last day 0"},
		{"day rows out of order", bh, th, dh + "1,1,1,1,1\n0,1,1,1,1\n", "day row 2: day 0 does not follow day 1"},
		{"negative day", bh, th, dh + "-1,1,1,1,1\n", "day row 1: day -1"},
		{"too far past the epoch", bh + "ETH,1,0x,99999999999,1,0x,0\n", th, "", "block row 1 (ETH block 1): time 99999999999 is more than"},
	} {
		var days []byte
		if tc.days != "" {
			days = []byte(tc.days)
		}
		err := replayBytes([]byte(tc.blocks), []byte(tc.txs), days, 1000, 86_400, &Recorder{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	b, x, _ := encodeTables(t, sampleBlocks(), sampleTxs(), nil)
	if err := replayBytes(b, x, nil, 1000, 0, &Recorder{}); err == nil || !strings.Contains(err.Error(), "day length is 0") {
		t.Errorf("a zero day length = %v, want an error", err)
	}
}

// testChain returns a chain whose genesis difficulty is diff, with one
// mined block holding a signed transfer.
func testChain(t *testing.T, diff *big.Int) (*chain.Blockchain, *chain.Block, *chain.Transaction) {
	t.Helper()
	gen := &chain.Genesis{
		Difficulty: diff,
		Time:       1_000_000,
		Alloc: map[types.Address]*big.Int{
			types.HexToAddress("0xa11ce"): new(big.Int).Mul(big.NewInt(10), chain.Ether),
		},
	}
	bc, err := chain.NewBlockchain(chain.MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	to := types.HexToAddress("0xb0b")
	tx := chain.NewTransaction(0, &to, big.NewInt(5), 21_000, big.NewInt(1), nil).
		Sign(types.HexToAddress("0xa11ce"), 0)
	blk, err := bc.BuildBlock(types.HexToAddress("0x9001"), gen.Time+14, []*chain.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	return bc, blk, tx
}

// TestReplayChains: a reopened chain replays as the engine delivered it —
// the rows a Recorder takes are the block's — and a difficulty wider than
// 64 bits is delivered, not refused.
func TestReplayChains(t *testing.T) {
	bc, blk, tx := testChain(t, big.NewInt(131072))
	rec := &Recorder{}
	if err := ReplayChains([]string{"ETH"}, []*chain.Blockchain{bc}, 1_000_000, 86_400, rec); err != nil {
		t.Fatal(err)
	}
	want := BlockRow{Chain: "ETH", Number: 1, Time: blk.Header.Time, Difficulty: blk.Header.Difficulty.Uint64(),
		Coinbase: blk.Header.Coinbase, TxCount: 1}
	if len(rec.Blocks) != 1 || rec.Blocks[0] != want || len(rec.Txs) != 1 || rec.Txs[0].Hash != tx.Hash() {
		t.Fatalf("replayed %+v / %+v, want %+v / tx %s", rec.Blocks, rec.Txs, want, tx.Hash().Hex())
	}
	if len(rec.Days) != 0 {
		t.Errorf("replayed %d day events; chains hold no prices", len(rec.Days))
	}

	wbc, wblk, _ := testChain(t, new(big.Int).Lsh(big.NewInt(1), 70))
	l := &eventLog{}
	if err := ReplayChains([]string{"ETH"}, []*chain.Blockchain{wbc}, 1_000_000, 86_400, l); err != nil {
		t.Fatalf("replaying a %d-bit difficulty: %v", wblk.Header.Difficulty.BitLen(), err)
	}
	if want := fmt.Sprintf("ETH/1 d=%v txs=1", wblk.Header.Difficulty); len(l.seen) != 1 || l.seen[0] != want {
		t.Errorf("replayed %q, want [%s]", l.seen, want)
	}

	for _, tc := range []struct {
		epoch, dayLength uint64
		want             string
	}{
		{blk.Header.Time + 1, 86_400, "ETH block 1: time 1000014 is before the epoch 1000015"},
		{1_000_000, 0, "day length is 0"},
	} {
		err := ReplayChains([]string{"ETH"}, []*chain.Blockchain{bc}, tc.epoch, tc.dayLength, &Recorder{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReplayChains(epoch %d, day length %d) = %v, want %q", tc.epoch, tc.dayLength, err, tc.want)
		}
	}
}

// collectorStub counts replayed events.
type collectorStub struct {
	blocks int
	txs    int
	echo   map[types.Hash]int
	deltas []uint64
	days   []int
}

func (c *collectorStub) OnBlock(ev *sim.BlockEvent) {
	c.blocks++
	c.txs += len(ev.Txs)
	c.deltas = append(c.deltas, ev.Delta)
	c.days = append(c.days, ev.Day)
	for _, tx := range ev.Txs {
		if c.echo == nil {
			c.echo = map[types.Hash]int{}
		}
		c.echo[tx.Hash]++
	}
}
func (c *collectorStub) OnDay(*sim.DayEvent) {}

func TestReplayReconstructsEvents(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: 1, TxCount: 1},
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: 2},
		{Chain: "ETC", Number: 1, Time: 90_000, Difficulty: 3, TxCount: 1},
	}
	txs := []TxRow{
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1014, Hash: types.HexToHash("0xt1")},
		{Chain: "ETC", BlockNumber: 1, BlockTime: 90_000, Hash: types.HexToHash("0xt1")},
	}
	b, x, _ := encodeTables(t, blocks, txs, nil)
	stub := &collectorStub{}
	if err := replayBytes(b, x, nil, 1000, 86_400, stub); err != nil {
		t.Fatal(err)
	}
	if stub.blocks != 3 || stub.txs != 2 {
		t.Fatalf("replayed %d blocks, %d txs", stub.blocks, stub.txs)
	}
	// Per-chain deltas come from consecutive times (a chain's first block
	// is measured from the epoch).
	if stub.deltas[0] != 14 || stub.deltas[1] != 14 || stub.deltas[2] != 89_000 {
		t.Errorf("deltas = %v", stub.deltas)
	}
	// ETH blocks land on day 0; the ETC block at t=90000 on day 1.
	if stub.days[0] != 0 || stub.days[2] != 1 {
		t.Errorf("days = %v", stub.days)
	}
	if stub.echo[types.HexToHash("0xt1")] != 2 {
		t.Error("echoed tx should appear twice")
	}
}

// TestRecorderEndToEnd runs a short sim with a Recorder, writes its
// tables, and replays them into a second Recorder: it takes back every
// row written.
func TestRecorderEndToEnd(t *testing.T) {
	sc := sim.NewScenario(3, 2)
	sc.DayLength = 3600
	sc.Users = 30
	sc.ETHTxPerDay = 20
	sc.ETCTxPerDay = 8
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	eng.AddObserver(rec)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) == 0 || len(rec.Txs) == 0 {
		t.Fatal("recorder captured nothing")
	}
	b, x, d := encodeTables(t, rec.Blocks, rec.Txs, rec.Days)
	back := &Recorder{}
	if err := replayBytes(b, x, d, sc.Epoch, sc.DayLength, back); err != nil {
		t.Fatal(err)
	}
	sameRows(t, back, rec)
}

// sameRows requires got to hold want's rows, row for row.
func sameRows(t *testing.T, got, want *Recorder) {
	t.Helper()
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Errorf("block rows differ: %d rows, want %d", len(got.Blocks), len(want.Blocks))
	}
	if !reflect.DeepEqual(got.Txs, want.Txs) {
		t.Errorf("tx rows differ: %d rows, want %d", len(got.Txs), len(want.Txs))
	}
	if !reflect.DeepEqual(got.Days, want.Days) {
		t.Errorf("day rows differ: %d rows, want %d", len(got.Days), len(want.Days))
	}
}

func TestDaysRoundTrip(t *testing.T) {
	chains := []string{"ETH", "ETC"}
	rows := []DayRow{
		{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{4.9e12, 1e11}},
		{Day: 1, Chains: chains, USD: []float64{12.5, 1.1}, Hashrate: []float64{4.8e12, 2e11}},
	}
	b, x, d := encodeTables(t, nil, nil, rows)
	rec := &Recorder{}
	if err := replayBytes(b, x, d, 1000, 86_400, rec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Days, rows) {
		t.Fatalf("round trip returned %+v, want %+v", rec.Days, rows)
	}
	if err := replayBytes(b, x, []byte("bad\n"), 1000, 86_400, rec); err == nil {
		t.Error("bad header should fail")
	}
}

// dayCollector records replayed day events.
type dayCollector struct {
	collectorStub
	days []*sim.DayEvent
}

func (d *dayCollector) OnDay(ev *sim.DayEvent) { d.days = append(d.days, ev) }

func TestReplayTablesSynthesisesDayEvents(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: 100},
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: 110},
		{Chain: "ETC", Number: 1, Time: 1050, Difficulty: 9},
		{Chain: "ETH", Number: 3, Time: 90_000, Difficulty: 120},
	}
	chains := []string{"ETH", "ETC"}
	days := []DayRow{
		{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{0, 0}},
		{Day: 1, Chains: chains, USD: []float64{13, 1.3}, Hashrate: []float64{0, 0}},
		{Day: 3, Chains: chains, USD: []float64{14, 1.4}, Hashrate: []float64{0, 0}},
	}
	b, x, d := encodeTables(t, blocks, nil, days)
	col := &dayCollector{}
	if err := replayBytes(b, x, d, 1000, 86_400, col); err != nil {
		t.Fatal(err)
	}
	if len(col.days) != 4 {
		t.Fatalf("day events = %d, want 4 (through the day table's last day)", len(col.days))
	}
	d0eth, d0etc := col.days[0].Partition("ETH"), col.days[0].Partition("ETC")
	if d0eth == nil || d0etc == nil {
		t.Fatalf("day 0 missing partitions: %+v", col.days[0])
	}
	if d0eth.USD != 12 || d0eth.Difficulty.Int64() != 110 || d0etc.Difficulty.Int64() != 9 {
		t.Errorf("day 0 = %+v", col.days[0])
	}
	// Day 1: ETH difficulty from its block; ETC carries day 0 forward.
	d1eth, d1etc := col.days[1].Partition("ETH"), col.days[1].Partition("ETC")
	if d1eth.Difficulty.Int64() != 120 || d1etc.Difficulty.Int64() != 9 || d1etc.USD != 1.3 {
		t.Errorf("day 1 = %+v", col.days[1])
	}
	// Day 2 has no row: no prices, difficulties carried.
	if d2 := col.days[2].Partition("ETH"); col.days[2].Day != 2 || d2.USD != 0 || d2.Difficulty.Int64() != 120 {
		t.Errorf("day 2 = %+v", col.days[2])
	}
	if d3 := col.days[3].Partition("ETC"); col.days[3].Day != 3 || d3.USD != 1.4 {
		t.Errorf("day 3 = %+v", col.days[3])
	}
}

// eventLog keeps each replayed event's pointer and what it carried at
// delivery.
type eventLog struct {
	events []*sim.BlockEvent
	seen   []string
	days   []*sim.DayEvent
}

func (l *eventLog) OnBlock(ev *sim.BlockEvent) {
	l.events = append(l.events, ev)
	l.seen = append(l.seen, fmt.Sprintf("%s/%d d=%v txs=%d", ev.Chain, ev.Number, ev.Difficulty, len(ev.Txs)))
}
func (l *eventLog) OnDay(ev *sim.DayEvent) { l.days = append(l.days, ev) }

// TestReplayPoolsItsEvent: a replay hands every block over in one reused
// event, as the engine does, carrying each block's own values.
func TestReplayPoolsItsEvent(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: math.MaxUint64, TxCount: 2},
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: 1 << 63},
		{Chain: "ETC", Number: 1, Time: 1030, Difficulty: 0, TxCount: 1},
	}
	txs := []TxRow{
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1014, Hash: types.HexToHash("0x1")},
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1014, Hash: types.HexToHash("0x2")},
		{Chain: "ETC", BlockNumber: 1, BlockTime: 1030, Hash: types.HexToHash("0x3")},
	}
	b, x, _ := encodeTables(t, blocks, txs, nil)
	l := &eventLog{}
	if err := replayBytes(b, x, nil, 1000, 86_400, l); err != nil {
		t.Fatal(err)
	}
	want := []string{"ETH/1 d=18446744073709551615 txs=2", "ETH/2 d=9223372036854775808 txs=0", "ETC/1 d=0 txs=1"}
	if !reflect.DeepEqual(l.seen, want) {
		t.Errorf("replayed %q, want %q", l.seen, want)
	}
	for i, ev := range l.events {
		if ev != l.events[0] {
			t.Errorf("event %d is a fresh BlockEvent; the replay must reuse one", i)
		}
	}
}

// TestReplayTablesKeepsTableChainOrder: without a day table, the partition
// order is the order the block table first names the chains, and a day's
// blocks replay in it — the engine's delivery order — although the second
// partition mined the earlier block.
func TestReplayTablesKeepsTableChainOrder(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "MAJ", Number: 1, Time: 1020, Difficulty: 5},
		{Chain: "MIN", Number: 1, Time: 1010, Difficulty: 3},
	}
	b, x, _ := encodeTables(t, blocks, nil, nil)
	l := &eventLog{}
	if err := replayBytes(b, x, nil, 1000, 86_400, l); err != nil {
		t.Fatal(err)
	}
	if want := []string{"MAJ/1 d=5 txs=0", "MIN/1 d=3 txs=0"}; !reflect.DeepEqual(l.seen, want) {
		t.Errorf("replayed %q, want %q", l.seen, want)
	}
	if len(l.days) != 1 || len(l.days[0].Partitions) != 2 ||
		l.days[0].Partitions[0].Name != "MAJ" || l.days[0].Partitions[1].Name != "MIN" {
		t.Fatalf("day events %+v, want one day listing MAJ then MIN", l.days)
	}
}

// TestReplaySameDayEchoFollowsPartitionOrder: a transaction mined on both
// chains the same day is first seen on the earlier partition, as the
// engine delivers it, even where the later partition's block carries the
// earlier timestamp — so the echo counts into the later partition. The
// day table fixes the partition order: rows in another order are refused.
func TestReplaySameDayEchoFollowsPartitionOrder(t *testing.T) {
	tx := types.HexToHash("0xe0")
	chains := []string{"ETH", "ETC"}
	days := []DayRow{{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{1, 1}}}
	eth := BlockRow{Chain: "ETH", Number: 1, Time: 1050, Difficulty: 5, TxCount: 1}
	etc := BlockRow{Chain: "ETC", Number: 1, Time: 1010, Difficulty: 3, TxCount: 1}
	ethTx := TxRow{Chain: "ETH", BlockNumber: 1, BlockTime: 1050, Hash: tx}
	etcTx := TxRow{Chain: "ETC", BlockNumber: 1, BlockTime: 1010, Hash: tx}

	b, x, d := encodeTables(t, []BlockRow{eth, etc}, []TxRow{ethTx, etcTx}, days)
	col := analysis.NewCollector(1000)
	if err := replayBytes(b, x, d, 1000, 86_400, col); err != nil {
		t.Fatal(err)
	}
	if eth, etc := col.TotalEchoes("ETH"), col.TotalEchoes("ETC"); eth != 0 || etc != 1 {
		t.Errorf("echoes into ETH %d, into ETC %d; want 0 and 1", eth, etc)
	}
	if got := col.SameDayEchoesPerDay("ETC"); len(got) != 1 || got[0] != 1 {
		t.Errorf("ETC same-day echoes per day = %v, want [1]", got)
	}

	b, x, d = encodeTables(t, []BlockRow{etc, eth}, []TxRow{etcTx, ethTx}, days)
	if err := replayBytes(b, x, d, 1000, 86_400, analysis.NewCollector(1000)); err == nil || !strings.Contains(err.Error(), "out of delivery order") {
		t.Errorf("ETC's block before ETH's under an ETH,ETC day table = %v, want a delivery-order error", err)
	}
}

// TestWriteTables: Tables publishes the three tables only when Close finds
// every write clean. A good run leaves tables the replay takes back
// unchanged; a refused block, an aborted run or a directory that cannot be
// created leaves no table, and no table of an earlier run is replaced.
func TestWriteTables(t *testing.T) {
	chains := []string{"ETH", "ETC"}
	day := &sim.DayEvent{Day: 0, Partitions: []sim.PartitionDay{
		{Name: "ETH", USD: 12, Hashrate: 4.9e12, Difficulty: big.NewInt(1)},
		{Name: "ETC", USD: 1.2, Hashrate: 1e11, Difficulty: big.NewInt(1)},
	}}
	var diff big.Int
	block := &sim.BlockEvent{Chain: "ETH", Number: 1, Time: 1014, Difficulty: &diff,
		Txs: []sim.TxInfo{{Hash: types.HexToHash("0x1"), ChainBound: true}}}
	dir := filepath.Join(t.TempDir(), "out")
	tables, err := NewTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	diff.SetUint64(131072)
	tables.OnBlock(block)
	tables.OnDay(day)
	if err := tables.Close(); err != nil {
		t.Fatal(err)
	}
	tables.Abort() // after Close: nothing to drop
	want := &Recorder{}
	want.OnBlock(block)
	want.OnDay(day)
	got := &Recorder{}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if err := ReplayTables(open("blocks.csv"), open("txs.csv"), open("days.csv"), 1000, 86_400, got); err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
	if !reflect.DeepEqual(got.Days[0].Chains, chains) {
		t.Errorf("day table columns %q, want %q", got.Days[0].Chains, chains)
	}
	onlyTables := func(dir string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"blocks.csv", "days.csv", "txs.csv"}; !reflect.DeepEqual(names, want) {
			t.Errorf("%s holds %q, want %q", dir, names, want)
		}
	}
	onlyTables(dir)
	before, err := os.ReadFile(filepath.Join(dir, "blocks.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// A 65-bit difficulty: Close names the block and publishes nothing.
	tables, err = NewTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	tables.OnBlock(block)
	diff.Lsh(big.NewInt(1), 64)
	block.Number = 2
	tables.OnBlock(block)
	if err := tables.Close(); err == nil || !strings.Contains(err.Error(), "ETH block 2") {
		t.Errorf("Close after a 65-bit difficulty = %v, want an error naming ETH block 2", err)
	}
	// An aborted run publishes nothing either.
	tables, err = NewTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	tables.OnBlock(block)
	tables.Abort()
	onlyTables(dir)
	if after, err := os.ReadFile(filepath.Join(dir, "blocks.csv")); err != nil || !bytes.Equal(after, before) {
		t.Errorf("a failed run replaced the earlier run's blocks.csv (%v)", err)
	}

	// A regular file where the directory should go: MkdirAll must fail.
	if _, err := NewTables(filepath.Join(dir, "blocks.csv", "sub")); err == nil {
		t.Error("NewTables under a regular file returned no error")
	}
}
