package export

import (
	"bytes"
	"fmt"
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

func sampleTxs() []TxRow {
	return []TxRow{
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1000, Hash: types.HexToHash("0xt1"),
			From: types.HexToAddress("0xee"), Nonce: 0, ChainID: 0, Contract: false},
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1000, Hash: types.HexToHash("0xt2"),
			From: types.HexToAddress("0xee"), Nonce: 1, ChainID: 1, Contract: true},
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlocks(&buf, sampleBlocks()); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadBlocks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleBlocks()
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d mismatch: %+v vs %+v", i, rows[i], want[i])
		}
	}
}

func TestTxsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTxs(&buf, sampleTxs()); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadTxs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTxs()
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d mismatch: %+v vs %+v", i, rows[i], want[i])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := ReadBlocks(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadBlocks(strings.NewReader("wrong,header\n")); err == nil {
		t.Error("wrong header should fail")
	}
	bad := "chain,number,hash,time,difficulty,coinbase,txcount\nETH,notanumber,0x,0,1,0x,0\n"
	if _, err := ReadBlocks(strings.NewReader(bad)); err == nil {
		t.Error("bad number should fail")
	}
	// A row holds a 64-bit difficulty and a 32-bit txcount: wider or
	// negative values are refused, naming the row, never truncated.
	const header = "chain,number,hash,time,difficulty,coinbase,txcount\n"
	const good = "ETH,1,0x,0,18446744073709551615,0x,4294967295\n"
	for _, tc := range []struct{ row, field string }{
		{"ETH,2,0x,0,18446744073709551616,0x,0\n", "difficulty"},
		{"ETH,2,0x,0,-1,0x,0\n", "difficulty"},
		{"ETH,2,0x,0,1,0x,-1\n", "txcount"},
		{"ETH,2,0x,0,1,0x,4294967296\n", "txcount"},
	} {
		_, err := ReadBlocks(strings.NewReader(header + good + tc.row))
		if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("ReadBlocks(%q) = %v, want an error naming row 2's %s", tc.row, err, tc.field)
		}
	}
	if rows, err := ReadBlocks(strings.NewReader(header + good)); err != nil || rows[0].Difficulty != math.MaxUint64 || rows[0].TxCount != math.MaxUint32 {
		t.Errorf("ReadBlocks of the largest values = %+v, %v", rows, err)
	}
	if _, err := ReadTxs(strings.NewReader("x\n")); err == nil {
		t.Error("bad tx header should fail")
	}
}

func TestFromBlockchain(t *testing.T) {
	gen := &chain.Genesis{
		Difficulty: big.NewInt(131072),
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
	blocks, txs, err := FromBlockchain("ETH", bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || len(txs) != 1 {
		t.Fatalf("rows = %d blocks, %d txs", len(blocks), len(txs))
	}
	want := BlockRow{Chain: "ETH", Number: 1, Time: blk.Header.Time, Difficulty: blk.Header.Difficulty.Uint64(),
		Coinbase: blk.Header.Coinbase, TxCount: 1}
	if blocks[0] != want || txs[0].Hash != tx.Hash() {
		t.Errorf("exported %+v / tx %s, want %+v / tx %s", blocks[0], txs[0].Hash.Hex(), want, tx.Hash().Hex())
	}
	if got := bc.CanonicalBlocks(1, 1)[0].Hash(); got != blk.Hash() {
		t.Errorf("canonical block 1 is %s, inserted %s", got.Hex(), blk.Hash().Hex())
	}

	// A chain whose difficulty outgrew 64 bits has no rows: an error, not
	// truncated difficulties.
	wide := &chain.Genesis{Difficulty: new(big.Int).Lsh(big.NewInt(1), 70), Time: gen.Time}
	wbc, err := chain.NewBlockchain(chain.MainnetLikeConfig(), wide)
	if err != nil {
		t.Fatal(err)
	}
	wblk, err := wbc.BuildBlock(types.HexToAddress("0x9001"), wide.Time+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wbc.InsertBlock(wblk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromBlockchain("ETH", wbc); err == nil || !strings.Contains(err.Error(), "block 1") {
		t.Errorf("FromBlockchain over a %d-bit difficulty = %v, want an error naming block 1", wblk.Header.Difficulty.BitLen(), err)
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
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: 2},
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: 1},
		{Chain: "ETC", Number: 1, Time: 90_000, Difficulty: 3},
	}
	txs := []TxRow{
		{Chain: "ETH", BlockNumber: 1, Hash: types.HexToHash("0xt1")},
		{Chain: "ETC", BlockNumber: 1, Hash: types.HexToHash("0xt1")},
	}
	stub := &collectorStub{}
	Replay(blocks, txs, 1000, 86_400, stub)
	if stub.blocks != 3 || stub.txs != 2 {
		t.Fatalf("replayed %d blocks, %d txs", stub.blocks, stub.txs)
	}
	// Replay delivers by day, then partition, then number — ETH@1014,
	// ETH@1028, ETC@90000 — with per-chain deltas recomputed from
	// consecutive times (first block measured from the epoch).
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

// TestRecorderEndToEnd runs a short sim with a Recorder, exports, reloads
// and replays into a stub, checking counts survive the full round trip.
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
	if len(rec.Blocks) == 0 {
		t.Fatal("recorder captured nothing")
	}

	var bbuf, tbuf bytes.Buffer
	if err := WriteBlocks(&bbuf, rec.Blocks); err != nil {
		t.Fatal(err)
	}
	if err := WriteTxs(&tbuf, rec.Txs); err != nil {
		t.Fatal(err)
	}
	blocks, err := ReadBlocks(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := ReadTxs(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	stub := &collectorStub{}
	Replay(blocks, txs, sc.Epoch, sc.DayLength, stub)
	if stub.blocks != len(rec.Blocks) {
		t.Errorf("replayed %d blocks, recorded %d", stub.blocks, len(rec.Blocks))
	}
	if stub.txs != len(rec.Txs) {
		t.Errorf("replayed %d txs, recorded %d", stub.txs, len(rec.Txs))
	}
}

func TestDaysRoundTrip(t *testing.T) {
	chains := []string{"ETH", "ETC"}
	rows := []DayRow{
		{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{4.9e12, 1e11}},
		{Day: 1, Chains: chains, USD: []float64{12.5, 1.1}, Hashrate: []float64{4.8e12, 2e11}},
	}
	var buf bytes.Buffer
	if err := WriteDays(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDays(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip returned %d rows", len(got))
	}
	for i, row := range got {
		if row.Day != rows[i].Day ||
			!reflect.DeepEqual(row.Chains, rows[i].Chains) ||
			!reflect.DeepEqual(row.USD, rows[i].USD) ||
			!reflect.DeepEqual(row.Hashrate, rows[i].Hashrate) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, row, rows[i])
		}
	}
	if _, err := ReadDays(strings.NewReader("bad\n")); err == nil {
		t.Error("bad header should fail")
	}
}

// dayCollector records replayed day events.
type dayCollector struct {
	collectorStub
	days []*sim.DayEvent
}

func (d *dayCollector) OnDay(ev *sim.DayEvent) { d.days = append(d.days, ev) }

func TestReplayAllSynthesisesDayEvents(t *testing.T) {
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
	}
	col := &dayCollector{}
	ReplayAll(blocks, nil, days, 1000, 86_400, col)
	if len(col.days) != 2 {
		t.Fatalf("day events = %d, want 2", len(col.days))
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

// TestReplayPoolsItsEvent: Replay hands every block over in one reused
// event, as the engine does, carrying each block's own values.
func TestReplayPoolsItsEvent(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: math.MaxUint64},
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: 1 << 63},
		{Chain: "ETC", Number: 1, Time: 1030, Difficulty: 0},
	}
	txs := []TxRow{
		{Chain: "ETH", BlockNumber: 1, Hash: types.HexToHash("0x1")},
		{Chain: "ETH", BlockNumber: 1, Hash: types.HexToHash("0x2")},
		{Chain: "ETC", BlockNumber: 1, Hash: types.HexToHash("0x3")},
	}
	l := &eventLog{}
	Replay(blocks, txs, 1000, 86_400, l)
	want := []string{"ETH/1 d=18446744073709551615 txs=2", "ETH/2 d=9223372036854775808 txs=0", "ETC/1 d=0 txs=1"}
	if !reflect.DeepEqual(l.seen, want) {
		t.Errorf("replayed %q, want %q", l.seen, want)
	}
	for i, ev := range l.events {
		if ev != l.events[0] {
			t.Errorf("event %d is a fresh BlockEvent; Replay must reuse one", i)
		}
	}
}

// TestReplayAllKeepsTableChainOrder: without a day table, the partition
// order is the order the block table first names the chains, and a day's
// blocks replay in it — the engine's delivery order — although the second
// partition mined the earlier block.
func TestReplayAllKeepsTableChainOrder(t *testing.T) {
	blocks := []BlockRow{
		{Chain: "MAJ", Number: 1, Time: 1020, Difficulty: 5},
		{Chain: "MIN", Number: 1, Time: 1010, Difficulty: 3},
	}
	if got := ChainOrder(blocks, nil); !reflect.DeepEqual(got, []string{"MAJ", "MIN"}) {
		t.Errorf("ChainOrder = %q, want [MAJ MIN]", got)
	}
	l := &eventLog{}
	ReplayAll(blocks, nil, nil, 1000, 86_400, l)
	if want := []string{"MAJ/1 d=5 txs=0", "MIN/1 d=3 txs=0"}; !reflect.DeepEqual(l.seen, want) {
		t.Errorf("replayed %q, want %q", l.seen, want)
	}
	if len(l.days) != 1 || len(l.days[0].Partitions) != 2 ||
		l.days[0].Partitions[0].Name != "MAJ" || l.days[0].Partitions[1].Name != "MIN" {
		t.Fatalf("day events %+v, want one day listing MAJ then MIN", l.days)
	}
	if blocks[0].Chain != "MAJ" {
		t.Errorf("ReplayAll reordered rows already in delivery order: %+v", blocks)
	}
}

// TestReplaySameDayEchoFollowsPartitionOrder: a transaction mined on both
// chains the same day is first seen on the earlier partition, as the
// engine delivers it, even where the later partition's block carries the
// earlier timestamp — so the echo counts into the later partition. The
// day table fixes the partition order whatever order the rows come in.
func TestReplaySameDayEchoFollowsPartitionOrder(t *testing.T) {
	tx := types.HexToHash("0xe0")
	chains := []string{"ETH", "ETC"}
	days := []DayRow{{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{1, 1}}}
	blocks := []BlockRow{
		{Chain: "ETC", Number: 1, Time: 1010, Difficulty: 3, TxCount: 1},
		{Chain: "ETH", Number: 1, Time: 1050, Difficulty: 5, TxCount: 1},
	}
	txs := []TxRow{
		{Chain: "ETC", BlockNumber: 1, BlockTime: 1010, Hash: tx},
		{Chain: "ETH", BlockNumber: 1, BlockTime: 1050, Hash: tx},
	}
	col := analysis.NewCollector(1000)
	ReplayAll(blocks, txs, days, 1000, 86_400, col)
	if eth, etc := col.TotalEchoes("ETH"), col.TotalEchoes("ETC"); eth != 0 || etc != 1 {
		t.Errorf("echoes into ETH %d, into ETC %d; want 0 and 1", eth, etc)
	}
	if got := col.SameDayEchoesPerDay("ETC"); len(got) != 1 || got[0] != 1 {
		t.Errorf("ETC same-day echoes per day = %v, want [1]", got)
	}
}

// TestWriteTables: a good directory holds three tables the readers take
// back unchanged, and a directory that cannot be created is an error, not
// a log line after the fact.
func TestWriteTables(t *testing.T) {
	chains := []string{"ETH", "ETC"}
	days := []DayRow{{Day: 0, Chains: chains, USD: []float64{12, 1.2}, Hashrate: []float64{4.9e12, 1e11}}}
	dir := filepath.Join(t.TempDir(), "out")
	if err := WriteTables(dir, sampleBlocks(), sampleTxs(), days); err != nil {
		t.Fatal(err)
	}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if got, err := ReadBlocks(open("blocks.csv")); err != nil || !reflect.DeepEqual(got, sampleBlocks()) {
		t.Errorf("blocks.csv read back as %+v, %v", got, err)
	}
	if got, err := ReadTxs(open("txs.csv")); err != nil || !reflect.DeepEqual(got, sampleTxs()) {
		t.Errorf("txs.csv read back as %+v, %v", got, err)
	}
	if got, err := ReadDays(open("days.csv")); err != nil || !reflect.DeepEqual(got, days) {
		t.Errorf("days.csv read back as %+v, %v", got, err)
	}

	// A regular file where the directory should go: MkdirAll must fail.
	if err := WriteTables(filepath.Join(dir, "blocks.csv", "sub"), sampleBlocks(), sampleTxs(), days); err == nil {
		t.Error("WriteTables into a path under a regular file returned no error")
	}
}
