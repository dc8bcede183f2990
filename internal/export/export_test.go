package export

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

func sampleBlocks() []BlockRow {
	return []BlockRow{
		{Chain: "ETH", Number: 1, Hash: types.HexToHash("0x01"), Time: 1000,
			Difficulty: big.NewInt(131072), Coinbase: types.HexToAddress("0xaa"), TxCount: 2},
		{Chain: "ETH", Number: 2, Hash: types.HexToHash("0x02"), Time: 1014,
			Difficulty: big.NewInt(131136), Coinbase: types.HexToAddress("0xbb"), TxCount: 0},
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
		if rows[i].Chain != want[i].Chain || rows[i].Number != want[i].Number ||
			rows[i].Hash != want[i].Hash || rows[i].Time != want[i].Time ||
			rows[i].Difficulty.Cmp(want[i].Difficulty) != 0 ||
			rows[i].Coinbase != want[i].Coinbase || rows[i].TxCount != want[i].TxCount {
			t.Errorf("row %d mismatch: %+v vs %+v", i, rows[i], want[i])
		}
	}
}

// TestWriteBlocksRejectsNilDifficulty: a row without a difficulty used to
// be written as the literal "<nil>", a table ReadBlocks then refused; the
// writer now names the row instead.
func TestWriteBlocksRejectsNilDifficulty(t *testing.T) {
	rows := sampleBlocks()
	rows[1].Difficulty = nil
	var buf bytes.Buffer
	err := WriteBlocks(&buf, rows)
	if err == nil {
		t.Fatalf("WriteBlocks accepted a nil difficulty and wrote %q", buf.String())
	}
	for _, want := range []string{"row 1", "ETH", "block 2", "difficulty"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(buf.String(), "<nil>") {
		t.Errorf("WriteBlocks wrote a <nil> difficulty: %q", buf.String())
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
	blocks, txs := FromBlockchain("ETH", bc)
	if len(blocks) != 1 || len(txs) != 1 {
		t.Fatalf("rows = %d blocks, %d txs", len(blocks), len(txs))
	}
	if blocks[0].Hash != blk.Hash() || txs[0].Hash != tx.Hash() {
		t.Error("exported hashes do not match the chain")
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
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: big.NewInt(2)},
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: big.NewInt(1)},
		{Chain: "ETC", Number: 1, Time: 90_000, Difficulty: big.NewInt(3)},
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
	// Replay interleaves globally by time — ETH@1014, ETH@1028,
	// ETC@90000 — with per-chain deltas recomputed from consecutive
	// times (first block measured from the epoch).
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
		{Chain: "ETH", Number: 1, Time: 1014, Difficulty: big.NewInt(100)},
		{Chain: "ETH", Number: 2, Time: 1028, Difficulty: big.NewInt(110)},
		{Chain: "ETC", Number: 1, Time: 1050, Difficulty: big.NewInt(9)},
		{Chain: "ETH", Number: 3, Time: 90_000, Difficulty: big.NewInt(120)},
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
