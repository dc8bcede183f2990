package export

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// The []string row forms below were the production encoders until the
// append encoders replaced them; they stay here, fed through
// encoding/csv, as the model the append encoders must match byte for
// byte.

// EncodeBlockRow renders one block row as CSV fields.
func EncodeBlockRow(r BlockRow) []string {
	return []string{
		r.Chain,
		strconv.FormatUint(r.Number, 10),
		types.Hash{}.Hex(),
		strconv.FormatUint(r.Time, 10),
		strconv.FormatUint(r.Difficulty, 10),
		r.Coinbase.Hex(),
		strconv.FormatUint(uint64(r.TxCount), 10),
	}
}

// EncodeTxRow renders one transaction row as CSV fields.
func EncodeTxRow(r TxRow) []string {
	return []string{
		r.Chain,
		strconv.FormatUint(r.BlockNumber, 10),
		strconv.FormatUint(r.BlockTime, 10),
		r.Hash.Hex(),
		r.From.Hex(),
		"0",
		map[bool]string{false: "0", true: "1"}[r.ChainBound],
		strconv.FormatBool(r.Contract),
	}
}

// EncodeDayRow renders one day row as CSV fields.
func EncodeDayRow(r DayRow) []string {
	rec := []string{strconv.Itoa(r.Day)}
	for _, v := range r.USD {
		rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, v := range r.Hashrate {
		rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return rec
}

// modelCSV is encoding/csv over the given records.
func modelCSV(t testing.TB, records ...[]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.WriteAll(records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkwardChains are names that hit every branch of the quoting rule.
var awkwardChains = []string{
	"", "ETH", "ETC", "a,b", `say "hi"`, `"`, "line\nbreak", "cr\rhere", "\r\n",
	" leading", "\tleading", "trailing ", "\u00a0nbsp", "\u2003em", "\u0085nel", `\.`, `\.x`,
	"é", "\xff\xfe", "0x", "<nil>", ",", `""`,
}

func randChain(r *rand.Rand) string {
	if r.Intn(3) > 0 {
		return awkwardChains[r.Intn(len(awkwardChains))]
	}
	const alphabet = "AZaz09 ,\"\r\n\t\\.é\u2003"
	runes := []rune(alphabet)
	out := make([]rune, r.Intn(6))
	for i := range out {
		out[i] = runes[r.Intn(len(runes))]
	}
	return string(out)
}

func randUint(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return uint64(r.Intn(1000))
	}
	return r.Uint64()
}

// randDifficulty covers zero, the top bit alone, the largest value and
// every magnitude in between.
func randDifficulty(r *rand.Rand) uint64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1 << 63
	case 2:
		return math.MaxUint64
	}
	return r.Uint64() >> uint(r.Intn(64))
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.SmallestNonzeroFloat64
	case 4:
		return math.Float64frombits(uint64(r.Int63n(1 << 52))) // subnormal
	case 5:
		return math.Copysign(0, -1)
	case 6:
		return math.MaxFloat64
	case 7:
		return float64(r.Intn(100))
	}
	return math.Float64frombits(r.Uint64())
}

func randBlockRow(r *rand.Rand) BlockRow {
	row := BlockRow{
		Chain:      randChain(r),
		Number:     randUint(r),
		Time:       randUint(r),
		Difficulty: randDifficulty(r),
		TxCount:    uint32(randUint(r)),
	}
	r.Read(row.Coinbase[:])
	return row
}

func randTxRow(r *rand.Rand) TxRow {
	row := TxRow{
		Chain:       randChain(r),
		BlockNumber: randUint(r),
		BlockTime:   randUint(r),
		Contract:    r.Intn(2) == 0,
		ChainBound:  r.Intn(2) == 0,
	}
	r.Read(row.Hash[:])
	r.Read(row.From[:])
	return row
}

// TestAppendRowsMatchEncodingCSV is the differential test: each append
// encoder against encoding/csv over the []string model, row by row.
func TestAppendRowsMatchEncodingCSV(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 20_000; i++ {
		b := randBlockRow(r)
		if got, want := AppendBlockRow(nil, b), modelCSV(t, EncodeBlockRow(b)); !bytes.Equal(got, want) {
			t.Fatalf("block row %+v:\n got %q\nwant %q", b, got, want)
		}
		x := randTxRow(r)
		if got, want := AppendTxRow(nil, x), modelCSV(t, EncodeTxRow(x)); !bytes.Equal(got, want) {
			t.Fatalf("tx row %+v:\n got %q\nwant %q", x, got, want)
		}
		k := r.Intn(4)
		d := DayRow{Day: int(int64(randUint(r))), Chains: make([]string, k), USD: make([]float64, k), Hashrate: make([]float64, k)}
		for j := 0; j < k; j++ {
			d.Chains[j], d.USD[j], d.Hashrate[j] = randChain(r), randFloat(r), randFloat(r)
		}
		if got, want := AppendDayRow(nil, d), modelCSV(t, EncodeDayRow(d)); !bytes.Equal(got, want) {
			t.Fatalf("day row %+v:\n got %q\nwant %q", d, got, want)
		}
		if got, want := AppendDayHeader(nil, d.Chains), modelCSV(t, dayHeader(d.Chains)); !bytes.Equal(got, want) {
			t.Fatalf("day header %q:\n got %q\nwant %q", d.Chains, got, want)
		}
	}
	// Appending extends dst and leaves what it held alone.
	if got := AppendTxRow([]byte("keep"), TxRow{}); !bytes.HasPrefix(got, []byte("keep,0,0,0x")) {
		t.Errorf("AppendTxRow did not extend dst: %q", got)
	}
}

// TestWriteTablesMatchEncodingCSV checks the whole tables — header, rows
// and the joins between buffer spills — against the model. The tables are
// several buffers long.
func TestWriteTablesMatchEncodingCSV(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	blockRecs := [][]string{blockHeader}
	var blocks []BlockRow
	for i := 0; i < 8_000; i++ {
		b := randBlockRow(r)
		blocks = append(blocks, b)
		blockRecs = append(blockRecs, EncodeBlockRow(b))
	}
	txRecs := [][]string{txHeader}
	var txs []TxRow
	for i := 0; i < 8_000; i++ {
		x := randTxRow(r)
		txs = append(txs, x)
		txRecs = append(txRecs, EncodeTxRow(x))
	}
	chains := []string{"ETH", "a,b", " c"}
	dayRecs := [][]string{dayHeader(chains)}
	var days []DayRow
	for i := 0; i < 8_000; i++ {
		d := DayRow{Day: i, Chains: chains,
			USD:      []float64{randFloat(r), randFloat(r), randFloat(r)},
			Hashrate: []float64{randFloat(r), randFloat(r), randFloat(r)}}
		days = append(days, d)
		dayRecs = append(dayRecs, EncodeDayRow(d))
	}

	var got bytes.Buffer
	if err := WriteBlocks(&got, blocks); err != nil {
		t.Fatal(err)
	}
	if want := modelCSV(t, blockRecs...); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("block table differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
	}
	if got.Len() < 3*writeBufSize {
		t.Errorf("block table is %d bytes, too short to cross buffer spills", got.Len())
	}
	got.Reset()
	if err := WriteTxs(&got, txs); err != nil {
		t.Fatal(err)
	}
	if want := modelCSV(t, txRecs...); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tx table differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
	}
	got.Reset()
	if err := WriteDays(&got, days); err != nil {
		t.Fatal(err)
	}
	if want := modelCSV(t, dayRecs...); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("day table differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
	}

	// Empty tables are their headers.
	for name, tc := range map[string]struct {
		write func(io.Writer) error
		want  []byte
	}{
		"blocks": {func(w io.Writer) error { return WriteBlocks(w, nil) }, modelCSV(t, blockHeader)},
		"txs":    {func(w io.Writer) error { return WriteTxs(w, nil) }, modelCSV(t, txHeader)},
		"days":   {func(w io.Writer) error { return WriteDays(w, nil) }, modelCSV(t, dayHeader(nil))},
	} {
		got.Reset()
		if err := tc.write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), tc.want) {
			t.Errorf("empty %s table = %q, want %q", name, got.Bytes(), tc.want)
		}
	}
}

// FuzzAppendBlockRow holds AppendBlockRow to the encoding/csv model on
// arbitrary field values.
func FuzzAppendBlockRow(f *testing.F) {
	f.Add("ETH", uint64(1), uint64(1469020840), uint64(14_531), []byte{0xaa}, uint32(3))
	f.Add(`a,"b"`, uint64(math.MaxUint64), uint64(0), uint64(0), []byte{}, uint32(math.MaxUint32))
	f.Add(" x\n", uint64(0), uint64(9), uint64(1<<63), bytes.Repeat([]byte{0xff}, 30), uint32(0))
	f.Add(`\.`, uint64(7), uint64(7), uint64(math.MaxUint64), []byte{7}, uint32(7))
	f.Fuzz(func(t *testing.T, chain string, number, tm, diff uint64, coinbase []byte, txCount uint32) {
		row := BlockRow{
			Chain:      chain,
			Number:     number,
			Time:       tm,
			Difficulty: diff,
			Coinbase:   types.BytesToAddress(coinbase),
			TxCount:    txCount,
		}
		if got, want := AppendBlockRow(nil, row), modelCSV(t, EncodeBlockRow(row)); !bytes.Equal(got, want) {
			t.Fatalf("row %+v:\n got %q\nwant %q", row, got, want)
		}
	})
}

// skipUnderRace skips allocation-count assertions when the race detector
// is compiled in: its instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestWriteBlocksAllocsConstant: the block writer allocates its buffer and
// nothing per row, whatever the table's length.
func TestWriteBlocksAllocsConstant(t *testing.T) {
	skipUnderRace(t)
	rows := make([]BlockRow, 10_000)
	for i := range rows {
		rows[i] = BlockRow{Chain: "ETH", Number: uint64(i), Time: 1_469_020_840 + 14*uint64(i),
			Difficulty: 62_413_376_722_602 + uint64(i), TxCount: uint32(i % 7)}
	}
	write := func(rows []BlockRow) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteBlocks(io.Discard, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := write(rows[:100]), write(rows)
	if long != short || long > 2 {
		t.Errorf("WriteBlocks allocates %.0f times for 10k rows, %.0f for 100; want the same small constant", long, short)
	}
}

// TestRecorderReservedOnBlockAllocsZero: a row copies what it keeps out
// of the pooled event, so recording a block into reserved rows allocates
// nothing.
func TestRecorderReservedOnBlockAllocsZero(t *testing.T) {
	skipUnderRace(t)
	const runs = 1000
	ev := &sim.BlockEvent{Chain: "ETH", Difficulty: big.NewInt(62_413_376_722_602), Txs: make([]sim.TxInfo, 3)}
	rec := &Recorder{}
	rec.Reserve(runs+1, 3*(runs+1)) // AllocsPerRun adds one warm-up call
	if n := testing.AllocsPerRun(runs, func() { rec.OnBlock(ev) }); n != 0 {
		t.Errorf("a reserved Recorder allocates %.2f times per block, want 0", n)
	}
}

// TestBlockRowSize pins the row at 64 bytes: a nine-month export retains
// millions of them.
func TestBlockRowSize(t *testing.T) {
	if n := unsafe.Sizeof(BlockRow{}); n != 64 {
		t.Errorf("BlockRow is %d bytes, want 64", n)
	}
}

// TestRecorderReserve: rows recorded within the reservation land in the
// reserved arrays; recording past it still works.
func TestRecorderReserve(t *testing.T) {
	rec := &Recorder{}
	rec.Reserve(10, 20)
	blocks, txs := cap(rec.Blocks), cap(rec.Txs)
	if blocks < 10 || txs < 20 {
		t.Fatalf("Reserve(10, 20) left room for %d blocks, %d txs", blocks, txs)
	}
	ev := &sim.BlockEvent{Chain: "ETH", Difficulty: big.NewInt(1), Txs: make([]sim.TxInfo, 2)}
	for i := 0; i < 10; i++ {
		rec.OnBlock(ev)
	}
	if cap(rec.Blocks) != blocks || cap(rec.Txs) != txs {
		t.Errorf("recording within the reservation regrew the rows: caps %d/%d, were %d/%d", cap(rec.Blocks), cap(rec.Txs), blocks, txs)
	}
	for i := 0; i < 100; i++ {
		rec.OnBlock(ev)
	}
	if len(rec.Blocks) != 110 || len(rec.Txs) != 220 {
		t.Errorf("recorded %d blocks, %d txs past the reservation, want 110, 220", len(rec.Blocks), len(rec.Txs))
	}
}

// TestRecorderDifficultyOutlivesEvent: the engine recycles a delivered
// event and overwrites its difficulty in place; the recorded row keeps the
// value it saw.
func TestRecorderDifficultyOutlivesEvent(t *testing.T) {
	values := []uint64{62_413_376_722_602, 0, 1 << 63, math.MaxUint64, 131072}
	rec := &Recorder{}
	ev := &sim.BlockEvent{Chain: "ETH", Difficulty: new(big.Int)}
	for i, v := range values {
		ev.Number = uint64(i)
		ev.Difficulty.SetUint64(v)
		rec.OnBlock(ev)
		// What the engine does with the event once the observers return.
		ev.Difficulty.SetUint64(0xdead).Lsh(ev.Difficulty, 190)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if got := rec.Blocks[i].Difficulty; got != v {
			t.Errorf("row %d difficulty = %d, want %d", i, got, v)
		}
	}
}

// TestRecorderErrWideDifficulty: a difficulty with no 64-bit unsigned form
// is refused, not truncated: the block leaves no row, Err names the first
// such block, and later blocks still record.
func TestRecorderErrWideDifficulty(t *testing.T) {
	rec := &Recorder{}
	rec.OnBlock(&sim.BlockEvent{Chain: "ETH", Number: 1, Difficulty: big.NewInt(7)})
	wide := new(big.Int).Lsh(big.NewInt(1), 64) // 65 bits
	rec.OnBlock(&sim.BlockEvent{Chain: "ETC", Number: 2, Difficulty: wide, Txs: make([]sim.TxInfo, 2)})
	rec.OnBlock(&sim.BlockEvent{Chain: "ETH", Number: 3, Difficulty: big.NewInt(-1)})
	rec.OnBlock(&sim.BlockEvent{Chain: "ETH", Number: 4})
	rec.OnBlock(&sim.BlockEvent{Chain: "ETH", Number: 5, Difficulty: new(big.Int).SetUint64(math.MaxUint64)})
	err := rec.Err()
	if err == nil {
		t.Fatal("Err = nil after a 65-bit difficulty")
	}
	for _, want := range []string{"ETC", "block 2", "18446744073709551616"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Err %q does not mention %q", err, want)
		}
	}
	if len(rec.Blocks) != 2 || rec.Blocks[0].Number != 1 || rec.Blocks[1].Number != 5 || len(rec.Txs) != 0 {
		t.Errorf("recorded %+v and %d txs, want blocks 1 and 5 only", rec.Blocks, len(rec.Txs))
	}
}
