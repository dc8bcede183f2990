package export

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// runBoth runs sc with a Recorder and a Tables writing into dir, and
// returns the recorder.
func runBoth(t *testing.T, sc *sim.Scenario, dir string) *Recorder {
	t.Helper()
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rec := &Recorder{}
	tables, err := NewTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddObserver(rec)
	eng.AddObserver(tables)
	if err := eng.Run(); err != nil {
		tables.Abort()
		t.Fatal(err)
	}
	if err := tables.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTablesMatchRecorder: the streamed tables are byte for byte what the
// retained rows write, serial or parallel, fast or full ledger; and
// replaying them delivers the recorded rows back, row for row. Both
// comparisons stream, so a 90-day run holds the recorder's rows alone.
func TestTablesMatchRecorder(t *testing.T) {
	full := sim.NewScenario(7, 2)
	full.Mode = sim.ModeFull
	full.DayLength = 3600
	full.Users = 30
	full.ETHTxPerDay = 25
	full.ETCTxPerDay = 10
	cases := map[string]*sim.Scenario{"full-2d": full}
	for _, days := range []int{30, 90} {
		for _, par := range []int{1, 4} {
			sc := sim.NewScenario(1, days)
			sc.Parallelism = par
			cases[fmt.Sprintf("%dd-p%d", days, par)] = sc
		}
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			// Under -race a 90-day run takes tens of seconds and gigabytes
			// of shadow memory; the 30-day runs cover the same code.
			if sc.Days > 30 && (testing.Short() || raceEnabled) {
				t.Skip("long run")
			}
			dir := t.TempDir()
			rec := runBoth(t, sc, dir)
			open := func(name string) *os.File {
				f, err := os.Open(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.Close() })
				return f
			}
			for name, write := range map[string]func(io.Writer) error{
				"blocks.csv": func(w io.Writer) error { return WriteBlocks(w, rec.Blocks) },
				"txs.csv":    func(w io.Writer) error { return WriteTxs(w, rec.Txs) },
				"days.csv":   func(w io.Writer) error { return WriteDays(w, rec.Days) },
			} {
				streamed := &sameBytes{r: open(name)}
				if err := write(streamed); err != nil {
					t.Errorf("%s: %v", name, err)
				} else if n, _ := streamed.r.Read(make([]byte, 1)); n > 0 {
					t.Errorf("%s: the streamed table is longer than the recorder's", name)
				}
			}
			want := &rowCheck{t: t, want: rec}
			if err := ReplayTables(open("blocks.csv"), open("txs.csv"), open("days.csv"), sc.Epoch, sc.DayLength, want); err != nil {
				t.Fatal(err)
			}
			want.done()
		})
	}
}

// sameBytes is a writer that requires what it is written to equal what r
// holds next.
type sameBytes struct {
	r   io.Reader
	off int64
	buf []byte
}

func (s *sameBytes) Write(p []byte) (int, error) {
	if cap(s.buf) < len(p) {
		s.buf = make([]byte, len(p))
	}
	got := s.buf[:len(p)]
	if _, err := io.ReadFull(s.r, got); err != nil {
		return 0, fmt.Errorf("the streamed table ends inside the recorder's, after byte %d: %w", s.off, err)
	}
	if !bytes.Equal(got, p) {
		return 0, fmt.Errorf("the streamed table differs from the recorder's within bytes %d..%d", s.off, s.off+int64(len(p)))
	}
	s.off += int64(len(p))
	return len(p), nil
}

// rowCheck is an observer that requires the events it is delivered to
// carry want's rows, in order.
type rowCheck struct {
	t                 *testing.T
	want              *Recorder
	blocks, txs, days int
}

func (c *rowCheck) OnBlock(ev *sim.BlockEvent) {
	row, err := blockRow(ev)
	if err != nil || c.blocks >= len(c.want.Blocks) || row != c.want.Blocks[c.blocks] {
		c.t.Fatalf("block %d replayed as %+v (%v)", c.blocks, row, err)
	}
	c.blocks++
	for i := range ev.Txs {
		if x := txRow(ev, &ev.Txs[i]); c.txs >= len(c.want.Txs) || x != c.want.Txs[c.txs] {
			c.t.Fatalf("tx %d replayed as %+v", c.txs, x)
		}
		c.txs++
	}
}

func (c *rowCheck) OnDay(ev *sim.DayEvent) {
	row := dayRow(ev)
	if c.days >= len(c.want.Days) || !reflect.DeepEqual(row, c.want.Days[c.days]) {
		c.t.Fatalf("day %d replayed as %+v", c.days, row)
	}
	c.days++
}

// done requires every recorded row to have been delivered.
func (c *rowCheck) done() {
	if c.blocks != len(c.want.Blocks) || c.txs != len(c.want.Txs) || c.days != len(c.want.Days) {
		c.t.Errorf("replayed %d blocks, %d txs, %d days; recorded %d, %d, %d",
			c.blocks, c.txs, c.days, len(c.want.Blocks), len(c.want.Txs), len(c.want.Days))
	}
}

// TestTablesOnBlockAllocsZero: a warm Tables encodes a block and its
// transactions into its buffers without allocating.
func TestTablesOnBlockAllocsZero(t *testing.T) {
	skipUnderRace(t)
	tables, err := NewTables(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tables.Abort()
	ev := &sim.BlockEvent{Chain: "ETH", Number: 1, Time: 1_469_020_854,
		Difficulty: big.NewInt(62_413_376_722_602), Txs: make([]sim.TxInfo, 3)}
	if n := testing.AllocsPerRun(10_000, func() { tables.OnBlock(ev) }); n != 0 {
		t.Errorf("Tables.OnBlock allocates %.2f times per block, want 0", n)
	}
	if tables.err != nil {
		t.Fatal(tables.err)
	}
}

// syntheticExport streams an export of n blocks of two chains, one
// transaction each, without holding it: the tables are generated as they
// are read.
func syntheticExport(n int) (blocks, txs io.Reader) {
	gen := func(header []byte, row func(dst []byte, i int) []byte) io.Reader {
		pr, pw := io.Pipe()
		go func() {
			buf := header
			for i := 0; i < n; i++ {
				buf = row(buf, i)
				if len(buf) > 32<<10 {
					if _, err := pw.Write(buf); err != nil {
						return
					}
					buf = buf[:0]
				}
			}
			pw.Write(buf)
			pw.Close()
		}()
		return pr
	}
	// Each day delivers 1000 blocks of ETH, then 1000 of ETC.
	const perDay, epoch = 1000, 1000
	chains := [2]string{"ETH", "ETC"}
	at := func(i int) (string, uint64, uint64) {
		day, j := i/(2*perDay), i%(2*perDay)
		k := uint64(j % perDay)
		return chains[j/perDay], uint64(day*perDay) + k + 1, epoch + uint64(day)*86_400 + 14*(k+1)
	}
	blocks = gen(AppendBlockHeader(nil), func(dst []byte, i int) []byte {
		c, num, tm := at(i)
		return AppendBlockRow(dst, BlockRow{Chain: c, Number: num, Time: tm, Difficulty: uint64(i), TxCount: 1})
	})
	txs = gen(AppendTxHeader(nil), func(dst []byte, i int) []byte {
		c, num, tm := at(i)
		var h types.Hash
		h[0], h[1], h[2] = byte(i), byte(i>>8), byte(i>>16)
		return AppendTxRow(dst, TxRow{Chain: c, BlockNumber: num, BlockTime: tm, Hash: h})
	})
	return blocks, txs
}

// heapAtLast measures the live heap, after a collection, in its observer's
// last OnBlock.
type heapAtLast struct {
	left int
	heap uint64
}

func (h *heapAtLast) OnBlock(*sim.BlockEvent) {
	if h.left--; h.left == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.heap = ms.HeapAlloc
	}
}
func (h *heapAtLast) OnDay(*sim.DayEvent) {}

// TestReplayTablesHeapFlat: a replay holds one row of each table, so the
// live heap at its last block does not grow with the export.
func TestReplayTablesHeapFlat(t *testing.T) {
	heapAt := func(n int) uint64 {
		blocks, txs := syntheticExport(n)
		h := &heapAtLast{left: n}
		if err := ReplayTables(blocks, txs, nil, 1000, 86_400, h); err != nil {
			t.Fatal(err)
		}
		if h.left != 0 {
			t.Fatalf("replayed %d of %d blocks", n-h.left, n)
		}
		return h.heap
	}
	small, large := heapAt(20_000), heapAt(200_000)
	t.Logf("live heap at the last block: %d KB for 20k blocks, %d KB for 200k", small>>10, large>>10)
	if large > 2*small {
		t.Errorf("live heap %d KB at the last of 200k blocks, %d KB at the last of 20k: the replay retains rows", large>>10, small>>10)
	}
}

// FuzzReplayTables: whatever the three tables hold, a replay either
// delivers it or returns an error; it never panics or hangs.
func FuzzReplayTables(f *testing.F) {
	var bb, xb, db bytes.Buffer
	WriteBlocks(&bb, sampleBlocks())
	WriteTxs(&xb, sampleTxs())
	WriteDays(&db, []DayRow{{Day: 0, Chains: []string{"ETH"}, USD: []float64{12}, Hashrate: []float64{1e12}}})
	b, x, d := bb.Bytes(), xb.Bytes(), db.Bytes()
	f.Add(b, x, d, true)
	f.Add(b, x, d, false)
	f.Add(b, []byte{}, []byte("day\n65535\n"), true)
	f.Add([]byte("chain,number,hash,time,difficulty,coinbase,txcount\nETH,1,0x,99999999,1,0x,1\n"), x, d, true)
	f.Fuzz(func(t *testing.T, blocks, txs, days []byte, withDays bool) {
		var dr io.Reader
		if withDays {
			dr = bytes.NewReader(days)
		}
		ReplayTables(bytes.NewReader(blocks), bytes.NewReader(txs), dr, 1000, 86_400, &Recorder{})
	})
}
