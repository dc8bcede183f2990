// Package export persists ledgers to CSV — the equivalent of the paper's
// §3.1 pipeline, which dumped every block and transaction from its two
// full nodes into a database and ran the analysis offline. The tables are
// a stream in the engine's delivery order: Tables writes each row as its
// event arrives (cmd/forksim -out), ReplayTables reads the three tables
// back in lockstep and re-delivers the run's events (cmd/forkanalyze), and
// ReplayChains delivers a reopened archive's chains the same way.
package export

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// BlockRow is one exported block record, 64 bytes. Its difficulty is a
// 64-bit value; a wider one is refused where it enters a table, never
// truncated. It has no hash: simulation events carry none, so the table's
// hash column is always the zero hash.
type BlockRow struct {
	Chain      string
	Number     uint64
	Time       uint64
	Difficulty uint64
	Coinbase   types.Address
	TxCount    uint32
}

// TxRow is one exported transaction record. Events carry no nonce, so the
// table's nonce column is always 0, and its chainid column is a 0/1
// chain-bound marker (the exact id is a per-chain constant).
type TxRow struct {
	Chain       string
	BlockNumber uint64
	BlockTime   uint64
	Hash        types.Hash
	From        types.Address
	Contract    bool
	ChainBound  bool
}

// DayRow is one exported day record (prices and hashrates — the
// "coinmarketcap join" of the paper's pipeline): parallel slices in
// partition order.
type DayRow struct {
	Day      int
	Chains   []string
	USD      []float64
	Hashrate []float64
}

// blockRow is the row of a block event, or an error naming the block when
// its difficulty has no 64-bit unsigned form.
func blockRow(ev *sim.BlockEvent) (BlockRow, error) {
	d := ev.Difficulty
	if d == nil || !d.IsUint64() {
		return BlockRow{}, fmt.Errorf("export: %s block %d: difficulty %v does not fit 64 bits", ev.Chain, ev.Number, d)
	}
	return BlockRow{
		Chain:      ev.Chain,
		Number:     ev.Number,
		Time:       ev.Time,
		Difficulty: d.Uint64(),
		Coinbase:   ev.Coinbase,
		TxCount:    uint32(len(ev.Txs)),
	}, nil
}

// txRow is the row of one of a block event's transactions.
func txRow(ev *sim.BlockEvent, tx *sim.TxInfo) TxRow {
	return TxRow{
		Chain:       ev.Chain,
		BlockNumber: ev.Number,
		BlockTime:   ev.Time,
		Hash:        tx.Hash,
		From:        tx.From,
		Contract:    tx.Contract,
		ChainBound:  tx.ChainBound,
	}
}

// dayRow is the row of a day event.
func dayRow(ev *sim.DayEvent) DayRow {
	r := DayRow{Day: ev.Day}
	for _, pd := range ev.Partitions {
		r.Chains = append(r.Chains, pd.Name)
		r.USD = append(r.USD, pd.USD)
		r.Hashrate = append(r.Hashrate, pd.Hashrate)
	}
	return r
}

// Recorder is a sim.Observer that retains a run's rows in memory: what
// RunRecorded returns, and the reference the streamed tables are tested
// against. The zero value is ready to use; Reserve spares a long run the
// regrowth of its row slices, so recording a block allocates nothing.
//
// A block whose difficulty does not fit 64 bits is not recorded: the first
// such block is reported by Err, which a caller checks after the run.
type Recorder struct {
	Blocks []BlockRow
	Txs    []TxRow
	Days   []DayRow

	err error
}

// Reserve makes room for the given number of further block and
// transaction rows. It is a capacity hint: recording more than reserved
// still works, by the usual slice growth.
func (rec *Recorder) Reserve(blocks, txs int) {
	rec.Blocks = slices.Grow(rec.Blocks, blocks)
	rec.Txs = slices.Grow(rec.Txs, txs)
}

// Err returns the first block the recorder refused, or nil.
func (rec *Recorder) Err() error { return rec.err }

// OnBlock implements sim.Observer.
func (rec *Recorder) OnBlock(ev *sim.BlockEvent) {
	row, err := blockRow(ev)
	if err != nil {
		if rec.err == nil {
			rec.err = err
		}
		return
	}
	rec.Blocks = append(rec.Blocks, row)
	for i := range ev.Txs {
		rec.Txs = append(rec.Txs, txRow(ev, &ev.Txs[i]))
	}
}

// OnDay implements sim.Observer.
func (rec *Recorder) OnDay(ev *sim.DayEvent) { rec.Days = append(rec.Days, dayRow(ev)) }

// writeBufSize is how much encoded table a table gathers before handing
// it to its io.Writer: a 170 MB table is a few hundred writes, and the
// buffer stays cache-resident between the encoder and the kernel copy.
const writeBufSize = 256 << 10

// table is the one row appender of every table writer: rows are encoded
// into buf, which reaches w writeBufSize at a time (the slack keeps the
// row that crosses writeBufSize from growing it).
type table struct {
	w   io.Writer
	buf []byte
}

func newTable(w io.Writer) table {
	return table{w: w, buf: make([]byte, 0, writeBufSize+1024)}
}

// spill writes the gathered rows once they fill the buffer.
func (t *table) spill() error {
	if len(t.buf) < writeBufSize {
		return nil
	}
	return t.flush()
}

func (t *table) flush() error {
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// writeRows writes a header and then each row through one table.
func writeRows[R any](w io.Writer, header func([]byte) []byte, rows []R, appendRow func([]byte, R) []byte) error {
	t := newTable(w)
	t.buf = header(t.buf)
	for _, r := range rows {
		t.buf = appendRow(t.buf, r)
		if err := t.spill(); err != nil {
			return err
		}
	}
	return t.flush()
}

// WriteBlocks writes block rows as CSV.
func WriteBlocks(w io.Writer, rows []BlockRow) error {
	return writeRows(w, AppendBlockHeader, rows, AppendBlockRow)
}

// WriteTxs writes transaction rows as CSV.
func WriteTxs(w io.Writer, rows []TxRow) error {
	return writeRows(w, AppendTxHeader, rows, AppendTxRow)
}

// WriteDays writes day rows as CSV. All rows must share one chain list
// (one simulation's partitions); otherwise nothing is written.
func WriteDays(w io.Writer, rows []DayRow) error {
	var chains []string
	if len(rows) > 0 {
		chains = rows[0].Chains
	}
	for _, r := range rows {
		if err := sameWidth(r, chains); err != nil {
			return err
		}
	}
	header := func(dst []byte) []byte { return AppendDayHeader(dst, chains) }
	return writeRows(w, header, rows, AppendDayRow)
}

// sameWidth checks that a day row has one column pair per chain.
func sameWidth(r DayRow, chains []string) error {
	if len(r.Chains) != len(chains) || len(r.USD) != len(chains) || len(r.Hashrate) != len(chains) {
		return fmt.Errorf("export: day %d has %d chains, want %d", r.Day, len(r.Chains), len(chains))
	}
	return nil
}

var tableNames = [3]string{"blocks.csv", "txs.csv", "days.csv"}

// Tables is a sim.Observer that writes a run's three ledger tables into a
// directory, appending each row as its event arrives, so it holds one
// buffer per table and no rows. The day table's columns are the first day
// event's partitions. A table is renamed from a temporary name to its
// final one only when Close finds every write clean, so a failed run
// leaves no table that reads as a shorter run. Close returns the first
// error, a block refused for a difficulty wider than 64 bits included;
// Abort drops the tables of a run that failed elsewhere.
type Tables struct {
	dir    string
	files  [3]*os.File
	tabs   [3]table // blocks, txs, days
	chains []string // the day table's columns, once its header is written
	err    error
}

// NewTables creates dir if needed and opens the three tables in it.
func NewTables(dir string) (*Tables, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &Tables{dir: dir}
	for i, name := range tableNames {
		f, err := os.Create(filepath.Join(dir, name+".tmp"))
		if err != nil {
			t.Abort()
			return nil, err
		}
		t.files[i] = f
	}
	for i, f := range t.files {
		t.tabs[i] = newTable(f)
	}
	t.tabs[0].buf = AppendBlockHeader(t.tabs[0].buf)
	t.tabs[1].buf = AppendTxHeader(t.tabs[1].buf) // the day table's waits for the first day
	return t, nil
}

func (t *Tables) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// OnBlock implements sim.Observer. After the first error it writes nothing.
func (t *Tables) OnBlock(ev *sim.BlockEvent) {
	if t.err != nil {
		return
	}
	row, err := blockRow(ev)
	if err != nil {
		t.fail(err)
		return
	}
	b, x := &t.tabs[0], &t.tabs[1]
	b.buf = AppendBlockRow(b.buf, row)
	t.fail(b.spill())
	for i := 0; i < len(ev.Txs) && t.err == nil; i++ {
		x.buf = AppendTxRow(x.buf, txRow(ev, &ev.Txs[i]))
		t.fail(x.spill())
	}
}

// OnDay implements sim.Observer.
func (t *Tables) OnDay(ev *sim.DayEvent) {
	if t.err != nil {
		return
	}
	row, d := dayRow(ev), &t.tabs[2]
	if t.chains == nil {
		t.chains = append([]string{}, row.Chains...)
		d.buf = AppendDayHeader(d.buf, t.chains)
	}
	if err := sameWidth(row, t.chains); err != nil {
		t.fail(err)
		return
	}
	d.buf = AppendDayRow(d.buf, row)
	t.fail(d.spill())
}

// Close flushes and closes the tables and, if every write was clean,
// gives them their final names; otherwise it removes them and returns
// the first error.
func (t *Tables) Close() error {
	if t.chains == nil { // no day event: the header alone
		t.tabs[2].buf = AppendDayHeader(t.tabs[2].buf, nil)
	}
	for i, f := range t.files {
		if t.err == nil {
			t.fail(t.tabs[i].flush())
		}
		t.fail(f.Close())
	}
	for i, f := range t.files {
		if t.err == nil {
			t.fail(os.Rename(f.Name(), filepath.Join(t.dir, tableNames[i])))
		}
	}
	if t.err != nil {
		t.Abort()
	}
	return t.err
}

// Abort removes the tables without publishing them; after Close there is
// nothing left to remove.
func (t *Tables) Abort() {
	for _, f := range t.files {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
}
