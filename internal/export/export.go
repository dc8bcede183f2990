// Package export persists ledgers to CSV — the equivalent of the paper's
// §3.1 pipeline, which dumped every block and transaction from its two
// full nodes into a database and ran the analysis offline. cmd/forksim
// exports simulated ledgers; cmd/forkanalyze reloads exports and re-runs
// the full figure pipeline without re-simulating.
package export

import (
	"cmp"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"slices"

	"forkwatch/internal/chain"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// BlockRow is one exported block record, 64 bytes: a nine-month export
// retains millions. Its difficulty is a 64-bit value; a wider one is
// refused where it enters (Recorder.Err, FromBlockchain, ReadBlocks),
// never truncated. It has no hash: simulation events carry none, so the
// table's hash column is always the zero hash.
type BlockRow struct {
	Chain      string
	Number     uint64
	Time       uint64
	Difficulty uint64
	Coinbase   types.Address
	TxCount    uint32
}

// TxRow is one exported transaction record.
type TxRow struct {
	Chain       string
	BlockNumber uint64
	BlockTime   uint64
	Hash        types.Hash
	From        types.Address
	Nonce       uint64
	ChainID     uint64
	Contract    bool
}

// writeBufSize is how much encoded table the writers gather before handing
// it to the io.Writer: large enough that a 170 MB table is a few hundred
// writes, small enough to stay cache-resident between the encoder and the
// copy into the kernel.
const writeBufSize = 256 << 10

// newWriteBuf returns the one buffer a table writer reuses for every row;
// the slack keeps the row that crosses writeBufSize from growing it.
func newWriteBuf() []byte { return make([]byte, 0, writeBufSize+1024) }

// spill writes buf to w once it holds at least threshold bytes and returns
// the buffer to keep appending to.
func spill(w io.Writer, buf []byte, threshold int) ([]byte, error) {
	if len(buf) < threshold {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// WriteBlocks writes block rows as CSV.
func WriteBlocks(w io.Writer, rows []BlockRow) error {
	buf := AppendBlockHeader(newWriteBuf())
	var err error
	for i := range rows {
		buf = AppendBlockRow(buf, rows[i])
		if buf, err = spill(w, buf, writeBufSize); err != nil {
			return err
		}
	}
	_, err = spill(w, buf, 1)
	return err
}

// WriteTxs writes transaction rows as CSV.
func WriteTxs(w io.Writer, rows []TxRow) error {
	buf := AppendTxHeader(newWriteBuf())
	var err error
	for i := range rows {
		buf = AppendTxRow(buf, rows[i])
		if buf, err = spill(w, buf, writeBufSize); err != nil {
			return err
		}
	}
	_, err = spill(w, buf, 1)
	return err
}

// difficulty64 returns a block's difficulty as a row holds it, or an error
// naming the block when it has no 64-bit unsigned form.
func difficulty64(chain string, number uint64, d *big.Int) (uint64, error) {
	if d == nil || !d.IsUint64() {
		return 0, fmt.Errorf("export: %s block %d: difficulty %v does not fit 64 bits", chain, number, d)
	}
	return d.Uint64(), nil
}

// FromBlockchain extracts rows from a full ledger's canonical chain
// (blocks 1..head; genesis carries no transactions). A transaction row
// classifies its transaction as the engine's events do (sim.TxInfoOf). A
// block whose difficulty does not fit 64 bits is an error.
func FromBlockchain(name string, bc *chain.Blockchain) ([]BlockRow, []TxRow, error) {
	var blocks []BlockRow
	var txs []TxRow
	for _, b := range bc.CanonicalBlocks(1, bc.Head().Number()) {
		diff, err := difficulty64(name, b.Number(), b.Header.Difficulty)
		if err != nil {
			return nil, nil, err
		}
		blocks = append(blocks, BlockRow{
			Chain:      name,
			Number:     b.Number(),
			Time:       b.Header.Time,
			Difficulty: diff,
			Coinbase:   b.Header.Coinbase,
			TxCount:    uint32(len(b.Txs)),
		})
		for _, tx := range b.Txs {
			info := sim.TxInfoOf(tx)
			txs = append(txs, TxRow{
				Chain:       name,
				BlockNumber: b.Number(),
				BlockTime:   b.Header.Time,
				Hash:        info.Hash,
				From:        info.From,
				Nonce:       tx.Nonce,
				ChainID:     tx.ChainID,
				Contract:    info.Contract,
			})
		}
	}
	return blocks, txs, nil
}

// Recorder is a sim.Observer that captures rows during a simulation run,
// in either ledger mode. The zero value is ready to use; Reserve spares a
// long run the regrowth of its row slices. A row copies everything it
// keeps out of the pooled event, so recording a block allocates nothing
// once the rows have room.
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

// OnBlock implements sim.Observer. Events carry no block hash, so the
// table's hash column stays zero; a tx row's ChainID is a 0/1 chain-bound
// marker (the exact id is a per-chain constant).
func (rec *Recorder) OnBlock(ev *sim.BlockEvent) {
	diff, err := difficulty64(ev.Chain, ev.Number, ev.Difficulty)
	if err != nil {
		if rec.err == nil {
			rec.err = err
		}
		return
	}
	rec.Blocks = append(rec.Blocks, BlockRow{
		Chain:      ev.Chain,
		Number:     ev.Number,
		Time:       ev.Time,
		Difficulty: diff,
		Coinbase:   ev.Coinbase,
		TxCount:    uint32(len(ev.Txs)),
	})
	for i := range ev.Txs {
		tx := &ev.Txs[i]
		row := TxRow{
			Chain:       ev.Chain,
			BlockNumber: ev.Number,
			BlockTime:   ev.Time,
			Hash:        tx.Hash,
			From:        tx.From,
			Contract:    tx.Contract,
		}
		if tx.ChainBound {
			row.ChainID = 1
		}
		rec.Txs = append(rec.Txs, row)
	}
}

// OnDay implements sim.Observer.
func (rec *Recorder) OnDay(ev *sim.DayEvent) {
	row := DayRow{
		Day:      ev.Day,
		Chains:   make([]string, len(ev.Partitions)),
		USD:      make([]float64, len(ev.Partitions)),
		Hashrate: make([]float64, len(ev.Partitions)),
	}
	for i, pd := range ev.Partitions {
		row.Chains[i] = pd.Name
		row.USD[i] = pd.USD
		row.Hashrate[i] = pd.Hashrate
	}
	rec.Days = append(rec.Days, row)
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

// Value returns the row's (usd, hashrate) for a chain; zeros if absent.
func (r DayRow) Value(chain string) (usd, hashrate float64) {
	for i, c := range r.Chains {
		if c == chain {
			return r.USD[i], r.Hashrate[i]
		}
	}
	return 0, 0
}

// WriteDays writes day rows as CSV. All rows must share one chain list
// (one simulation's partitions).
func WriteDays(w io.Writer, rows []DayRow) error {
	var chains []string
	if len(rows) > 0 {
		chains = rows[0].Chains
	}
	buf := AppendDayHeader(newWriteBuf(), chains)
	var err error
	for i, r := range rows {
		if len(r.Chains) != len(chains) || len(r.USD) != len(chains) || len(r.Hashrate) != len(chains) {
			return fmt.Errorf("export: day row %d has %d chains, want %d", i, len(r.Chains), len(chains))
		}
		buf = AppendDayRow(buf, r)
		if buf, err = spill(w, buf, writeBufSize); err != nil {
			return err
		}
	}
	_, err = spill(w, buf, 1)
	return err
}

// WriteTables writes the three ledger tables — blocks.csv, txs.csv and
// days.csv — into dir, creating it if needed. A table counts as written
// only once its file has closed without error.
func WriteTables(dir string, blocks []BlockRow, txs []TxRow, days []DayRow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"blocks.csv", func(w io.Writer) error { return WriteBlocks(w, blocks) }},
		{"txs.csv", func(w io.Writer) error { return WriteTxs(w, txs) }},
		{"days.csv", func(w io.Writer) error { return WriteDays(w, days) }},
	} {
		f, err := os.Create(filepath.Join(dir, t.name))
		if err != nil {
			return err
		}
		if err := t.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ChainOrder returns the chains of an export in partition order: the day
// table's column order when there is one (that is the engine's partition
// order), then any chain only the block table names, in the order the
// table first names it.
func ChainOrder(blocks []BlockRow, days []DayRow) []string {
	var chains []string
	seen := map[string]bool{}
	if len(days) > 0 {
		for _, c := range days[0].Chains {
			chains = append(chains, c)
			seen[c] = true
		}
	}
	for _, b := range blocks {
		if !seen[b.Chain] {
			seen[b.Chain] = true
			chains = append(chains, b.Chain)
		}
	}
	return chains
}

// dayOf is the day index of a block mined at t, as the engine numbers it.
func dayOf(t, epoch, dayLength uint64) int { return int((t - epoch) / dayLength) }

// Replay feeds exported rows back through a sim.Observer (typically the
// analysis collector) in the engine's delivery order: it sorts blocks in
// place by day, then by partition (ChainOrder of the block table alone),
// then by number. That is the order every table forksim writes is already
// in, and the order echo detection — first-seen across chains — needs to
// attribute each echo as the run did. Day indices derive from epoch and
// dayLength. Per-chain deltas are recomputed from consecutive block
// times. Like the engine, Replay pools its event: one BlockEvent, with its
// Difficulty and Txs backing, carries every block, so an observer must
// copy what it keeps past OnBlock.
func Replay(blocks []BlockRow, txs []TxRow, epoch uint64, dayLength uint64, obs sim.Observer) {
	replay(blocks, txs, ChainOrder(blocks, nil), epoch, dayLength, obs)
}

// replay is Replay with the partition order given.
func replay(blocks []BlockRow, txs []TxRow, chains []string, epoch, dayLength uint64, obs sim.Observer) {
	rank := make(map[string]int, len(chains))
	for i, c := range chains {
		rank[c] = i
	}
	slices.SortStableFunc(blocks, func(a, b BlockRow) int {
		return cmp.Or(
			cmp.Compare(dayOf(a.Time, epoch, dayLength), dayOf(b.Time, epoch, dayLength)),
			cmp.Compare(rank[a.Chain], rank[b.Chain]),
			cmp.Compare(a.Number, b.Number))
	})
	type blockKey struct {
		chain string
		n     uint64
	}
	txByBlock := make(map[blockKey][]TxRow)
	for _, t := range txs {
		key := blockKey{t.Chain, t.BlockNumber}
		txByBlock[key] = append(txByBlock[key], t)
	}
	lastTime := map[string]uint64{}
	var diff big.Int
	ev := &sim.BlockEvent{Difficulty: &diff}
	for _, b := range blocks {
		prev, ok := lastTime[b.Chain]
		if !ok {
			prev = epoch
		}
		lastTime[b.Chain] = b.Time
		ev.Chain = b.Chain
		ev.Day = dayOf(b.Time, epoch, dayLength)
		ev.Number = b.Number
		ev.Time = b.Time
		ev.Delta = b.Time - prev
		diff.SetUint64(b.Difficulty)
		ev.Coinbase = b.Coinbase
		ev.Txs = ev.Txs[:0]
		for _, t := range txByBlock[blockKey{b.Chain, b.Number}] {
			ev.Txs = append(ev.Txs, sim.TxInfo{
				Hash:       t.Hash,
				From:       t.From,
				Contract:   t.Contract,
				ChainBound: t.ChainID != 0,
			})
		}
		obs.OnBlock(ev)
	}
}

// ReplayAll replays block/tx rows and then synthesises the per-day events
// (prices from the day table; difficulty from each chain's last block of
// the day), so an analysis collector reconstructs every figure — Fig 3
// included — from a pure export. Partition order is ChainOrder of both
// tables: the blocks replay in delivery order under it, as Replay's do,
// and the day events list the partitions in it.
func ReplayAll(blocks []BlockRow, txs []TxRow, days []DayRow, epoch, dayLength uint64, obs sim.Observer) {
	chains := ChainOrder(blocks, days)
	replay(blocks, txs, chains, epoch, dayLength, obs)

	// Last difficulty per (chain, day); blocks are in delivery order now.
	lastDiff := make(map[string]map[int]uint64, len(chains))
	for _, c := range chains {
		lastDiff[c] = map[int]uint64{}
	}
	maxDay := 0
	for _, b := range blocks {
		if b.Time < epoch {
			continue
		}
		d := dayOf(b.Time, epoch, dayLength)
		lastDiff[b.Chain][d] = b.Difficulty
		maxDay = max(maxDay, d)
	}
	dayRow := make(map[int]DayRow, len(days))
	for _, r := range days {
		dayRow[r.Day] = r
		maxDay = max(maxDay, r.Day)
	}
	// A chain's difficulty carries forward over the days it mined nothing.
	carry := make(map[string]uint64, len(chains))
	for d := 0; d <= maxDay; d++ {
		r := dayRow[d]
		ev := &sim.DayEvent{Day: d, Partitions: make([]sim.PartitionDay, len(chains))}
		for i, c := range chains {
			if v, ok := lastDiff[c][d]; ok {
				carry[c] = v
			}
			usd, hashrate := r.Value(c)
			ev.Partitions[i] = sim.PartitionDay{
				Name:       c,
				USD:        usd,
				Hashrate:   hashrate,
				Difficulty: new(big.Int).SetUint64(carry[c]),
			}
		}
		obs.OnDay(ev)
	}
}
