// Package export persists ledgers to CSV — the equivalent of the paper's
// §3.1 pipeline, which dumped every block and transaction from its two
// full nodes into a database and ran the analysis offline. cmd/forksim
// exports simulated ledgers; cmd/forkanalyze reloads exports and re-runs
// the full figure pipeline without re-simulating.
package export

import (
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"forkwatch/internal/chain"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// BlockRow is one exported block record.
type BlockRow struct {
	Chain      string
	Number     uint64
	Hash       types.Hash
	Time       uint64
	Difficulty *big.Int
	Coinbase   types.Address
	TxCount    int
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

// WriteBlocks writes block rows as CSV. A row without a difficulty has no
// CSV form ReadBlocks would accept and is an error.
func WriteBlocks(w io.Writer, rows []BlockRow) error {
	buf := AppendBlockHeader(newWriteBuf())
	var err error
	for i := range rows {
		if rows[i].Difficulty == nil {
			return fmt.Errorf("export: block row %d (%s block %d) has no difficulty", i, rows[i].Chain, rows[i].Number)
		}
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

// appendBlockRows appends b's block row to blocks and one row per
// transaction to txs; a transaction's Contract flag comes from the receipt
// at its index, when receipts has one.
func appendBlockRows(blocks []BlockRow, txs []TxRow, name string, b *chain.Block, receipts []*chain.Receipt) ([]BlockRow, []TxRow) {
	blocks = append(blocks, BlockRow{
		Chain:      name,
		Number:     b.Number(),
		Hash:       b.Hash(),
		Time:       b.Header.Time,
		Difficulty: b.Header.Difficulty,
		Coinbase:   b.Header.Coinbase,
		TxCount:    len(b.Txs),
	})
	for i, tx := range b.Txs {
		row := TxRow{
			Chain:       name,
			BlockNumber: b.Number(),
			BlockTime:   b.Header.Time,
			Hash:        tx.Hash(),
			From:        tx.From,
			Nonce:       tx.Nonce,
			ChainID:     tx.ChainID,
		}
		if i < len(receipts) {
			row.Contract = receipts[i].ContractCall
		}
		txs = append(txs, row)
	}
	return blocks, txs
}

// FromBlockchain extracts rows from a full ledger's canonical chain
// (blocks 1..head; genesis carries no transactions).
func FromBlockchain(name string, bc *chain.Blockchain) ([]BlockRow, []TxRow) {
	var blocks []BlockRow
	var txs []TxRow
	for _, b := range bc.CanonicalBlocks(1, bc.Head().Number()) {
		receipts, _, _ := bc.Receipts(b.Hash())
		blocks, txs = appendBlockRows(blocks, txs, name, b, receipts)
	}
	return blocks, txs
}

// Recorder is a sim.Observer that captures rows during a simulation run,
// in either ledger mode. The zero value is ready to use; Reserve spares a
// long run the regrowth of its row slices.
//
// Each captured row's Difficulty points into a slab the recorder owns:
// big.Int headers and their words are carved from chunks allocated a few
// thousand blocks at a time, so recording costs no allocation per block.
// A chunk lives as long as any row pointing into it; rows are free to be
// copied, sorted and retained past the recorder, but a Difficulty is the
// row's own value, not scratch — mutating one in place may reallocate it
// (its words have no spare capacity) and never touches a neighbour.
type Recorder struct {
	Blocks []BlockRow
	Txs    []TxRow
	Days   []DayRow

	ints  []big.Int  // unused headers of the current chunk
	words []big.Word // unused words of the current chunk
}

// slabChunk is how many difficulty headers (and words) one slab chunk
// holds: 2 allocations per 4096 blocks.
const slabChunk = 4096

// Reserve makes room for the given number of further block and
// transaction rows. It is a capacity hint: recording more than reserved
// still works, by the usual slice growth.
func (rec *Recorder) Reserve(blocks, txs int) {
	rec.Blocks = slices.Grow(rec.Blocks, blocks)
	rec.Txs = slices.Grow(rec.Txs, txs)
}

// copyDifficulty copies v into the slab and returns the copy (nil for
// nil). The event that carried v is pooled and its difficulty buffer is
// recycled at the day barrier, so a retaining observer must copy it.
func (rec *Recorder) copyDifficulty(v *big.Int) *big.Int {
	if v == nil {
		return nil
	}
	src := v.Bits()
	if len(rec.ints) == 0 {
		rec.ints = make([]big.Int, slabChunk)
	}
	if len(rec.words) < len(src) {
		rec.words = make([]big.Word, max(slabChunk, len(src)))
	}
	n := copy(rec.words, src)
	d := &rec.ints[0]
	// The three-index slice caps the copy at its own words.
	d.SetBits(rec.words[:n:n])
	if v.Sign() < 0 {
		d.Neg(d)
	}
	rec.ints, rec.words = rec.ints[1:], rec.words[n:]
	return d
}

// OnBlock implements sim.Observer. Events carry no block hash, so Hash
// stays zero; a tx row's ChainID is a 0/1 chain-bound marker (the exact id
// is a per-chain constant).
func (rec *Recorder) OnBlock(ev *sim.BlockEvent) {
	rec.Blocks = append(rec.Blocks, BlockRow{
		Chain:      ev.Chain,
		Number:     ev.Number,
		Time:       ev.Time,
		Difficulty: rec.copyDifficulty(ev.Difficulty),
		Coinbase:   ev.Coinbase,
		TxCount:    len(ev.Txs),
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

// Replay feeds exported rows back through a sim.Observer (typically the
// analysis collector), reconstructing block events in time order. Day
// indices derive from epoch and dayLength. Per-chain deltas are recomputed
// from consecutive block times.
func Replay(blocks []BlockRow, txs []TxRow, epoch uint64, dayLength uint64, obs sim.Observer) {
	// Interleave by mining time: echo detection is first-seen ordering
	// across chains, so replay must present blocks globally in time
	// order, exactly as the live simulation did.
	sort.SliceStable(blocks, func(i, j int) bool {
		if blocks[i].Time != blocks[j].Time {
			return blocks[i].Time < blocks[j].Time
		}
		if blocks[i].Chain != blocks[j].Chain {
			return blocks[i].Chain < blocks[j].Chain
		}
		return blocks[i].Number < blocks[j].Number
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
	for _, b := range blocks {
		prev, ok := lastTime[b.Chain]
		if !ok {
			prev = epoch
		}
		lastTime[b.Chain] = b.Time
		ev := &sim.BlockEvent{
			Chain:      b.Chain,
			Day:        int((b.Time - epoch) / dayLength),
			Number:     b.Number,
			Time:       b.Time,
			Delta:      b.Time - prev,
			Difficulty: b.Difficulty,
			Coinbase:   b.Coinbase,
		}
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
// included — from a pure export.
func ReplayAll(blocks []BlockRow, txs []TxRow, days []DayRow, epoch, dayLength uint64, obs sim.Observer) {
	Replay(blocks, txs, epoch, dayLength, obs)

	// Chain order: the day table's partition order when present, with any
	// chains appearing only in the block table appended first-seen.
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

	// Last difficulty per (chain, day), carried forward over empty days.
	lastDiff := map[string]map[int]*big.Int{}
	carry := map[string]*big.Int{}
	for _, c := range chains {
		lastDiff[c] = map[int]*big.Int{}
		carry[c] = new(big.Int)
	}
	maxDay := 0
	for _, b := range blocks {
		if b.Time < epoch {
			continue
		}
		d := int((b.Time - epoch) / dayLength)
		lastDiff[b.Chain][d] = b.Difficulty
		if d > maxDay {
			maxDay = d
		}
	}
	diffAt := func(chain string, d int) *big.Int {
		if v, ok := lastDiff[chain][d]; ok {
			carry[chain] = v
		}
		return carry[chain]
	}
	dayRow := make(map[int]DayRow, len(days))
	for _, r := range days {
		dayRow[r.Day] = r
		if r.Day > maxDay {
			maxDay = r.Day
		}
	}
	for d := 0; d <= maxDay; d++ {
		r := dayRow[d]
		ev := &sim.DayEvent{Day: d, Partitions: make([]sim.PartitionDay, len(chains))}
		for i, c := range chains {
			usd, hashrate := r.Value(c)
			ev.Partitions[i] = sim.PartitionDay{
				Name:       c,
				USD:        usd,
				Hashrate:   hashrate,
				Difficulty: diffAt(c, d),
			}
		}
		obs.OnDay(ev)
	}
}
