package export

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math/big"
	"slices"
	"strconv"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// tableReader reads one CSV table a row at a time. The csv.Reader reuses
// its record, and the fields of one record share one allocation, so no
// string of a row may be kept past the next read.
type tableReader struct {
	cr     *csv.Reader
	table  string
	header []string
	rec    []string // the current row
	n      int      // its 1-based number
	err    error    // its first field error
}

// openTable reads a table's header, which must be want unless want is
// nil.
func openTable(r io.Reader, table string, want []string) (*tableReader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // next checks widths, naming the row
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("export: empty %s table", table)
	}
	if err == nil && want != nil && !slices.Equal(header, want) {
		err = fmt.Errorf("export: header %v, want %v", header, want)
	}
	if err != nil {
		return nil, err
	}
	return &tableReader{cr: cr, table: table, header: slices.Clone(header)}, nil
}

// next reads the next row; false at the end of the table.
func (t *tableReader) next() (bool, error) {
	rec, err := t.cr.Read()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	t.rec, t.err = rec, nil
	t.n++
	if len(rec) != len(t.header) {
		return false, fmt.Errorf("export: %s row %d has %d fields", t.table, t.n, len(rec))
	}
	return true, nil
}

// check keeps the current row's first field error, naming its column.
func (t *tableReader) check(i int, err error) {
	if err != nil && t.err == nil {
		t.err = fmt.Errorf("export: %s row %d %s: %w", t.table, t.n, t.header[i], err)
	}
}

func (t *tableReader) uint(i, bits int) uint64 {
	v, err := strconv.ParseUint(t.rec[i], 10, bits)
	t.check(i, err)
	return v
}

// block parses a block row. The hash column is not read (a BlockRow has
// no hash); a difficulty wider than 64 bits or a txcount outside uint32
// is an error. Chain is the record's own string.
func (t *tableReader) block() (BlockRow, error) {
	return BlockRow{
		Chain:      t.rec[0],
		Number:     t.uint(1, 64),
		Time:       t.uint(3, 64),
		Difficulty: t.uint(4, 64),
		Coinbase:   types.HexToAddress(t.rec[5]),
		TxCount:    uint32(t.uint(6, 32)),
	}, t.err
}

// tx parses a transaction row. The nonce column is not read (events carry
// no nonce); a non-zero chainid marks the transaction chain-bound. Chain
// is the record's own string.
func (t *tableReader) tx() (TxRow, error) {
	x := TxRow{
		Chain:       t.rec[0],
		BlockNumber: t.uint(1, 64),
		BlockTime:   t.uint(2, 64),
		Hash:        types.HexToHash(t.rec[3]),
		From:        types.HexToAddress(t.rec[4]),
		ChainBound:  t.uint(6, 64) != 0,
	}
	var err error
	x.Contract, err = strconv.ParseBool(t.rec[7])
	t.check(7, err)
	return x, t.err
}

// day parses a day row of a table over chains.
func (t *tableReader) day(chains []string) (DayRow, error) {
	day, err := strconv.Atoi(t.rec[0])
	t.check(0, err)
	vals := make([]float64, len(t.rec)-1)
	for j := range vals {
		vals[j], err = strconv.ParseFloat(t.rec[j+1], 64)
		t.check(j+1, err)
	}
	k := len(chains)
	return DayRow{Day: day, Chains: chains, USD: vals[:k], Hashrate: vals[k:]}, t.err
}

// dayHeaderChains recovers a day table's chain list from its header's
// <chain>usd / <chain>hashrate column pairs.
func dayHeaderChains(header []string) ([]string, error) {
	if len(header) < 1 || header[0] != "day" || len(header)%2 == 0 {
		return nil, fmt.Errorf("export: bad day header %v", header)
	}
	k := (len(header) - 1) / 2
	chains := make([]string, k)
	for i := range chains {
		u, h := header[1+i], header[1+k+i]
		name := strings.TrimSuffix(u, "usd")
		chains[i] = strings.ToUpper(name)
		if name == u || strings.TrimSuffix(h, "hashrate") != name || slices.Contains(chains[:i], chains[i]) {
			return nil, fmt.Errorf("export: bad day header %v: columns %q/%q", header, u, h)
		}
	}
	return chains, nil
}

// replay re-delivers a run's events in the engine's delivery order — day,
// then partition, then number. Like the engine, it pools its event: one
// BlockEvent, with its Difficulty and Txs backing, carries every block, so
// an observer must copy what it keeps past OnBlock.
type replay struct {
	epoch, dayLength uint64
	obs              sim.Observer
	ev               sim.BlockEvent
	diff             big.Int
	parts            []partition
	rank             map[string]int
	part             int // the last delivered block's partition; ev holds the rest

	// ReplayTables' day table: its chains, the last row read (not yet
	// delivered if ahead), and the first day whose event is still to come.
	days      *tableReader
	dayChains []string
	dayRow    DayRow
	ahead     bool
	nextDay   int
}

type partition struct {
	name     string
	lastTime uint64 // the last delivered block's time; the epoch before any
	diff     uint64 // the last delivered block's difficulty, carried by day events
}

func newReplay(epoch, dayLength uint64, obs sim.Observer) (*replay, error) {
	if dayLength == 0 {
		return nil, fmt.Errorf("export: day length is 0")
	}
	r := &replay{epoch: epoch, dayLength: dayLength, obs: obs, rank: map[string]int{}, dayRow: DayRow{Day: -1}}
	r.ev.Difficulty, r.ev.Day = &r.diff, -1 // before any block
	return r, nil
}

// partition returns a chain's place in the partition order, appending a
// chain not seen before under a copy of its name.
func (r *replay) partition(name string) int {
	if p, ok := r.rank[name]; ok {
		return p
	}
	name = strings.Clone(name)
	r.rank[name] = len(r.parts)
	r.parts = append(r.parts, partition{name: name, lastTime: r.epoch})
	return len(r.parts) - 1
}

// dayOf is the day index of a block mined at t, as the engine numbers it.
// A time before the epoch is an error, and so is one past the day (or
// hourly bucket) bound the live feed keeps: an observer keeps a bucket per
// day and per hour up to the latest one seen.
func (r *replay) dayOf(t uint64) (int, error) {
	if t < r.epoch {
		return 0, fmt.Errorf("time %d is before the epoch %d", t, r.epoch)
	}
	since := t - r.epoch
	if since/r.dayLength > feed.MaxDay || since/3600 >= 24*(feed.MaxDay+1) {
		return 0, fmt.Errorf("time %d is more than %d days past the epoch %d", t, feed.MaxDay, r.epoch)
	}
	return int(since / r.dayLength), nil
}

// block fills the pooled event with block n of partition p mined at t,
// checking that it follows the last delivered block in delivery order and
// its chain's previous block in time. The caller sets the difficulty,
// coinbase and transactions.
func (r *replay) block(p int, n, t uint64) (*sim.BlockEvent, error) {
	day, err := r.dayOf(t)
	if err != nil {
		return nil, err
	}
	ev, pt := &r.ev, &r.parts[p]
	if cmp.Or(cmp.Compare(day, ev.Day), cmp.Compare(p, r.part), cmp.Compare(n, ev.Number)) <= 0 {
		return nil, fmt.Errorf("out of delivery order: day %d after %s block %d on day %d", day, ev.Chain, ev.Number, ev.Day)
	}
	if t < pt.lastTime {
		return nil, fmt.Errorf("time %d is before its chain's previous block time %d", t, pt.lastTime)
	}
	r.part = p
	ev.Chain, ev.Day, ev.Number, ev.Time, ev.Delta = pt.name, day, n, t, t-pt.lastTime
	pt.lastTime = t
	return ev, nil
}

// ReplayTables reads an export's tables — blocks.csv, txs.csv and,
// optionally, days.csv (days may be nil) — in lockstep, holding one row
// of each, and delivers the run's events to obs in the engine's order:
// each block with its txcount transaction rows, and each day's
// synthesised DayEvent after that day's blocks.
//
// The partition order is the day table's, then any chain only the block
// table names, in the order it first names it. Days count from epoch in
// dayLength steps; a chain's first delta counts from the epoch. A day
// event carries the day table's prices and hashrates (zeros for a day it
// lacks) and each chain's last difficulty so far.
//
// What is not a run's stream is an error naming the row: a block out of
// (day, partition, number) order, before the epoch or, with a day table,
// past its last day; a tx row not of its block, or left over at the end.
// A zero dayLength is an error.
func ReplayTables(blocks, txs, days io.Reader, epoch, dayLength uint64, obs sim.Observer) error {
	r, err := newReplay(epoch, dayLength, obs)
	if err != nil {
		return err
	}
	br, err := openTable(blocks, "block", blockHeader)
	if err != nil {
		return err
	}
	tr, err := openTable(txs, "tx", txHeader)
	if err != nil {
		return err
	}
	if days != nil {
		if r.days, err = openTable(days, "day", nil); err == nil {
			r.dayChains, err = dayHeaderChains(r.days.header)
		}
		if err != nil {
			return err
		}
		for _, c := range r.dayChains {
			r.partition(c)
		}
		if err := r.readDay(); err != nil {
			return err
		}
	}
	for {
		ok, err := br.next()
		if !ok {
			if err != nil {
				return err
			}
			break
		}
		if err := r.deliver(br, tr); err != nil {
			return err
		}
	}
	if ok, err := tr.next(); ok || err != nil {
		if err == nil {
			err = fmt.Errorf("export: tx row %d follows the last block's transactions", tr.n)
		}
		return err
	}
	// The days through the last block's, then any the day table holds past it.
	if err := r.daysBefore(r.ev.Day + 1); err != nil {
		return err
	}
	for r.ahead {
		if err := r.daysBefore(r.dayRow.Day + 1); err != nil {
			return err
		}
	}
	return nil
}

// deliver delivers br's block row with its transactions, read from tr,
// after the events of the days before its own.
func (r *replay) deliver(br, tr *tableReader) error {
	b, err := br.block()
	if err != nil {
		return err
	}
	p := r.partition(b.Chain)
	name := r.parts[p].name
	ev, err := r.block(p, b.Number, b.Time)
	if err != nil {
		return fmt.Errorf("export: block row %d (%s block %d): %w", br.n, name, b.Number, err)
	}
	if err := r.daysBefore(ev.Day); err != nil {
		return err
	}
	if r.days != nil && !r.ahead {
		return fmt.Errorf("export: block row %d (%s block %d): on day %d, past the day table's last day %d", br.n, name, b.Number, ev.Day, r.dayRow.Day)
	}
	r.diff.SetUint64(b.Difficulty)
	r.parts[p].diff = b.Difficulty
	ev.Coinbase = b.Coinbase
	ev.Txs = ev.Txs[:0]
	for i := uint32(0); i < b.TxCount; i++ {
		ok, err := tr.next()
		if !ok {
			if err == nil {
				err = fmt.Errorf("export: the tx table ends at %d of block row %d's %d transactions", i, br.n, b.TxCount)
			}
			return err
		}
		x, err := tr.tx()
		if err != nil {
			return err
		}
		if x.Chain != name || x.BlockNumber != b.Number || x.BlockTime != b.Time {
			return fmt.Errorf("export: tx row %d (%s block %d at %d) does not belong to block row %d (%s block %d at %d)",
				tr.n, x.Chain, x.BlockNumber, x.BlockTime, br.n, name, b.Number, b.Time)
		}
		ev.Txs = append(ev.Txs, sim.TxInfo{Hash: x.Hash, From: x.From, Contract: x.Contract, ChainBound: x.ChainBound})
	}
	r.obs.OnBlock(ev)
	return nil
}

// daysBefore delivers the events of the days before day not yet
// delivered, each listing the partitions known so far.
func (r *replay) daysBefore(day int) error {
	for ; r.nextDay < day; r.nextDay++ {
		var row DayRow
		if r.ahead && r.dayRow.Day == r.nextDay {
			row = r.dayRow
			if err := r.readDay(); err != nil {
				return err
			}
		}
		ev := &sim.DayEvent{Day: r.nextDay, Partitions: make([]sim.PartitionDay, len(r.parts))}
		for i, p := range r.parts {
			ev.Partitions[i] = sim.PartitionDay{Name: p.name, Difficulty: new(big.Int).SetUint64(p.diff)}
			if i < len(row.USD) { // the day table's chains lead the partition order
				ev.Partitions[i].USD, ev.Partitions[i].Hashrate = row.USD[i], row.Hashrate[i]
			}
		}
		r.obs.OnDay(ev)
	}
	return nil
}

// readDay reads the day table's next row. Days rise strictly from 0 and
// stay within the feed's day bound.
func (r *replay) readDay() error {
	ok, err := r.days.next()
	if r.ahead = false; !ok {
		return err
	}
	row, err := r.days.day(r.dayChains)
	if err != nil {
		return err
	}
	if row.Day <= r.dayRow.Day || row.Day > feed.MaxDay {
		return fmt.Errorf("export: day row %d: day %d does not follow day %d within [0, %d]", r.days.n, row.Day, r.dayRow.Day, feed.MaxDay)
	}
	r.dayRow, r.ahead = row, true
	return nil
}

// ReplayChains delivers the canonical blocks 1..head of reopened chains to
// obs in the engine's delivery order — per day, then per chain in the
// order given (the partition order), then by number — through the same
// pooled event and per-chain deltas as ReplayTables. Transactions are
// classified as the engine classifies them (sim.TxInfoOf), and the
// difficulty is the header's, whatever its width. Chains hold no prices,
// so no day events are delivered. A block before the epoch or out of
// order, or a zero dayLength, is an error.
func ReplayChains(names []string, chains []*chain.Blockchain, epoch, dayLength uint64, obs sim.Observer) error {
	if len(names) != len(chains) {
		return fmt.Errorf("export: %d chain names for %d chains", len(names), len(chains))
	}
	r, err := newReplay(epoch, dayLength, obs)
	if err != nil {
		return err
	}
	next := make([]*chain.Block, len(chains)) // each chain's next block; nil past its head
	for i, bc := range chains {
		r.partition(names[i])
		next[i], _ = bc.BlockByNumber(1)
	}
	more := func(b *chain.Block) bool { return b != nil }
	for day := 0; slices.ContainsFunc(next, more); day++ {
		for i, bc := range chains {
			for b := next[i]; b != nil; b = next[i] {
				d, err := r.dayOf(b.Header.Time)
				if err == nil && d > day {
					break // a later day's
				}
				ev, err := r.block(r.rank[names[i]], b.Number(), b.Header.Time)
				if err != nil {
					return fmt.Errorf("export: %s block %d: %w", names[i], b.Number(), err)
				}
				r.diff.Set(b.Header.Difficulty)
				ev.Coinbase = b.Header.Coinbase
				ev.Txs = ev.Txs[:0]
				for _, tx := range b.Txs {
					ev.Txs = append(ev.Txs, sim.TxInfoOf(tx))
				}
				obs.OnBlock(ev)
				next[i], _ = bc.BlockByNumber(b.Number() + 1)
			}
		}
	}
	return nil
}
