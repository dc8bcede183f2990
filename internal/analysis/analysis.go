// Package analysis computes the statistics behind every figure of the
// paper from a stream of simulation (or replayed ledger) events: block
// rates, difficulty and inter-block deltas (Fig 1/2), transaction volumes
// and contract fractions (Fig 2), hashes-per-USD (Fig 3), cross-chain
// rebroadcast "echoes" (Fig 4) and mining-pool concentration (Fig 5).
//
// It mirrors the paper's own pipeline: every block and transaction lands
// in per-hour and per-day buckets keyed by chain, and echoes are detected
// by joining the two ledgers on transaction hash with first-seen ordering,
// exactly as §3.3 describes.
package analysis

import (
	"forkwatch/internal/market"
	"forkwatch/internal/pool"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// HourBucket aggregates one chain-hour.
type HourBucket struct {
	Blocks   int
	SumDiff  float64
	SumDelta float64
}

// DayBucket aggregates one chain-day.
type DayBucket struct {
	Blocks      int
	Txs         int
	ContractTxs int
	// Echoes counts transactions first seen on the other chain.
	Echoes int
	// SameDayEchoes counts echoes mined on both chains the same day.
	SameDayEchoes int
	// ByPool attributes the day's blocks to coinbase addresses (Fig 5).
	ByPool map[types.Address]int
	// Price and difficulty snapshots from the day event.
	USD        float64
	Difficulty float64
	Hashrate   float64
}

type txSeen struct {
	chain string
	day   int
}

// RewardEther is the block reward behind every hashes-per-USD figure: the
// paper's pre-Byzantium 5 ether.
const RewardEther = 5

// chainSeries bundles one chain's bucket slices so the per-block hot path
// resolves the chain name once instead of once per bucket access.
type chainSeries struct {
	hourly []*HourBucket
	daily  []*DayBucket
}

// Collector implements sim.Observer and accumulates every figure's series.
type Collector struct {
	epoch  uint64
	series map[string]*chainSeries
	seen   map[types.Hash]txSeen
	days   int
	chains []string // the latest day event's partitions

	// A collector fed from an endless stream bounds the first-seen set:
	// past seenBound entries (0 = unbounded) the oldest is forgotten,
	// trading long-range echo detection for bounded memory. seenQ is the
	// eviction order and is only kept when there is a bound.
	seenBound int
	seenQ     []types.Hash
	evictions uint64
	onEcho    EchoFunc
}

// EchoFunc receives one hit of the first-seen join as it is counted: tx,
// mined in ev, was first seen on firstChain on firstDay.
type EchoFunc func(ev *sim.BlockEvent, tx *sim.TxInfo, firstChain string, firstDay int)

// NewCollector returns a collector for a run starting at the given epoch.
func NewCollector(epoch uint64) *Collector {
	return NewStreamCollector(epoch, 0, nil)
}

// NewStreamCollector is NewCollector for a consumer that follows a run as
// it happens (internal/live): the first-seen set holds at most seenBound
// hashes (0 = unbounded) and onEcho, when not nil, is called for every
// echo.
func NewStreamCollector(epoch uint64, seenBound int, onEcho EchoFunc) *Collector {
	return &Collector{
		epoch:     epoch,
		series:    map[string]*chainSeries{},
		seen:      map[types.Hash]txSeen{},
		seenBound: seenBound,
		onEcho:    onEcho,
	}
}

func (c *Collector) chain(chain string) *chainSeries {
	cs, ok := c.series[chain]
	if !ok {
		cs = &chainSeries{}
		c.series[chain] = cs
	}
	return cs
}

func (cs *chainSeries) hour(h int) *HourBucket {
	for len(cs.hourly) <= h {
		cs.hourly = append(cs.hourly, &HourBucket{})
	}
	return cs.hourly[h]
}

func (cs *chainSeries) day(d int) *DayBucket {
	for len(cs.daily) <= d {
		cs.daily = append(cs.daily, &DayBucket{ByPool: map[types.Address]int{}})
	}
	return cs.daily[d]
}

func (c *Collector) hourly(chain string) []*HourBucket {
	if cs, ok := c.series[chain]; ok {
		return cs.hourly
	}
	return nil
}

// Daily returns the chain's per-day buckets, indexed by day; the last one
// is the day still being filled. The buckets are the collector's own.
func (c *Collector) Daily(chain string) []*DayBucket {
	if cs, ok := c.series[chain]; ok {
		return cs.daily
	}
	return nil
}

// SeenSet reports the first-seen set's current size and how many entries
// the bound has evicted from it.
func (c *Collector) SeenSet() (size int, evictions uint64) {
	return len(c.seen), c.evictions
}

// OnBlock implements sim.Observer.
func (c *Collector) OnBlock(ev *sim.BlockEvent) {
	if ev.Time < c.epoch {
		return
	}
	cs := c.chain(ev.Chain)
	h := int((ev.Time - c.epoch) / 3600)
	hb := cs.hour(h)
	hb.Blocks++
	d := types.BigToFloat64(ev.Difficulty)
	hb.SumDiff += d
	hb.SumDelta += float64(ev.Delta)

	db := cs.day(ev.Day)
	db.Blocks++
	db.ByPool[ev.Coinbase]++
	for i := range ev.Txs {
		tx := &ev.Txs[i]
		db.Txs++
		if tx.Contract {
			db.ContractTxs++
		}
		if tx.ChainBound {
			// Replay-protected transactions cannot appear on another
			// chain (the binding is part of the hash), so they can
			// neither be echoes nor echo originals: skip the join.
			continue
		}
		if prev, ok := c.seen[tx.Hash]; ok && prev.chain != ev.Chain {
			db.Echoes++
			if prev.day == ev.Day {
				db.SameDayEchoes++
			}
			if c.onEcho != nil {
				c.onEcho(ev, tx, prev.chain, prev.day)
			}
		} else if !ok {
			c.seen[tx.Hash] = txSeen{chain: ev.Chain, day: ev.Day}
			if c.seenBound > 0 {
				c.seenQ = append(c.seenQ, tx.Hash)
				if len(c.seenQ) > c.seenBound {
					delete(c.seen, c.seenQ[0])
					c.seenQ = c.seenQ[1:]
					c.evictions++
				}
			}
		}
	}
}

// OnDay implements sim.Observer.
func (c *Collector) OnDay(ev *sim.DayEvent) {
	if ev.Day+1 > c.days {
		c.days = ev.Day + 1
	}
	c.chains = c.chains[:0]
	for _, pd := range ev.Partitions {
		c.chains = append(c.chains, pd.Name)
		b := c.chain(pd.Name).day(ev.Day)
		b.USD = pd.USD
		b.Hashrate = pd.Hashrate
		b.Difficulty = types.BigToFloat64(pd.Difficulty)
	}
}

// Chains returns the partitions of the latest day event, in partition
// order (nil before any); the next day event overwrites the slice.
func (c *Collector) Chains() []string { return c.chains }

// Days returns the number of observed days: day events when the collector
// was driven by a run or a replayed export, otherwise (e.g. a reopened
// archive's replay, which has no day events) the extent of the per-day
// block buckets.
func (c *Collector) Days() int {
	days := c.days
	for _, cs := range c.series {
		if len(cs.daily) > days {
			days = len(cs.daily)
		}
	}
	return days
}

// BlocksPerHour returns the Fig 1 (top) series for a chain.
func (c *Collector) BlocksPerHour(chain string) []float64 {
	out := make([]float64, len(c.hourly(chain)))
	for i, b := range c.hourly(chain) {
		out[i] = float64(b.Blocks)
	}
	return out
}

// hourlyMean divides each hour's sum by its block count; an hour without
// blocks carries the previous hour's mean.
func (c *Collector) hourlyMean(chain string, sum func(*HourBucket) float64) []float64 {
	out := make([]float64, len(c.hourly(chain)))
	prev := 0.0
	for i, b := range c.hourly(chain) {
		if b.Blocks > 0 {
			prev = sum(b) / float64(b.Blocks)
		}
		out[i] = prev
	}
	return out
}

// HourlyMeanDifficulty returns the Fig 1 (middle) series: the mean block
// difficulty per hour.
func (c *Collector) HourlyMeanDifficulty(chain string) []float64 {
	return c.hourlyMean(chain, func(b *HourBucket) float64 { return b.SumDiff })
}

// HourlyMeanDelta returns the Fig 1 (bottom) series: the mean inter-block
// time per hour in seconds.
func (c *Collector) HourlyMeanDelta(chain string) []float64 {
	return c.hourlyMean(chain, func(b *HourBucket) float64 { return b.SumDelta })
}

// The per-day statistics below are the one definition of each figure's
// value: the series accessors map them over a chain's days, the live
// snapshot reads them off the day it is on.

// PctContract is the percent of the day's transactions that were contract
// calls.
func (b *DayBucket) PctContract() float64 { return pct(b.ContractTxs, b.Txs) }

// EchoPct is the day's echoes as a percentage of its transactions.
func (b *DayBucket) EchoPct() float64 { return pct(b.Echoes, b.Txs) }

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// HashesPerUSD is the expected hashes to earn one USD on the day, from its
// difficulty, the block reward and the price (0 without a price).
func (b *DayBucket) HashesPerUSD(rewardEther float64) float64 {
	if b.USD <= 0 {
		return 0
	}
	return b.Difficulty / rewardEther / b.USD
}

// TopNShare is the fraction of the day's blocks mined by its n most
// productive pools.
func (b *DayBucket) TopNShare(n int) float64 { return pool.TopNFromCounts(b.ByPool, n) }

// PoolGini is the Gini coefficient of the day's block production across
// pools.
func (b *DayBucket) PoolGini() float64 {
	w := make([]float64, 0, len(b.ByPool))
	for _, n := range b.ByPool {
		w = append(w, float64(n))
	}
	return pool.GiniOf(w)
}

// perDay maps stat over the chain's day buckets; days past the chain's
// last bucket (up to Days()) are 0.
func (c *Collector) perDay(chain string, stat func(*DayBucket) float64) []float64 {
	out := make([]float64, c.Days())
	for i, b := range c.Daily(chain) {
		out[i] = stat(b)
	}
	return out
}

// DailyDifficulty returns the Fig 2 (top) series.
func (c *Collector) DailyDifficulty(chain string) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return b.Difficulty })
}

// DailyHashrate returns the chain's allocated hashrate per day, from the
// day events — the series behind the matrix sweep's share columns.
func (c *Collector) DailyHashrate(chain string) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return b.Hashrate })
}

// TxPerDay returns the Fig 2 (middle) series.
func (c *Collector) TxPerDay(chain string) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return float64(b.Txs) })
}

// PctContract returns the Fig 2 (bottom) series: percent of the day's
// transactions that were contract calls.
func (c *Collector) PctContract(chain string) []float64 {
	return c.perDay(chain, (*DayBucket).PctContract)
}

// HashesPerUSD returns the Fig 3 series for a chain: expected hashes to
// earn one USD, from the daily difficulty, reward and price.
func (c *Collector) HashesPerUSD(chain string, rewardEther float64) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return b.HashesPerUSD(rewardEther) })
}

// PayoffCorrelation returns the Pearson correlation of two chains'
// hashes-per-USD series — the headline of Fig 3, computed for the
// historical pair and for every ordered pair in N-way runs.
func (c *Collector) PayoffCorrelation(rewardEther float64, chainA, chainB string) float64 {
	return market.Correlation(
		c.HashesPerUSD(chainA, rewardEther),
		c.HashesPerUSD(chainB, rewardEther),
	)
}

// EchoesPerDay returns the Fig 4 (bottom) series for a chain: the number
// of that day's transactions first seen on the other chain.
func (c *Collector) EchoesPerDay(chain string) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return float64(b.Echoes) })
}

// EchoPct returns the Fig 4 (top) series: echoes as a percentage of the
// chain's daily transactions.
func (c *Collector) EchoPct(chain string) []float64 {
	return c.perDay(chain, (*DayBucket).EchoPct)
}

// SameDayEchoesPerDay returns the Fig 4 "Same time" series: echoes whose
// original and rebroadcast both mined within the same day.
func (c *Collector) SameDayEchoesPerDay(chain string) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return float64(b.SameDayEchoes) })
}

// TotalEchoes sums echo counts per chain direction: the value for chain
// "ETC" counts transactions that appeared on ETH first and echoed into
// ETC.
func (c *Collector) TotalEchoes(chain string) int {
	total := 0
	for _, b := range c.Daily(chain) {
		total += b.Echoes
	}
	return total
}

// TopNShare returns the Fig 5 series for a chain: the fraction of each
// day's blocks mined by the n most productive pools that day.
func (c *Collector) TopNShare(chain string, n int) []float64 {
	return c.perDay(chain, func(b *DayBucket) float64 { return b.TopNShare(n) })
}

// PoolGini returns the daily Gini coefficient of the chain's block
// production across pools — a single-number view of Fig 5's concentration,
// and the natural statistic for the paper's closing question about
// whether pool distributions reflect fundamental market trends.
func (c *Collector) PoolGini(chain string) []float64 {
	return c.perDay(chain, (*DayBucket).PoolGini)
}

// RecoveryHour returns the first hour (since the fork) at which the
// chain's block rate sustainably reached frac of the target rate
// (86400/14/24 ≈ 257 blocks/hour at target), where "sustainably" means
// the rate stays at or above that level for `sustain` consecutive hours.
// Returns -1 if never. This is experiment E2: the paper measured ~2 days
// for ETC.
func (c *Collector) RecoveryHour(chain string, targetBlockTime float64, frac float64, sustain int) int {
	want := frac * 3600 / targetBlockTime
	run := 0
	for h, b := range c.hourly(chain) {
		if float64(b.Blocks) >= want {
			run++
			if run >= sustain {
				return h - sustain + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// MeanOver returns the mean of series[from:to] (clamped); a convenience
// for reporting.
func MeanOver(series []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(series) {
		to = len(series)
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for _, v := range series[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// MaxOver returns the maximum of series[from:to] (clamped).
func MaxOver(series []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(series) {
		to = len(series)
	}
	max := 0.0
	for _, v := range series[from:to] {
		if v > max {
			max = v
		}
	}
	return max
}
