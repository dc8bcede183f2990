// Package live is the streaming measurement plane: the batch pipeline
// (simulate, then export CSVs and run the analysis offline) turned into
// an online one, the way live network-measurement studies watch chain
// and client diversity from a continuous crawl instead of a post-hoc
// database pass.
//
// The wire Event model and the Feed broker live in the leaf subpackage
// internal/live/feed (so the RPC layer can import them without cycling
// through internal/export). This package adds the Analyzer — consuming
// events in-process as a sim.Observer or over the wire via Apply, which
// decodes each one once — a view over an analysis.Collector, the one
// accumulator of the O1–O6 observables — and the Plane bundling a Feed
// with an Analyzer behind one observer. The analyzer keeps no ledger
// tables: a follower that wants the block/tx/day CSVs hands Apply an
// export.Tables, the batch exporter, which receives the same decoded
// events and writes each row as it arrives.
//
// The convergence guarantee rests on ordering: the engine delivers
// events at the day barrier in fixed partition order (the same property
// that makes serial and parallel runs byte-identical), the Feed assigns
// sequence numbers in publish order, and any consumer that applies
// events in sequence order therefore reconstructs the batch byte
// stream — even over a lossy transport, because cursors make every
// dropped delivery retryable.
package live

import (
	"fmt"
	"math"
	"sync"

	"forkwatch/internal/analysis"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// Options has no fields: the only values any caller ever passed were the
// defaults, which are the constants below. The type and NewAnalyzer's
// parameter remain because bench/ (frozen by BENCHMARK.json) compiles
// against NewAnalyzer(epoch, live.Options{}).
type Options struct{}

const (
	// difficultyWindow is how many recent blocks per chain feed the O2
	// windowed difficulty/delta view.
	difficultyWindow = 256
	// echoSetCap bounds the first-seen tx-hash set behind the O5 join
	// (analysis.NewStreamCollector's seenBound).
	echoSetCap = 1 << 20
	// ringSize bounds the feed's replay ring.
	ringSize = 1 << 16
)

// winEntry is one block in the O2 sliding window.
type winEntry struct {
	delta uint64
	diff  float64
}

// chainState is what the analyzer keeps per chain beside the collector:
// the head, running totals and the O2 window.
type chainState struct {
	head     uint64
	headTime uint64
	headDiff float64
	blocks   uint64
	txs      uint64

	win     [difficultyWindow]winEntry // O2 ring
	winNext int
	winLen  int
}

// Analyzer is the streaming view of a run: an analysis.Collector — the
// only place O1–O6 state is accumulated, the same one the batch pipeline
// reads its figures from — plus what only a rolling view needs (heads,
// totals, the O2 window). Its core consumes the engine's events: attach
// it as a sim.Observer, or hand wire events to Apply, which decodes each
// one once.
type Analyzer struct {
	mu    sync.Mutex
	epoch uint64
	col   *analysis.Collector

	order  []string
	chains map[string]*chainState

	// dayChains is the latest day event's chain list: the order the
	// correlations pair up in.
	dayChains []string

	days     int // day events seen: the latest is day days-1
	events   uint64
	complete bool
}

// NewAnalyzer returns an analyzer for a run anchored at epoch (the fork
// unix time; hour buckets key on it).
func NewAnalyzer(epoch uint64, _ Options) *Analyzer { return newAnalyzer(epoch, echoSetCap, nil) }

// newAnalyzer also takes the collector's first-seen bound and echo
// callback (analysis.NewStreamCollector); the callback runs inside
// OnBlock, under the analyzer lock.
func newAnalyzer(epoch uint64, seenBound int, onEcho analysis.EchoFunc) *Analyzer {
	return &Analyzer{
		epoch:  epoch,
		col:    analysis.NewStreamCollector(epoch, seenBound, onEcho),
		chains: map[string]*chainState{},
	}
}

// Apply consumes one wire event, decoding it to the engine's form; a
// malformed event is an error and changes nothing. The observers in also
// get the same decoded event after the analyzer, so a follower's
// export.Tables sees exactly what the analyzer saw. Echo events are
// skipped — the analyzer derives its own join from heads, so a wire
// consumer converges without trusting upstream derivations. EOF marks the
// run complete.
func (a *Analyzer) Apply(ev feed.Event, also ...sim.Observer) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Kind {
	case feed.KindHead:
		h, err := feed.HeadToSim(ev.Head)
		if err != nil {
			return err
		}
		// The collector keeps one bucket per hour since the epoch: bound
		// the hour index as HeadToSim bounds the day.
		if h.Time >= a.epoch && (h.Time-a.epoch)/3600 >= 24*(feed.MaxDay+1) {
			return fmt.Errorf("live: %s head %d: timestamp %d is more than %d days past the epoch", h.Chain, h.Number, h.Time, feed.MaxDay)
		}
		a.OnBlock(h)
		for _, o := range also {
			o.OnBlock(h)
		}
	case feed.KindDay:
		d, err := feed.DayToSim(ev.Day)
		if err != nil {
			return err
		}
		a.OnDay(d)
		for _, o := range also {
			o.OnDay(d)
		}
	case feed.KindEOF:
		a.MarkComplete()
	}
	return nil
}

// MarkComplete records that the run's event stream ended.
func (a *Analyzer) MarkComplete() {
	a.mu.Lock()
	a.complete = true
	a.mu.Unlock()
}

func (a *Analyzer) chain(name string) *chainState {
	cs, ok := a.chains[name]
	if !ok {
		cs = &chainState{}
		a.chains[name] = cs
		a.order = append(a.order, name)
	}
	return cs
}

// OnBlock implements sim.Observer: it advances the chain's head and
// window and hands the event to the collector. Nothing of ev is retained.
func (a *Analyzer) OnBlock(ev *sim.BlockEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	cs := a.chain(ev.Chain)
	cs.head = ev.Number
	cs.headTime = ev.Time
	cs.headDiff = types.BigToFloat64(ev.Difficulty)
	cs.blocks++
	cs.txs += uint64(len(ev.Txs))

	cs.win[cs.winNext] = winEntry{delta: ev.Delta, diff: cs.headDiff}
	cs.winNext = (cs.winNext + 1) % len(cs.win)
	if cs.winLen < len(cs.win) {
		cs.winLen++
	}

	a.col.OnBlock(ev)
}

// OnDay implements sim.Observer: the day's chains join the snapshot in
// partition order, then the collector.
func (a *Analyzer) OnDay(ev *sim.DayEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	a.dayChains = a.dayChains[:0]
	for _, pd := range ev.Partitions {
		a.chain(pd.Name)
		a.dayChains = append(a.dayChains, pd.Name)
	}
	if ev.Day+1 > a.days {
		a.days = ev.Day + 1
	}
	a.col.OnDay(ev)
}

// ChainLive is one chain's rolling O1–O6 view.
type ChainLive struct {
	Chain    string `json:"chain"`
	Head     uint64 `json:"head"`
	HeadTime uint64 `json:"headTime"`
	Day      int    `json:"day"`
	Blocks   uint64 `json:"blocks"`
	Txs      uint64 `json:"txs"`

	BlocksLastHour  int     `json:"blocksLastHour"`
	RecoveryHour    int     `json:"recoveryHour"`
	WindowBlocks    int     `json:"windowBlocks"`
	WindowMeanDelta float64 `json:"windowMeanDelta"`
	WindowMeanDiff  float64 `json:"windowMeanDifficulty"`
	Difficulty      float64 `json:"difficulty"`

	USD          float64 `json:"usd"`
	Hashrate     float64 `json:"hashrate"`
	HashesPerUSD float64 `json:"hashesPerUSD"`

	DayTxs         int     `json:"dayTxs"`
	DayContractPct float64 `json:"dayContractPct"`

	DayEchoes     int    `json:"dayEchoes"`
	Echoes        uint64 `json:"echoes"`
	SameDayEchoes uint64 `json:"sameDayEchoes"`

	Pools     int     `json:"pools"`
	Top1Share float64 `json:"top1Share"`
	Top5Share float64 `json:"top5Share"`
	PoolGini  float64 `json:"poolGini"`
}

// PairCorrelation is one chain pair's rolling hashes-per-USD Pearson
// correlation.
type PairCorrelation struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	Correlation float64 `json:"hashesPerUSDCorrelation"`
}

// Snapshot is the fork_liveSnapshot payload: the rolling view of every
// observable, per chain in partition (first-seen) order.
type Snapshot struct {
	Events           uint64            `json:"events"`
	Days             int               `json:"days"`
	Complete         bool              `json:"complete"`
	Chains           []ChainLive       `json:"chains"`
	Correlations     []PairCorrelation `json:"correlations,omitempty"`
	EchoSetSize      int               `json:"echoSetSize"`
	EchoSetEvictions uint64            `json:"echoSetEvictions"`
}

// Snapshot returns the current rolling view, read off the collector's
// buckets: a chain's day scope is its last day bucket, its economics those
// of the latest day event.
func (a *Analyzer) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := Snapshot{
		Events:   a.events,
		Days:     a.days,
		Complete: a.complete,
	}
	out.EchoSetSize, out.EchoSetEvictions = a.col.SeenSet()
	for _, name := range a.order {
		cs := a.chains[name]
		daily := a.col.Daily(name)
		day, econ := &analysis.DayBucket{}, &analysis.DayBucket{}
		if n := len(daily); n > 0 {
			day = daily[n-1]
		}
		if a.days > 0 && a.days <= len(daily) {
			econ = daily[a.days-1]
		}
		cl := ChainLive{
			Chain:        name,
			Head:         cs.head,
			HeadTime:     cs.headTime,
			Day:          len(daily) - 1,
			Blocks:       cs.blocks,
			Txs:          cs.txs,
			Difficulty:   cs.headDiff,
			USD:          econ.USD,
			Hashrate:     econ.Hashrate,
			DayTxs:       day.Txs,
			DayEchoes:    day.Echoes,
			Echoes:       uint64(a.col.TotalEchoes(name)),
			RecoveryHour: a.col.RecoveryHour(name, 14, 0.9, 6),
			WindowBlocks: cs.winLen,
			HashesPerUSD: econ.HashesPerUSD(analysis.RewardEther),

			DayContractPct: day.PctContract(),
			Pools:          len(day.ByPool),
			Top1Share:      day.TopNShare(1),
			Top5Share:      day.TopNShare(5),
			PoolGini:       day.PoolGini(),
		}
		for _, b := range daily {
			cl.SameDayEchoes += uint64(b.SameDayEchoes)
		}
		if perHour := a.col.BlocksPerHour(name); len(perHour) > 0 {
			cl.BlocksLastHour = int(perHour[len(perHour)-1])
		}
		if cs.winLen > 0 {
			var sd, sf float64
			for _, w := range cs.win[:cs.winLen] {
				sd += float64(w.delta)
				sf += w.diff
			}
			cl.WindowMeanDelta = sd / float64(cs.winLen)
			cl.WindowMeanDiff = sf / float64(cs.winLen)
		}
		out.Chains = append(out.Chains, cl)
	}
	for i, x := range a.dayChains {
		for _, y := range a.dayChains[i+1:] {
			// An undefined correlation (a constant series) is reported as
			// 0: encoding/json has no NaN.
			corr := a.col.PayoffCorrelation(analysis.RewardEther, x, y)
			if math.IsNaN(corr) {
				corr = 0
			}
			out.Correlations = append(out.Correlations, PairCorrelation{A: x, B: y, Correlation: corr})
		}
	}
	return out
}
