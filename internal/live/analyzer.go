// Package live is the streaming measurement plane: the batch pipeline
// (simulate, then export CSVs and run the analysis offline) turned into
// an online one, the way live network-measurement studies watch chain
// and client diversity from a continuous crawl instead of a post-hoc
// database pass.
//
// The wire Event model and the Feed broker live in the leaf subpackage
// internal/live/feed (so the RPC layer can import them without cycling
// through internal/export). This package adds the Analyzer — consuming
// events in-process as a sim.Observer or over the wire via Apply, and
// maintaining every O1–O6 observable incrementally while appending the
// block/tx/day CSV tables with the exact formatting of internal/export,
// so its end-of-run output is byte-identical to the batch export — and
// the Plane bundling a Feed with an Analyzer behind one observer.
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
	"math"
	"sync"

	"forkwatch/internal/export"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/pool"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// Options tunes the analyzer and the feed built around it. The zero
// value picks defaults sized for month-scale scenarios.
type Options struct {
	// DifficultyWindow is how many recent blocks per chain feed the O2
	// windowed difficulty/delta view (default 256).
	DifficultyWindow int
	// EchoSetCap bounds the tx-hash sliding set behind the O5 echo join:
	// beyond it the oldest first-seen entries are evicted FIFO, trading
	// long-range echo detection for bounded memory (default 1<<20).
	EchoSetCap int
	// RewardEther is the block reward used for hashes-per-USD (default 5,
	// the paper's pre-Byzantium reward).
	RewardEther float64
	// RingSize bounds the feed's replay ring (default 1<<16).
	RingSize int
}

func (o Options) withDefaults() Options {
	if o.DifficultyWindow <= 0 {
		o.DifficultyWindow = 256
	}
	if o.EchoSetCap <= 0 {
		o.EchoSetCap = 1 << 20
	}
	if o.RewardEther <= 0 {
		o.RewardEther = 5
	}
	if o.RingSize <= 0 {
		o.RingSize = 1 << 16
	}
	return o
}

// headCoinbase recovers the coinbase address behind a wire head event.
func headCoinbase(h *feed.HeadEvent) types.Address { return types.HexToAddress(h.Coinbase) }

// winEntry is one block in the O2 sliding window.
type winEntry struct {
	delta uint64
	diff  float64
}

// hourBucket is one chain-hour of the O1 census.
type hourBucket struct {
	blocks   int
	sumDelta float64
}

// chainState is one chain's incremental observable state.
type chainState struct {
	name     string
	head     uint64
	headTime uint64
	headDiff float64
	blocks   uint64
	txs      uint64

	hours []hourBucket // full hourly census (O(hours), not O(blocks))

	win     []winEntry // O2 ring
	winNext int
	winLen  int

	curDay      int
	dayBlocks   int
	dayTxs      int
	dayContract int
	dayEchoes   int
	byPool      map[types.Address]int // current day's coinbase counts (O6)

	echoes        uint64
	sameDayEchoes uint64

	usd      float64 // from the latest day event
	hashrate float64
	dayDiff  float64
}

// seenRec is one entry in the bounded first-seen tx-hash set.
type seenRec struct {
	chain string
	day   int
}

// pairCorr accumulates an online Pearson correlation between two chains'
// daily hashes-per-USD series (the headline of Fig 3 / O3).
type pairCorr struct {
	a, b                  string
	n                     int
	sx, sy, sxx, syy, sxy float64
}

func (p *pairCorr) add(x, y float64) {
	p.n++
	p.sx += x
	p.sy += y
	p.sxx += x * x
	p.syy += y * y
	p.sxy += x * y
}

func (p *pairCorr) corr() float64 {
	if p.n == 0 {
		return 0
	}
	n := float64(p.n)
	cov := p.sxy - p.sx*p.sy/n
	vx := p.sxx - p.sx*p.sx/n
	vy := p.syy - p.sy*p.sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Analyzer consumes the event stream and maintains every O1–O6
// observable incrementally, while appending the export CSV tables with
// byte-identical formatting. Feed it in-process as a sim.Observer, or
// over the wire with Apply; both run the same code path.
type Analyzer struct {
	mu    sync.Mutex
	epoch uint64
	opts  Options

	order  []string
	chains map[string]*chainState

	// The CSV tables, appended to by export's row encoders. daysCSV
	// stays empty until the first day event names its columns.
	blocksCSV []byte
	txsCSV    []byte
	daysCSV   []byte

	seen      map[string]seenRec
	seenQ     []string // FIFO eviction order for the bounded set
	evictions uint64

	pairs []*pairCorr

	days     int
	events   uint64
	complete bool

	sink func(feed.EchoEvent)
}

// NewAnalyzer returns an analyzer for a run anchored at epoch (the fork
// unix time; hour buckets key on it).
func NewAnalyzer(epoch uint64, opts Options) *Analyzer {
	a := &Analyzer{
		epoch:  epoch,
		opts:   opts.withDefaults(),
		chains: map[string]*chainState{},
		seen:   map[string]seenRec{},
	}
	a.blocksCSV = export.AppendBlockHeader(nil)
	a.txsCSV = export.AppendTxHeader(nil)
	return a
}

// SetEchoSink installs a callback invoked (under the analyzer lock) for
// every derived echo candidate; the Plane wires it into the feed.
func (a *Analyzer) SetEchoSink(fn func(feed.EchoEvent)) {
	a.mu.Lock()
	a.sink = fn
	a.mu.Unlock()
}

// OnBlock implements sim.Observer (the in-process hook on the engine's
// day-barrier delivery).
func (a *Analyzer) OnBlock(ev *sim.BlockEvent) { a.ApplyHead(feed.HeadFromSim(ev)) }

// OnDay implements sim.Observer.
func (a *Analyzer) OnDay(ev *sim.DayEvent) { a.ApplyDay(feed.DayFromSim(ev)) }

// Apply consumes one wire event. Echo events are skipped — the analyzer
// derives its own join from heads, so a wire consumer converges without
// trusting upstream derivations. EOF marks the run complete.
func (a *Analyzer) Apply(ev feed.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Kind {
	case feed.KindHead:
		a.ApplyHead(ev.Head)
	case feed.KindDay:
		a.ApplyDay(ev.Day)
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
		cs = &chainState{
			name:   name,
			curDay: -1,
			byPool: map[types.Address]int{},
			win:    make([]winEntry, a.opts.DifficultyWindow),
		}
		a.chains[name] = cs
		a.order = append(a.order, name)
	}
	return cs
}

// ApplyHead folds one head event into every observable and appends its
// block/tx CSV rows.
func (a *Analyzer) ApplyHead(h *feed.HeadEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	diff := feed.ParseDifficulty(h.Difficulty)
	coinbase := headCoinbase(h)

	// CSV convergence: reproduce exactly what export.Recorder captures
	// from the same event (zero block hash — events carry none — and the
	// 0/1 chain-bound marker in place of the per-chain EIP-155 id).
	a.blocksCSV = export.AppendBlockRow(a.blocksCSV, export.BlockRow{
		Chain:      h.Chain,
		Number:     h.Number,
		Time:       h.Time,
		Difficulty: diff,
		Coinbase:   coinbase,
		TxCount:    len(h.Txs),
	})
	for _, tx := range h.Txs {
		row := export.TxRow{
			Chain:       h.Chain,
			BlockNumber: h.Number,
			BlockTime:   h.Time,
			Hash:        types.HexToHash(tx.Hash),
			From:        types.HexToAddress(tx.From),
			Contract:    tx.Contract,
		}
		if tx.ChainBound {
			row.ChainID = 1
		}
		a.txsCSV = export.AppendTxRow(a.txsCSV, row)
	}

	cs := a.chain(h.Chain)
	cs.head = h.Number
	cs.headTime = h.Time
	cs.headDiff = types.BigToFloat64(diff)
	cs.blocks++

	// O1: hourly census (mirrors analysis.Collector's epoch guard).
	if h.Time >= a.epoch {
		hr := int((h.Time - a.epoch) / 3600)
		for len(cs.hours) <= hr {
			cs.hours = append(cs.hours, hourBucket{})
		}
		cs.hours[hr].blocks++
		cs.hours[hr].sumDelta += float64(h.Delta)
	}

	// O2: sliding difficulty/delta window.
	cs.win[cs.winNext] = winEntry{delta: h.Delta, diff: cs.headDiff}
	cs.winNext = (cs.winNext + 1) % len(cs.win)
	if cs.winLen < len(cs.win) {
		cs.winLen++
	}

	// Day roll: heads arrive per chain in nondecreasing day order (the
	// barrier delivers whole days), so a day change resets the day scope.
	if h.Day != cs.curDay {
		cs.curDay = h.Day
		cs.dayBlocks = 0
		cs.dayTxs = 0
		cs.dayContract = 0
		cs.dayEchoes = 0
		cs.byPool = map[types.Address]int{}
	}
	cs.dayBlocks++
	cs.byPool[coinbase]++

	for _, tx := range h.Txs {
		cs.txs++
		cs.dayTxs++
		if tx.Contract {
			cs.dayContract++
		}
		// O5: bounded first-seen join on tx hash (analysis.Collector's
		// semantics — the echo counts on the receiving chain; only the
		// first sighting is remembered).
		if prev, ok := a.seen[tx.Hash]; ok && prev.chain != h.Chain {
			cs.echoes++
			cs.dayEchoes++
			same := prev.day == h.Day
			if same {
				cs.sameDayEchoes++
			}
			if a.sink != nil {
				a.sink(feed.EchoEvent{
					Hash:       tx.Hash,
					From:       tx.From,
					FirstChain: prev.chain,
					FirstDay:   prev.day,
					Chain:      h.Chain,
					Day:        h.Day,
					SameDay:    same,
				})
			}
		} else if !ok {
			a.seen[tx.Hash] = seenRec{chain: h.Chain, day: h.Day}
			a.seenQ = append(a.seenQ, tx.Hash)
			if len(a.seenQ) > a.opts.EchoSetCap {
				evict := a.seenQ[0]
				a.seenQ = a.seenQ[1:]
				delete(a.seen, evict)
				a.evictions++
			}
		}
	}
}

// ApplyDay folds one day event in: the day CSV row, per-chain economics
// and the online payoff correlations.
func (a *Analyzer) ApplyDay(d *feed.DayEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	row := export.DayRow{
		Day:      d.Day,
		Chains:   make([]string, len(d.Partitions)),
		USD:      make([]float64, len(d.Partitions)),
		Hashrate: make([]float64, len(d.Partitions)),
	}
	hpu := make([]float64, len(d.Partitions))
	for i, pd := range d.Partitions {
		row.Chains[i] = pd.Chain
		row.USD[i] = pd.USD
		row.Hashrate[i] = pd.Hashrate
		cs := a.chain(pd.Chain)
		cs.usd = pd.USD
		cs.hashrate = pd.Hashrate
		cs.dayDiff = types.BigToFloat64(feed.ParseDifficulty(pd.Difficulty))
		if pd.USD > 0 {
			hpu[i] = cs.dayDiff / a.opts.RewardEther / pd.USD
		}
	}
	if len(a.daysCSV) == 0 {
		a.daysCSV = export.AppendDayHeader(nil, row.Chains)
		for i := 0; i < len(d.Partitions); i++ {
			for j := i + 1; j < len(d.Partitions); j++ {
				a.pairs = append(a.pairs, &pairCorr{a: d.Partitions[i].Chain, b: d.Partitions[j].Chain})
			}
		}
	}
	a.daysCSV = export.AppendDayRow(a.daysCSV, row)
	k := 0
	for i := 0; i < len(d.Partitions); i++ {
		for j := i + 1; j < len(d.Partitions); j++ {
			if k < len(a.pairs) {
				a.pairs[k].add(hpu[i], hpu[j])
			}
			k++
		}
	}
	if d.Day+1 > a.days {
		a.days = d.Day + 1
	}
}

// Events returns how many events the analyzer has applied.
func (a *Analyzer) Events() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events
}

// BlocksCSV returns the block table accumulated so far — at end of run,
// byte-identical to export.WriteBlocks over a Recorder's rows.
func (a *Analyzer) BlocksCSV() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.blocksCSV...)
}

// TxsCSV returns the transaction table accumulated so far.
func (a *Analyzer) TxsCSV() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.txsCSV...)
}

// DaysCSV returns the day table accumulated so far. With no day events
// observed it is the header-only table WriteDays emits for zero rows.
func (a *Analyzer) DaysCSV() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.daysCSV) == 0 {
		return export.AppendDayHeader(nil, nil)
	}
	return append([]byte(nil), a.daysCSV...)
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

// Snapshot returns the current rolling view.
func (a *Analyzer) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := Snapshot{
		Events:           a.events,
		Days:             a.days,
		Complete:         a.complete,
		EchoSetSize:      len(a.seen),
		EchoSetEvictions: a.evictions,
	}
	for _, name := range a.order {
		cs := a.chains[name]
		cl := ChainLive{
			Chain:         name,
			Head:          cs.head,
			HeadTime:      cs.headTime,
			Day:           cs.curDay,
			Blocks:        cs.blocks,
			Txs:           cs.txs,
			Difficulty:    cs.headDiff,
			USD:           cs.usd,
			Hashrate:      cs.hashrate,
			DayTxs:        cs.dayTxs,
			DayEchoes:     cs.dayEchoes,
			Echoes:        cs.echoes,
			SameDayEchoes: cs.sameDayEchoes,
			RecoveryHour:  recoveryHour(cs.hours, 14, 0.9, 6),
		}
		if len(cs.hours) > 0 {
			cl.BlocksLastHour = cs.hours[len(cs.hours)-1].blocks
		}
		cl.WindowBlocks = cs.winLen
		if cs.winLen > 0 {
			var sd, sf float64
			for i := 0; i < cs.winLen; i++ {
				sd += float64(cs.win[i].delta)
				sf += cs.win[i].diff
			}
			cl.WindowMeanDelta = sd / float64(cs.winLen)
			cl.WindowMeanDiff = sf / float64(cs.winLen)
		}
		if cs.usd > 0 {
			cl.HashesPerUSD = cs.dayDiff / a.opts.RewardEther / cs.usd
		}
		if cs.dayTxs > 0 {
			cl.DayContractPct = 100 * float64(cs.dayContract) / float64(cs.dayTxs)
		}
		cl.Pools = len(cs.byPool)
		cl.Top1Share = pool.TopNFromCounts(cs.byPool, 1)
		cl.Top5Share = pool.TopNFromCounts(cs.byPool, 5)
		w := make([]float64, 0, len(cs.byPool))
		for _, n := range cs.byPool {
			w = append(w, float64(n))
		}
		cl.PoolGini = pool.GiniOf(w)
		out.Chains = append(out.Chains, cl)
	}
	for _, p := range a.pairs {
		out.Correlations = append(out.Correlations, PairCorrelation{A: p.a, B: p.b, Correlation: p.corr()})
	}
	return out
}

// recoveryHour mirrors analysis.Collector.RecoveryHour over the hourly
// census: the first hour whose block rate sustainably reached frac of
// the target rate, or -1.
func recoveryHour(hours []hourBucket, targetBlockTime, frac float64, sustain int) int {
	want := frac * 3600 / targetBlockTime
	run := 0
	for h := 0; h < len(hours); h++ {
		if float64(hours[h].blocks) >= want {
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
