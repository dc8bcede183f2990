package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/market"
	"forkwatch/internal/pool"
	"forkwatch/internal/pow"
	"forkwatch/internal/prng"
	"forkwatch/internal/types"
)

// TxInfo describes one mined transaction to observers.
type TxInfo struct {
	Hash       types.Hash
	From       types.Address
	Contract   bool
	ChainBound bool
}

// TxInfoOf describes a mined transaction: a contract creation or a call
// with data counts as a contract transaction, a non-zero chain id binds
// it to its chain.
func TxInfoOf(tx *chain.Transaction) TxInfo {
	return TxInfo{
		Hash:       tx.Hash(),
		From:       tx.From,
		Contract:   tx.To == nil || len(tx.Data) > 0,
		ChainBound: tx.ChainID != 0,
	}
}

// BlockEvent is emitted for every mined block.
//
// Events are pooled: the engine recycles each event (including its
// Difficulty big.Int and Txs backing array) at the first day barrier
// after its delivery has finished — the next barrier when partitions step
// concurrently, the delivering one otherwise. Observers that retain
// anything past OnBlock must copy it (types.BigCopy for Difficulty, a
// fresh slice for Txs); observers that aggregate in place need no changes.
type BlockEvent struct {
	Chain      string
	Day        int
	Number     uint64
	Time       uint64
	Delta      uint64
	Difficulty *big.Int
	Coinbase   types.Address
	Txs        []TxInfo

	// diffBuf backs Difficulty so a recycled event reuses one big.Int
	// instead of copying the head difficulty per block.
	diffBuf big.Int
}

// PartitionDay is one partition's slice of a DayEvent, in partition
// order.
type PartitionDay struct {
	Name       string
	USD        float64
	Hashrate   float64
	Difficulty *big.Int
}

// DayEvent is emitted at the end of each simulated day: one entry per
// partition, in partition order.
type DayEvent struct {
	Day        int
	Partitions []PartitionDay
}

// Partition returns the named partition's slice of the day, or nil.
func (ev *DayEvent) Partition(name string) *PartitionDay {
	for i := range ev.Partitions {
		if ev.Partitions[i].Name == name {
			return &ev.Partitions[i]
		}
	}
	return nil
}

// Observer receives simulation events; the analysis package implements it.
//
// Every call of a run comes from one goroutine, in one fixed order — each
// day's block events partition by partition, then its DayEvent — and all
// of them happen before Run returns. That goroutine is Run's caller when
// partitions step inline (Parallelism 1) and the engine's delivery
// goroutine otherwise, which delivers day d while day d+1 mines, so an
// observer must not read a ledger the engine is still mining.
type Observer interface {
	OnBlock(*BlockEvent)
	OnDay(*DayEvent)
}

// Engine runs one N-way fork scenario.
//
// Parallel model (DESIGN.md §10): the partitions only couple through
// day-granular processes — hashrate migration, price arbitrage, and the
// echo attacker whose rebroadcasts surface on the other chains the NEXT
// day. Within a day each partition's mining is a closed system over its
// own state and its own seed-derived random streams (keyed on the
// partition NAME, never the slot), so the engine steps partitions on
// separate goroutines between day barriers when Scenario.Parallelism
// allows. All cross-chain effects (echo decisions, the market/arbitrage
// step, building the day's DayEvent) happen on Run's goroutine at the
// barrier in partition order. Observer delivery is ordered the same way:
// a concurrent run hands each day's buffered events to one delivery
// goroutine at the barrier and steps the next day while it delivers them;
// a serial run delivers inline. Either way observers see one stream in
// one order, which is why serial and parallel runs produce byte-identical
// output.
type Engine struct {
	sc  *Scenario
	reg *Registry

	// Workload is the shared traffic model; Prices the per-partition
	// daily USD series, aligned with the partition order. Exported for
	// the façade, serve and tests.
	Workload *Workload
	Prices   [][]float64

	parts []*partition
	// shares is the arbitrage state: each partition's share of total
	// hashrate. The last component is always the residual 1 - sum(rest).
	shares    []float64
	observers []Observer
}

// partition is everything one chain's goroutine owns while stepping a
// day: ledger, sampler and pool streams, the pending transaction queue,
// the storage stack, and the day's buffered output (events, crash
// flags). Nothing in here is shared with the other partitions.
type partition struct {
	idx    int
	name   string
	spec   PartitionSpec
	ledger Ledger

	sampler *pow.Sampler
	poolR   *rand.Rand
	pools   *pool.Population

	// sticky is the behaviour model's pinned fraction (see
	// pool.Behaviour.StickyFraction), resolved once at build time.
	sticky float64

	// pending carries unmined submissions across days; pendBuf is its
	// backing buffer, compacted to the front on every enqueue so the day
	// loop's consumption doesn't slide through an ever-growing array.
	pending []txPlan
	pendBuf []txPlan

	// storage is the chain's storage stack; nil in ModeFast.
	storage *ChainStore

	// crashFired marks scheduled crash specs this partition has armed
	// (indexed like Scenario.Crashes; only specs naming this chain ever
	// fire here). Partition-local so arming needs no locks.
	crashFired []bool

	// Per-day inputs and outputs, set before / drained after the barrier.
	hashrate float64
	eipDay   int
	events   []*BlockEvent

	// delivering holds the day's events handed to the observers at the
	// last barrier; evFree holds delivered events for reuse, refilled from
	// delivering once that delivery has finished (DESIGN.md §15). Mining
	// fills events meanwhile, so at most two days of events are alive.
	delivering []*BlockEvent
	evFree     []*BlockEvent
	// txScratch carries one block's candidate transactions from the
	// pending queue into MineBlock; reused every block.
	txScratch []*chain.Transaction
}

// New builds an engine (ledgers, workload, pools, prices) from a
// scenario, after validating it.
func New(sc *Scenario) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	reg, err := sc.Registry()
	if err != nil {
		return nil, err
	}
	specs := reg.Specs()
	k := reg.Len()

	w := NewWorkload(sc)
	gen := w.Genesis()

	cfgs := make([]*chain.Config, k)
	for i, sp := range specs {
		cfgs[i] = sp.ChainConfig(w.DAODrainList(), DAORefundAddress)
	}

	ledgers := make([]Ledger, k)
	storage := make([]*ChainStore, k)
	switch sc.Mode {
	case ModeFast:
		for i := range specs {
			ledgers[i] = NewFastLedger(cfgs[i], gen)
		}
	case ModeFull:
		// Each chain gets its own storage stack: partitions never share
		// storage, only gossip. Injection stays off until genesis is down.
		for i, sp := range specs {
			stg, err := OpenChainStore(sc, i, sp.Name, true)
			if err != nil {
				CloseStores(storage)
				return nil, err
			}
			storage[i] = stg
			led, err := NewFullLedgerWithDB(cfgs[i], gen, prng.New(sc.Seed, "seal", sp.Name), stg.KV())
			if err == nil && stg.faults != nil { // genesis lands before injection starts
				err = led.BC.Flush()
			}
			if err != nil {
				CloseStores(storage)
				return nil, err
			}
			stg.EnableFaults(true)
			ledgers[i] = led
		}
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", sc.Mode)
	}

	mp := sc.Market
	if mp.Days < sc.Days {
		mp.Days = sc.Days
	}
	chainsMP := make([]market.ChainParams, k)
	for i, sp := range specs {
		chainsMP[i] = sp.marketParams()
	}
	prices := market.GenerateSeries(mp, chainsMP, prng.New(sc.Seed, "market"))

	e := &Engine{
		sc:       sc,
		reg:      reg,
		Workload: w,
		Prices:   prices,
		shares:   make([]float64, k),
		parts:    make([]*partition, k),
	}
	rest := 0.0
	for i := 1; i < k; i++ {
		e.shares[i] = specs[i].ShareAtFork
		rest += e.shares[i]
	}
	e.shares[0] = 1 - rest
	for i, sp := range specs {
		lower := strings.ToLower(sp.Name)
		var pools *pool.Population
		if sp.PoolZipf > 0 {
			pools = pool.NewZipfPopulation(lower, sp.Pools, sp.PoolZipf)
		} else {
			pools = pool.NewUniformPopulation(lower, sp.Pools)
		}
		e.parts[i] = &partition{
			idx:        i,
			name:       sp.Name,
			spec:       sp,
			ledger:     ledgers[i],
			sampler:    pow.NewPartitionSampler(sc.Seed, sp.Name),
			poolR:      prng.New(sc.Seed, "pool", sp.Name),
			pools:      pools,
			sticky:     sp.stickyFraction(),
			storage:    storage[i],
			crashFired: make([]bool, len(sc.Crashes)),
			eipDay:     sp.EIP155Day,
		}
	}
	return e, nil
}

// Close closes every chain's storage stack; the first error wins. A
// ModeFast engine keeps no storage. Idempotent.
func (e *Engine) Close() error {
	stores := make([]*ChainStore, len(e.parts))
	for i, p := range e.parts {
		stores[i] = p.storage
	}
	return CloseStores(stores)
}

// AddObserver registers an observer for block and day events.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// Registry returns the engine's partition registry.
func (e *Engine) Registry() *Registry { return e.reg }

// PartitionNames returns the partition names in order.
func (e *Engine) PartitionNames() []string { return e.reg.Names() }

// Ledgers returns every partition's ledger in partition order.
func (e *Engine) Ledgers() []Ledger {
	out := make([]Ledger, len(e.parts))
	for i, p := range e.parts {
		out[i] = p.ledger
	}
	return out
}

// LedgerAt returns the i-th partition's ledger.
func (e *Engine) LedgerAt(i int) Ledger { return e.parts[i].ledger }

// Ledger returns the named partition's ledger, or nil.
func (e *Engine) Ledger(name string) Ledger {
	if i, ok := e.reg.Index(name); ok {
		return e.parts[i].ledger
	}
	return nil
}

// StorageStats sums the storage counters of every chain's key-value
// store. ModeFast ledgers have no store, so the sum is zero there.
func (e *Engine) StorageStats() db.Stats {
	var s db.Stats
	for _, p := range e.parts {
		if fl, ok := p.ledger.(*FullLedger); ok {
			s = s.Add(fl.BC.StorageStats())
		}
	}
	return s
}

// CrashesFired reports how many scheduled CrashSpecs have been armed so
// far; chaos tests assert the crash path was actually exercised.
func (e *Engine) CrashesFired() int {
	n := 0
	for _, p := range e.parts {
		for _, fired := range p.crashFired {
			if fired {
				n++
			}
		}
	}
	return n
}

// StorageFaultEvents reports how many storage faults (injected errors,
// short or torn appends, crashes, reopens) the chains' stores have
// logged. Zero when no StorageFaults are configured or in ModeFast.
func (e *Engine) StorageFaultEvents() int {
	n := 0
	for _, p := range e.parts {
		if p.storage != nil {
			n += p.storage.journalLen()
		}
	}
	return n
}

// Run simulates sc.Days days. Day 0 begins at the fork moment: all
// ledgers share genesis (the pre-fork ledger) and block 1 is the fork
// block on each side.
//
// Each day: the serial prologue computes prices and the hashrate split
// and pins EIP-155 activation; then every partition steps (pool
// consolidation, traffic generation, mining) — concurrently when the
// resolved parallelism is at least 2, inline otherwise, over the same
// per-partition streams either way; then the serial barrier flushes the
// echo attacker, builds the day event and hands the day's buffered block
// events and the day event to the observers, in partition order. A
// concurrent run delivers them on its delivery goroutine while the next
// day steps, and waits for that at the next barrier; a serial one
// delivers inline. Run returns after the last observer call, however it
// ends, and re-raises an observer's panic on its own goroutine. It drops
// the day loop's scratch before returning, so an engine kept for its
// ledgers holds no pooled events or queues.
func (e *Engine) Run() error {
	alloc := market.Allocator{Elasticity: e.sc.ArbitrageElasticity}
	concurrent := e.sc.ResolveParallelism() >= 2
	specs := e.reg.Specs()
	k := len(e.parts)
	defer e.dropDayScratch()
	var dl *delivery
	if concurrent && len(e.observers) > 0 {
		dl = startDelivery(e)
		defer dl.stop()
	}
	for day := 0; day < e.sc.Days; day++ {
		// Hashrate: the structural schedule sets the total (growth +
		// Zcash event) and dominates the split in the chaotic weeks
		// right after the fork; price arbitrage takes over with weight
		// 1-exp(-day/tau), which is what equalises USD-per-hash across
		// the chains (Fig 3). Each partition's behaviour model pins its
		// sticky fraction to the structural schedule even after the
		// handover. The last partition always holds the residual share,
		// exactly as the two-way engine's scalar state did.
		hr := e.sc.StructHashrates(day, specs)
		total := 0.0
		for _, h := range hr {
			total += h
		}
		wStruct := 1.0
		if e.sc.StructuralBlendTauDays > 0 {
			wStruct = math.Exp(-float64(day) / e.sc.StructuralBlendTauDays)
		}
		den := 0.0
		for i, sp := range specs {
			den += sp.economicWeight() * e.Prices[i][day]
		}
		rest := 0.0
		for i := 0; i < k-1; i++ {
			structShare := hr[i] / total
			priceShare := e.shares[i]
			if den > 0 {
				target := specs[i].economicWeight() * e.Prices[i][day] / den
				priceShare = alloc.StepToward(e.shares[i], target)
			}
			mobile := priceShare
			if s := e.parts[i].sticky; s > 0 {
				mobile = s*structShare + (1-s)*priceShare
			}
			e.shares[i] = wStruct*structShare + (1-wStruct)*mobile
			rest += e.shares[i]
		}
		resid := 1 - rest
		// The residual partition's behaviour model still binds: its sticky
		// fraction pins it toward its structural share, and the stepped
		// partitions scale to keep the total at one. Profit-only residuals
		// (sticky zero — including the historical pair) skip this
		// entirely, leaving the two-way arithmetic untouched.
		if s := e.parts[k-1].sticky; s > 0 && rest > 0 {
			structShare := hr[k-1] / total
			resid = s*structShare + (1-s)*resid
			scale := (1 - resid) / rest
			for i := 0; i < k-1; i++ {
				e.shares[i] *= scale
			}
		}
		e.shares[k-1] = resid
		for i, p := range e.parts {
			p.hashrate = total * e.shares[i]
		}

		// Replay protection activation: pin the EIP-155 block to the
		// chain's next height the day it ships.
		for _, p := range e.parts {
			if day == p.eipDay && p.eipDay >= 0 {
				p.ledger.Config().EIP155Block = new(big.Int).SetUint64(p.ledger.HeadNumber() + 1)
			}
		}

		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, k)
			for _, p := range e.parts {
				wg.Add(1)
				go func(p *partition) {
					defer wg.Done()
					errs[p.idx] = e.stepDay(day, p)
				}(p)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		} else {
			for _, p := range e.parts {
				if err := e.stepDay(day, p); err != nil {
					return err
				}
			}
		}

		// Day barrier: cross-chain effects in fixed order.
		e.Workload.FlushEchoes()
		ev := &DayEvent{Day: day, Partitions: make([]PartitionDay, k)}
		for i, p := range e.parts {
			ev.Partitions[i] = PartitionDay{
				Name:       p.name,
				USD:        e.Prices[i][day],
				Hashrate:   p.hashrate,
				Difficulty: types.BigCopy(p.ledger.HeadDifficulty()),
			}
		}

		// Yesterday's delivery must be over before its events are
		// recycled; then today's events go out.
		dl.wait()
		e.recycleDelivered()
		for _, p := range e.parts {
			p.delivering, p.events = p.events, p.delivering
		}
		if dl != nil {
			dl.hand(ev)
		} else {
			e.deliver(ev)
			e.recycleDelivered()
		}
	}
	return nil
}

// deliver calls every observer with the block events of the last barrier,
// partition by partition in block order, then with the day event.
func (e *Engine) deliver(day *DayEvent) {
	for _, p := range e.parts {
		for _, ev := range p.delivering {
			for _, o := range e.observers {
				o.OnBlock(ev)
			}
		}
	}
	for _, o := range e.observers {
		o.OnDay(day)
	}
}

// recycleDelivered returns the delivered events to the free lists; only
// call it once their delivery has finished.
func (e *Engine) recycleDelivered() {
	for _, p := range e.parts {
		p.evFree = append(p.evFree, p.delivering...)
		p.delivering = p.delivering[:0]
	}
}

// dropDayScratch lets go of everything the day loop keeps for reuse —
// pooled events, the pending queue and its buffer, the block scratch, the
// fast ledger's included slice and the workload's carried buffers — once
// no delivery is in flight.
func (e *Engine) dropDayScratch() {
	for _, p := range e.parts {
		p.events, p.delivering, p.evFree = nil, nil, nil
		p.pending, p.pendBuf, p.txScratch = nil, nil, nil
		if fl, ok := p.ledger.(*FastLedger); ok {
			fl.included = nil
		}
	}
	e.Workload.dropCarried()
}

// delivery runs a concurrent run's observer calls on one goroutine, one
// day at a time: Run hands it a day at the barrier and steps the next day
// while it delivers, then waits for it at the following barrier.
type delivery struct {
	days chan *DayEvent
	// done carries each handed day's outcome: nil, or the value an
	// observer panicked with. The goroutine closes it when it exits.
	done chan any
	busy bool // a day was handed and its outcome not yet received
}

func startDelivery(e *Engine) *delivery {
	d := &delivery{days: make(chan *DayEvent), done: make(chan any)}
	go func() {
		defer close(d.done)
		for ev := range d.days {
			d.done <- deliverRecovered(e, ev)
		}
	}()
	return d
}

// deliverRecovered delivers one day and reports an observer's panic
// instead of letting it kill the process from this goroutine.
func deliverRecovered(e *Engine, ev *DayEvent) (panicked any) {
	defer func() { panicked = recover() }()
	e.deliver(ev)
	return nil
}

// hand starts delivering a day; the previous one must have been waited for.
func (d *delivery) hand(ev *DayEvent) {
	d.days <- ev
	d.busy = true
}

// wait blocks until the handed day has been delivered and re-raises an
// observer's panic on the caller's goroutine. A nil delivery (inline
// runs) has nothing in flight.
func (d *delivery) wait() {
	if d == nil || !d.busy {
		return
	}
	d.busy = false
	if p := <-d.done; p != nil {
		panic(p)
	}
}

// stop waits for the day in flight, ends the goroutine and joins it, then
// re-raises a panic that day's observers raised.
func (d *delivery) stop() {
	close(d.days)
	var p any
	if d.busy {
		d.busy = false
		p = <-d.done
	}
	<-d.done // closed once the goroutine has left its loop
	if p != nil {
		panic(p)
	}
}

// stepDay advances one partition through one day: pool consolidation,
// traffic generation, mining. Runs on the partition's goroutine in
// parallel mode; touches only partition-local state and the workload's
// slot for this chain.
func (e *Engine) stepDay(day int, p *partition) error {
	// Pool consolidation (Fig 5): each partition's churn starts once its
	// configured lag has passed (the historical calibration: ETH stable
	// from day one, ETC consolidating after the dust settled).
	if day >= p.spec.PoolLagDays {
		p.pools.Consolidate(p.spec.PoolChurn, p.spec.PoolAlpha, p.spec.PoolCap, p.poolR)
	}

	p.enqueue(e.Workload.DayTraffic(day, p.name, p.ledger, p.eipDay))

	if err := e.mineDay(day, p); err != nil {
		return err
	}
	// One backend write for the whole day's block commits (a no-op on a
	// durable store, which flushed every block).
	if p.storage != nil {
		if err := p.ledger.(*FullLedger).BC.Flush(); err != nil {
			return fmt.Errorf("sim: %s day %d storage flush: %w", p.name, day, err)
		}
	}
	return nil
}

// mine mines one block on p's chain, and flushes it on a durable store.
func (p *partition) mine(t uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, error) {
	included, err := p.ledger.MineBlock(t, coinbase, txs)
	if err == nil && p.storage != nil && p.storage.faults != nil {
		err = p.ledger.(*FullLedger).BC.Flush()
	}
	return included, err
}

// recoverMine handles a failure of p.mine on a chain wired for storage
// faults. If the store crashed (torn batch or scheduled kill), it models
// the node restarting: reopen the medium, run WAL recovery via
// chain.Open, and either adopt the in-flight block — it reached its WAL
// commit point before the tear — or re-mine it with identical inputs,
// which deterministically reproduces the same block, so downstream
// figures are unaffected by the crash. A store that recovery reports as
// corrupt beyond repair retires the chain (dead=true): the partition
// loses its miners for the rest of the run, day events keep flowing.
//
// Returns the included transactions, whether a block was produced, and
// a fatal error. Errors that are not storage crashes surface unchanged.
func (p *partition) recoverMine(mineErr error, t uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, bool, error) {
	fl, isFull := p.ledger.(*FullLedger)
	stg := p.storage
	if stg == nil || !isFull || !stg.crashed() {
		return nil, false, mineErr
	}
	preHead := fl.HeadNumber() // memory never advances past the last durable commit
	const maxRestarts = 3      // random faults can crash the retry too
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if err := stg.restart(); err != nil {
			stg.dead = true
			return nil, false, nil
		}
		bc, err := chain.Open(fl.Config(), stg.KV())
		if err != nil {
			stg.dead = true
			return nil, false, nil
		}
		fl.BC = bc
		if bc.Head().Number() == preHead+1 {
			// The in-flight block committed durably before the crash;
			// recovery finished applying it. Adopt it instead of
			// re-mining: its transactions are the included set.
			return bc.Head().Txs, true, nil
		}
		included, err := p.mine(t, coinbase, txs)
		if err == nil {
			return included, true, nil
		}
		if !stg.crashed() {
			return nil, false, err
		}
	}
	stg.dead = true
	return nil, false, nil
}

func (p *partition) enqueue(plans []txPlan) {
	// Compact leftovers to the front of the backing buffer (overlapping
	// copy is fine), then append the day's plans.
	merged := append(p.pendBuf[:0], p.pending...)
	merged = append(merged, plans...)
	p.pending = merged
	p.pendBuf = merged[:0:cap(merged)]
	// Stable sort fixes the order, so any stable algorithm gives the same
	// queue; the generic form skips sort.SliceStable's reflection.
	slices.SortStableFunc(p.pending, func(a, b txPlan) int {
		switch {
		case a.second < b.second:
			return -1
		case a.second > b.second:
			return 1
		}
		return 0
	})
}

// mineDay advances one chain from the start to the end of the day,
// sampling block intervals from the difficulty/hashrate process and
// including pending transactions as their submission times pass. Block
// events are buffered on the partition and delivered at the day barrier.
func (e *Engine) mineDay(day int, p *partition) error {
	if p.storage != nil && p.storage.dead {
		return nil // storage died beyond recovery: the chain's miners departed
	}
	led := p.ledger
	dayStart := e.sc.Epoch + uint64(day)*e.sc.DayLength
	dayEnd := dayStart + e.sc.DayLength
	t := led.HeadTime()
	if t < dayStart {
		t = dayStart
	}
	weights := p.pools.Weights()
	totalWeight := 0.0
	for _, w := range weights {
		totalWeight += w
	}
	blockIdx := 0

	for {
		interval := p.sampler.BlockIntervalFloat(led.HeadDifficultyFloat(), p.hashrate)
		t += interval
		if t >= dayEnd {
			return nil
		}
		// Submissions whose time has passed become the block body. The
		// batch lives in per-partition scratch: no ledger retains it (both
		// build their own included slice).
		queue := p.pending
		daySecond := t - dayStart
		cut := 0
		for cut < len(queue) && queue[cut].second <= daySecond {
			cut++
		}
		var txs []*chain.Transaction
		if cut > 0 {
			txs = p.txScratch[:0]
			for i := 0; i < cut; i++ {
				txs = append(txs, queue[i].tx)
			}
			p.txScratch = txs
			p.pending = queue[cut:]
		}

		var coinbase types.Address
		if winner := p.sampler.WinnerIndexTotal(weights, totalWeight); winner >= 0 {
			coinbase = p.pools.Pools[winner].Address
		}

		// A scheduled crash for this block arms the medium so the store
		// dies mid-append; recovery below reopens and resumes.
		if p.storage != nil {
			for i, cs := range e.sc.Crashes {
				if !p.crashFired[i] && cs.Chain == p.name && cs.Day == day && cs.Block == blockIdx {
					p.crashFired[i] = true
					p.storage.armCrash(cs.Op)
				}
			}
		}

		parentTime := led.HeadTime()
		included, err := p.mine(t, coinbase, txs)
		if err != nil {
			var mined bool
			included, mined, err = p.recoverMine(err, t, coinbase, txs)
			if err != nil {
				return fmt.Errorf("sim: mining %s day %d: %w", p.name, day, err)
			}
			if !mined {
				return nil // chain retired (unrecoverable storage)
			}
		}
		blockIdx++
		e.Workload.ObserveMined(p.name, included)

		if len(e.observers) > 0 {
			var ev *BlockEvent
			if n := len(p.evFree); n > 0 {
				ev, p.evFree = p.evFree[n-1], p.evFree[:n-1]
			} else {
				ev = new(BlockEvent)
			}
			ev.Chain = p.name
			ev.Day = day
			ev.Number = led.HeadNumber()
			ev.Time = t
			ev.Delta = t - parentTime
			ev.Difficulty = ev.diffBuf.Set(led.HeadDifficulty())
			ev.Coinbase = coinbase
			ev.Txs = ev.Txs[:0]
			for _, tx := range included {
				ev.Txs = append(ev.Txs, TxInfoOf(tx))
			}
			p.events = append(p.events, ev)
		}
	}
}
