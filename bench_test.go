// Benchmark harness: one benchmark per figure and in-text experiment of
// the paper, plus ablations of the design choices called out in DESIGN.md
// §5. Each benchmark runs the relevant scenario and reports the headline
// statistics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full experiment table. EXPERIMENTS.md records
// paper-vs-measured values. Absolute magnitudes are simulator-scale; the
// shapes (who wins, rough factors, crossovers) are the reproduction
// target.
package forkwatch_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/discover"
	"forkwatch/internal/keccak"
	"forkwatch/internal/market"
	"forkwatch/internal/p2p"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// runScenario executes a scenario and returns the report, failing the
// benchmark on error.
func runScenario(b *testing.B, sc *forkwatch.Scenario) *forkwatch.Report {
	b.Helper()
	rep, err := forkwatch.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFigure1ShortTermDynamics reproduces Fig 1: blocks per hour,
// difficulty and inter-block delta over the month following the fork.
// Paper: ETC block rate collapses to ~0 for almost a day, deltas spike
// above 1,200 s (~2 orders over the 14 s target), and difficulty takes
// ~2 days to re-adjust.
func BenchmarkFigure1ShortTermDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 30))
		c := rep.Collector
		b.ReportMetric(analysis.MeanOver(c.BlocksPerHour("ETC"), 0, 6), "etc_blocks/hr_h0-6")
		b.ReportMetric(analysis.MeanOver(c.BlocksPerHour("ETH"), 0, 6), "eth_blocks/hr_h0-6")
		b.ReportMetric(analysis.MaxOver(c.HourlyMeanDelta("ETC"), 0, 96), "etc_max_delta_s")
		rec := rep.RecoveryHours()
		b.ReportMetric(float64(rec[1]), "etc_recovery_hours")
	}
}

// BenchmarkFigure2LongTermDynamics reproduces Fig 2 over nine months:
// daily difficulty (ETH ~10x ETC), transactions per day (~2.5:1 rising
// toward ~5:1 in the March speculation wave) and the contract-call
// fraction (similar across chains).
func BenchmarkFigure2LongTermDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 270))
		c := rep.Collector
		days := c.Days()
		dEth := c.DailyDifficulty("ETH")
		dEtc := c.DailyDifficulty("ETC")
		b.ReportMetric(dEth[days-1]/dEtc[days-1], "difficulty_ratio_final")
		b.ReportMetric(dEth[days-1]/dEth[1], "eth_difficulty_growth")
		ethTx := c.TxPerDay("ETH")
		etcTx := c.TxPerDay("ETC")
		early := analysis.MeanOver(ethTx, 30, 60) / analysis.MeanOver(etcTx, 30, 60)
		late := analysis.MeanOver(ethTx, days-10, days) / analysis.MeanOver(etcTx, days-10, days)
		b.ReportMetric(early, "tx_ratio_day30-60")
		b.ReportMetric(late, "tx_ratio_final")
		b.ReportMetric(analysis.MeanOver(c.PctContract("ETH"), 30, days), "eth_pct_contract")
		b.ReportMetric(analysis.MeanOver(c.PctContract("ETC"), 30, days), "etc_pct_contract")
	}
}

// BenchmarkFigure3HashesPerUSD reproduces Fig 3: the expected hashes per
// USD on the two chains are nearly identical (the market operates
// efficiently). Paper: visually indistinguishable curves; we report the
// Pearson correlation over the paper's plotted window (from ~day 50,
// September 2016) and the mean cross-chain payoff ratio.
func BenchmarkFigure3HashesPerUSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 270))
		c := rep.Collector
		days := c.Days()
		eth := c.HashesPerUSD("ETH", 5)
		etc := c.HashesPerUSD("ETC", 5)
		b.ReportMetric(c.PayoffCorrelation(5, "ETH", "ETC"), "correlation_full")
		b.ReportMetric(correlationFrom(eth, etc, 50), "correlation_post_sep")
		// Mean |ratio| deviation from 1 after stabilisation.
		dev := 0.0
		n := 0
		for d := 50; d < days; d++ {
			if etc[d] > 0 {
				r := eth[d] / etc[d]
				if r < 1 {
					r = 1 / r
				}
				dev += r - 1
				n++
			}
		}
		b.ReportMetric(dev/float64(n), "mean_payoff_gap")
	}
}

func correlationFrom(x, y []float64, from int) float64 {
	if from >= len(x) || from >= len(y) {
		return 0
	}
	return market.Correlation(x[from:], y[from:])
}

// BenchmarkFigure4ReplayEchoes reproduces Fig 4: rebroadcast transactions
// spike right after the fork (up to ~50-60% of ETC's traffic), decline as
// users split funds and adopt chain ids, drop sharply at ETC's Jan 2017
// replay protection, yet persist at the study's end. Most echoes flow
// ETH -> ETC.
func BenchmarkFigure4ReplayEchoes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 270))
		c := rep.Collector
		days := c.Days()
		b.ReportMetric(analysis.MaxOver(c.EchoPct("ETC"), 0, 30), "peak_etc_echo_pct")
		b.ReportMetric(analysis.MeanOver(c.EchoesPerDay("ETC"), 100, 170), "etc_echoes/day_pre_eip155")
		b.ReportMetric(analysis.MeanOver(c.EchoesPerDay("ETC"), days-30, days), "etc_echoes/day_final")
		b.ReportMetric(float64(c.TotalEchoes("ETC"))/float64(c.TotalEchoes("ETH")), "direction_ratio_eth_to_etc")
	}
}

// BenchmarkFigure5PoolConcentration reproduces Fig 5: the top-1/3/5 pool
// block shares. Paper: ETH's distribution is immediately the pre-fork one
// and stays constant; ETC starts far more fragmented and converges to the
// same ratios over months.
func BenchmarkFigure5PoolConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 270))
		c := rep.Collector
		days := c.Days()
		t5e := c.TopNShare("ETH", 5)
		t5c := c.TopNShare("ETC", 5)
		b.ReportMetric(analysis.MeanOver(t5e, 0, days), "eth_top5_mean")
		b.ReportMetric(analysis.MeanOver(t5c, 0, 30), "etc_top5_first_month")
		b.ReportMetric(analysis.MeanOver(t5c, days-30, days), "etc_top5_final_month")
		b.ReportMetric(analysis.MeanOver(c.TopNShare("ETH", 1), 0, days), "eth_top1_mean")
		b.ReportMetric(analysis.MeanOver(c.TopNShare("ETC", 1), days-30, days), "etc_top1_final_month")
		b.ReportMetric(analysis.MeanOver(c.PoolGini("ETH"), 0, days), "eth_gini_mean")
		b.ReportMetric(analysis.MeanOver(c.PoolGini("ETC"), days-30, days), "etc_gini_final_month")
	}
}

// BenchmarkE1NodePartition reproduces the in-text observation O1: "ETC
// experienced a sudden loss of roughly 90% of the nodes in its network
// immediately after the fork". A live p2p network of real servers is
// split 90/10 by fork id; the census crawler (presenting ETC's fork id)
// counts who still answers.
func BenchmarkE1NodePartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loss := runPartitionCensus(b, 100, 10)
		b.ReportMetric(loss*100, "node_loss_pct")
	}
}

func runPartitionCensus(b *testing.B, total, keepClassic int) float64 {
	b.Helper()
	gen := &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       1_469_020_840,
	}
	const forkBlock = 2
	eth, err := chain.NewBlockchain(chain.ETHConfig(forkBlock, nil, types.Address{}), gen)
	if err != nil {
		b.Fatal(err)
	}
	etc, err := eth.NewSibling(chain.ETCConfig(forkBlock), gen)
	if err != nil {
		b.Fatal(err)
	}
	mine := func(bc *chain.Blockchain, cross bool) {
		blk, err := bc.BuildBlock(types.Address{}, bc.Head().Header.Time+14, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := bc.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
		if cross {
			other := etc
			if bc == etc {
				other = eth
			}
			if err := other.InsertBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	mine(eth, true)  // shared block 1
	mine(eth, false) // divergent fork blocks
	mine(etc, false)

	mem := p2p.NewMemNet()
	nodes := make([]discover.Node, total)
	servers := make([]*p2p.Server, total)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("census%03d", i)
		h := keccak.Sum256([]byte(name))
		nodes[i] = discover.Node{ID: discover.IDFromHash(types.BytesToHash(h[:])), Addr: name}
		bc := eth
		if i < keepClassic {
			bc = etc
		}
		servers[i] = p2p.NewServer(p2p.Config{
			Self: nodes[i], NetworkID: 1, MaxPeers: total,
			Backend: p2p.NewChainBackend(bc), Dialer: mem,
		})
		ln, err := mem.Listen(name)
		if err != nil {
			b.Fatal(err)
		}
		go servers[i].Serve(ln)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	head := etc.Head()
	td, _ := etc.TD(head.Hash())
	ch := keccak.Sum256([]byte("census-crawler"))
	probe := &p2p.Probe{
		Self: discover.Node{ID: discover.IDFromHash(types.BytesToHash(ch[:])), Addr: "crawler"},
		Status: p2p.Status{
			NetworkID: 1, TD: td, Head: head.Hash(), HeadNumber: head.Number(),
			Genesis: etc.Genesis().Hash(), ForkID: etc.ForkID(),
		},
		Dialer: mem,
	}
	res := discover.Crawl(nodes, probe.FindNodeFunc(), 0)
	return float64(len(res.Unreachable)) / float64(len(res.Reachable)+len(res.Unreachable))
}

// BenchmarkE2StabilizationTime reproduces observation O2: "It took two
// days for ETC to resume producing blocks at the target rate" after ~97%+
// of hashpower left instantly, because the difficulty filter's clamped
// step limits the per-block decay.
func BenchmarkE2StabilizationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runScenario(b, forkwatch.NewScenario(1, 10))
		rec := rep.RecoveryHours()
		b.ReportMetric(float64(rec[1]), "etc_recovery_hours")
		b.ReportMetric(float64(rec[1])/24, "etc_recovery_days")
	}
}

// BenchmarkE3TransientForkLength reproduces §2.1's contrast between
// transient protocol-upgrade forks: ETH's November 2016 fork resolved
// after 86 blocks; ETC's January 2017 fork persisted for 3,583. The model:
// the laggard (non-upgraded) subgroup is a sliver of a big, fast-reacting
// network on ETH, and a large pool in a small, slow-reacting network on
// ETC.
func BenchmarkE3TransientForkLength(b *testing.B) {
	cfg := chain.MainnetLikeConfig()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(9))
		ethLike := &sim.ForkRace{Config: cfg, TotalHashrate: 5e12, MinorityShare: 0.2, NoticeMeanSeconds: 2 * 3600}
		etcLike := &sim.ForkRace{Config: cfg, TotalHashrate: 5e11, MinorityShare: 0.3, NoticeMeanSeconds: 20 * 3600}
		b.ReportMetric(ethLike.RunMean(100, r), "eth_fork_blocks")
		b.ReportMetric(etcLike.RunMean(100, r), "etc_fork_blocks")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationDifficultyClamp removes the Homestead -99 clamp on the
// per-block difficulty step. The clamp binds once inter-block deltas
// exceed ~1000 s, i.e. when the hashrate collapse is severe; the ablation
// therefore runs a harsher fork (99.5% of hashpower leaving) where the
// unclamped filter would adjust in a handful of blocks while the clamped
// one stalls — evidence the clamp is the mechanism behind O2's slow
// recovery.
func BenchmarkAblationDifficultyClamp(b *testing.B) {
	for _, clamp := range []int64{99, 1_000_000} {
		b.Run(fmt.Sprintf("clamp=%d", clamp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 6)
				sc.Partitions = sc.PartitionSpecs()
				sc.Partitions[1].ShareAtFork = 0.005
				eng, err := forkwatch.NewEngine(sc)
				if err != nil {
					b.Fatal(err)
				}
				eng.Ledger("ETH").Config().DifficultyClampFactor = clamp
				eng.Ledger("ETC").Config().DifficultyClampFactor = clamp
				col := analysis.NewCollector(sc.Epoch)
				eng.AddObserver(col)
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(col.RecoveryHour("ETC", 14, 0.9, 6)), "etc_recovery_hours")
			}
		})
	}
}

// BenchmarkAblationArbitrageElasticity sweeps how aggressively miners
// chase the more profitable chain. The paper's near-identical payoff
// curves require meaningful elasticity; at zero the two chains' payoffs
// decouple.
func BenchmarkAblationArbitrageElasticity(b *testing.B) {
	for _, e := range []float64{0, 0.02, 0.1, 0.5} {
		b.Run(fmt.Sprintf("elasticity=%v", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 200)
				sc.ArbitrageElasticity = e
				rep := runScenario(b, sc)
				eth := rep.Collector.HashesPerUSD("ETH", 5)
				etc := rep.Collector.HashesPerUSD("ETC", 5)
				b.ReportMetric(correlationFrom(eth, etc, 50), "correlation_post_sep")
			}
		})
	}
}

// BenchmarkAblationReplayProtection compares three deployments of chain
// ids: never, the historical retrofit (day 125/177), and from day 0. The
// echo volume collapses in proportion — quantifying how much of Fig 4 was
// avoidable.
func BenchmarkAblationReplayProtection(b *testing.B) {
	cases := []struct {
		name     string
		eth, etc int
	}{
		{"never", -1, -1},
		{"historical", 125, 177},
		{"from_genesis", 0, 0},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 220)
				sc.Partitions = sc.PartitionSpecs()
				sc.Partitions[0].EIP155Day = tc.eth
				sc.Partitions[1].EIP155Day = tc.etc
				rep := runScenario(b, sc)
				b.ReportMetric(float64(rep.Collector.TotalEchoes("ETC")), "total_etc_echoes")
				b.ReportMetric(analysis.MeanOver(rep.Collector.EchoesPerDay("ETC"), 190, 220), "etc_echoes/day_final")
			}
		})
	}
}

// BenchmarkAblationPoolAttachment sweeps the preferential-attachment
// exponent driving ETC's pool consolidation (Fig 5). At alpha=1 the
// process barely concentrates over the study window; the convergence the
// paper observed implies super-linear attachment.
func BenchmarkAblationPoolAttachment(b *testing.B) {
	for _, alpha := range []float64{1.0, 1.3, 1.8} {
		b.Run(fmt.Sprintf("alpha=%v", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 200)
				sc.Partitions = sc.PartitionSpecs()
				sc.Partitions[1].PoolAlpha = alpha
				rep := runScenario(b, sc)
				t5 := rep.Collector.TopNShare("ETC", 5)
				b.ReportMetric(analysis.MeanOver(t5, 170, 200), "etc_top5_final_month")
			}
		})
	}
}

// BenchmarkEngineParallelism measures the two-partition day-barrier
// engine across Scenario.Parallelism settings on the Figure 2 horizon
// (270 days, fast ledgers): parallelism=1 is the serial reference,
// parallelism=2/4 step ETH and ETC on separate goroutines. Output is
// byte-identical across variants (TestParallelFiguresByteIdentical), so
// the ns/op delta is pure scheduling: on a multi-core host the parallel
// variants overlap the two partitions' mining; on a single-core host
// they measure the barrier overhead instead.
func BenchmarkEngineParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 270)
				sc.Parallelism = par
				rep := runScenario(b, sc)
				c := rep.Collector
				days := c.Days()
				// Sanity metric shared across variants: identical by
				// construction, so a drift here flags a determinism bug.
				b.ReportMetric(c.DailyDifficulty("ETH")[days-1]/c.DailyDifficulty("ETC")[days-1], "difficulty_ratio_final")
			}
		})
	}
}

// BenchmarkEngineParallelismFull is the same sweep on the full-fidelity
// substrate (real EVM, tries, seals) over a short horizon, where
// per-block work dominates and the day barrier is comparatively cheap.
func BenchmarkEngineParallelismFull(b *testing.B) {
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := forkwatch.NewScenario(1, 2)
				sc.Mode = forkwatch.ModeFull
				sc.DayLength = 3600
				sc.Users = 50
				sc.ETHTxPerDay = 40
				sc.ETCTxPerDay = 15
				sc.Parallelism = par
				if _, err := forkwatch.Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullFidelityDay measures the cost of one simulated day in full
// (EVM + tries + seals) mode relative to the fast ledger, documenting the
// substitution DESIGN.md makes for nine-month horizons.
func BenchmarkFullFidelityDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := forkwatch.NewScenario(int64(i)+1, 1)
		sc.Mode = forkwatch.ModeFull
		sc.DayLength = 3600
		sc.Users = 50
		sc.ETHTxPerDay = 40
		sc.ETCTxPerDay = 15
		if _, err := forkwatch.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullFidelityDayDisk is the same simulated day persisting every
// trie node, block and WAL record through the log-structured disk backend
// (fsync per commit): the price of durability relative to the in-memory
// run above.
func BenchmarkFullFidelityDayDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := forkwatch.NewScenario(int64(i)+1, 1)
		sc.Mode = forkwatch.ModeFull
		sc.DayLength = 3600
		sc.Users = 50
		sc.ETHTxPerDay = 40
		sc.ETCTxPerDay = 15
		sc.Storage = forkwatch.StorageConfig{
			Backend: forkwatch.StorageDisk,
			DataDir: b.TempDir(),
		}
		if _, err := forkwatch.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveBuildDense is one dense-6h disk serve.Build — the
// archive-build-disk op of bench/ (bench/scenario.go's rates: 2016-mainnet
// 40 000 / 16 000 tx per 86 400 s, 2 000 users, DayLength 21 600) — so that
// `make profile` can point pprof at the full-fidelity write path.
func BenchmarkArchiveBuildDense(b *testing.B) {
	const dayLength = 21600
	for i := 0; i < b.N; i++ {
		sc := forkwatch.NewScenario(1, 1)
		sc.Mode = forkwatch.ModeFull
		sc.Users = 2000
		sc.DayLength = dayLength
		sc.ETHTxPerDay = 40000 * dayLength / 86400
		sc.ETCTxPerDay = 16000 * dayLength / 86400
		sc.Storage = forkwatch.StorageConfig{Backend: forkwatch.StorageDisk, DataDir: b.TempDir()}
		res, err := serve.Build(sc, rpc.ServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
}
