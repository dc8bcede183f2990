package analysis

import (
	"math"
	"math/big"
	"testing"

	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

const epoch = 1_000_000

func blockEv(chain string, day int, time uint64, delta uint64, diff int64, pool byte, txs ...sim.TxInfo) *sim.BlockEvent {
	return &sim.BlockEvent{
		Chain:      chain,
		Day:        day,
		Time:       time,
		Delta:      delta,
		Difficulty: big.NewInt(diff),
		Coinbase:   types.BytesToAddress([]byte{pool}),
		Txs:        txs,
	}
}

func tx(id byte, contract bool) sim.TxInfo {
	return sim.TxInfo{Hash: types.BytesToHash([]byte{id}), Contract: contract}
}

func TestHourlyBuckets(t *testing.T) {
	c := NewCollector(epoch)
	c.OnBlock(blockEv("ETH", 0, epoch+10, 14, 100, 1))
	c.OnBlock(blockEv("ETH", 0, epoch+30, 20, 200, 1))
	c.OnBlock(blockEv("ETH", 0, epoch+3700, 30, 300, 1)) // hour 1

	bph := c.BlocksPerHour("ETH")
	if len(bph) != 2 || bph[0] != 2 || bph[1] != 1 {
		t.Errorf("blocks per hour = %v", bph)
	}
	diff := c.HourlyMeanDifficulty("ETH")
	if diff[0] != 150 || diff[1] != 300 {
		t.Errorf("hourly difficulty = %v", diff)
	}
	delta := c.HourlyMeanDelta("ETH")
	if delta[0] != 17 || delta[1] != 30 {
		t.Errorf("hourly delta = %v", delta)
	}
}

func TestEmptyHourCarriesPrevious(t *testing.T) {
	c := NewCollector(epoch)
	c.OnBlock(blockEv("ETC", 0, epoch+10, 14, 100, 1))
	c.OnBlock(blockEv("ETC", 0, epoch+2*3600+10, 7200, 50, 1)) // hour 2; hour 1 empty
	diff := c.HourlyMeanDifficulty("ETC")
	if diff[1] != 100 {
		t.Errorf("empty hour should carry previous difficulty: %v", diff)
	}
	if c.BlocksPerHour("ETC")[1] != 0 {
		t.Error("empty hour should have zero blocks")
	}
}

func TestDailyAggregates(t *testing.T) {
	c := NewCollector(epoch)
	c.OnBlock(blockEv("ETH", 0, epoch+10, 14, 100, 1, tx(1, false), tx(2, true)))
	c.OnBlock(blockEv("ETH", 1, epoch+90_000, 14, 100, 2, tx(3, true)))
	c.OnDay(dayEv(0, 12, 1.2, big.NewInt(1000), big.NewInt(100)))
	c.OnDay(dayEv(1, 13, 1.1, big.NewInt(1100), big.NewInt(90)))

	if c.Days() != 2 {
		t.Fatalf("days = %d", c.Days())
	}
	if got := c.TxPerDay("ETH"); got[0] != 2 || got[1] != 1 {
		t.Errorf("tx per day = %v", got)
	}
	if got := c.PctContract("ETH"); got[0] != 50 || got[1] != 100 {
		t.Errorf("pct contract = %v", got)
	}
	if got := c.DailyDifficulty("ETH"); got[0] != 1000 || got[1] != 1100 {
		t.Errorf("daily difficulty = %v", got)
	}
}

func TestEchoDetection(t *testing.T) {
	c := NewCollector(epoch)
	// tx 1 mined on ETH day 0, echoed into ETC day 1.
	c.OnBlock(blockEv("ETH", 0, epoch+10, 14, 100, 1, tx(1, false)))
	c.OnBlock(blockEv("ETC", 1, epoch+86_500, 14, 100, 1, tx(1, false)))
	// tx 2 mined on ETC day 1, echoed into ETH day 1 (same day).
	c.OnBlock(blockEv("ETC", 1, epoch+86_600, 14, 100, 1, tx(2, false)))
	c.OnBlock(blockEv("ETH", 1, epoch+86_700, 14, 100, 1, tx(2, false)))
	// tx 3 unique to ETH.
	c.OnBlock(blockEv("ETH", 1, epoch+86_800, 14, 100, 1, tx(3, false)))
	c.OnDay(dayEv(0, 0, 0, big.NewInt(1), big.NewInt(1)))
	c.OnDay(dayEv(1, 0, 0, big.NewInt(1), big.NewInt(1)))

	if got := c.EchoesPerDay("ETC"); got[0] != 0 || got[1] != 1 {
		t.Errorf("ETC echoes = %v", got)
	}
	if got := c.EchoesPerDay("ETH"); got[1] != 1 {
		t.Errorf("ETH echoes = %v", got)
	}
	if c.TotalEchoes("ETC") != 1 || c.TotalEchoes("ETH") != 1 {
		t.Errorf("totals = %d/%d", c.TotalEchoes("ETC"), c.TotalEchoes("ETH"))
	}
	// Echo percentage: ETH day 1 had 2 txs, 1 echo.
	if got := c.EchoPct("ETH"); got[1] != 50 {
		t.Errorf("ETH echo pct = %v", got)
	}
	// A re-appearance on the same chain is not an echo.
	c.OnBlock(blockEv("ETH", 1, epoch+86_900, 14, 100, 1, tx(3, false)))
	if c.TotalEchoes("ETH") != 1 {
		t.Error("same-chain duplicate counted as echo")
	}
}

func TestHashesPerUSDAndCorrelation(t *testing.T) {
	c := NewCollector(epoch)
	for d := 0; d < 10; d++ {
		c.OnDay(dayEv(d, 10, 1, big.NewInt(int64(1000*(d+1))), big.NewInt(int64(100*(d+1)))))
	}
	eth := c.HashesPerUSD("ETH", 5)
	etc := c.HashesPerUSD("ETC", 5)
	// D/(5*P): identical by construction → correlation 1.
	for d := 0; d < 10; d++ {
		if math.Abs(eth[d]-etc[d]) > 1e-9 {
			t.Fatalf("day %d: %v vs %v", d, eth[d], etc[d])
		}
	}
	if corr := c.PayoffCorrelation(5, "ETH", "ETC"); math.Abs(corr-1) > 1e-9 {
		t.Errorf("correlation = %v", corr)
	}
	// Difficulty 70e12, 5 ether reward, $14: 1e12 hashes per USD; no price,
	// no value.
	b := DayBucket{Difficulty: 70e12, USD: 14}
	if got := b.HashesPerUSD(RewardEther); math.Abs(got-1e12)/1e12 > 1e-9 {
		t.Errorf("HashesPerUSD = %g, want 1e12", got)
	}
	if got := (&DayBucket{Difficulty: 70e12}).HashesPerUSD(RewardEther); got != 0 {
		t.Errorf("HashesPerUSD without a price = %g, want 0", got)
	}
}

func TestTopNShare(t *testing.T) {
	c := NewCollector(epoch)
	// Day 0: pool 1 mines 3 blocks, pool 2 mines 1.
	for i := 0; i < 3; i++ {
		c.OnBlock(blockEv("ETH", 0, epoch+uint64(i*20+10), 14, 100, 1))
	}
	c.OnBlock(blockEv("ETH", 0, epoch+100, 14, 100, 2))
	c.OnDay(dayEv(0, 0, 0, big.NewInt(1), big.NewInt(1)))
	if got := c.TopNShare("ETH", 1); got[0] != 0.75 {
		t.Errorf("top-1 = %v", got)
	}
	if got := c.TopNShare("ETH", 2); got[0] != 1 {
		t.Errorf("top-2 = %v", got)
	}
}

func TestRecoveryHour(t *testing.T) {
	c := NewCollector(epoch)
	// Hours 0-9: 10 blocks/hour (collapsed); hours 10-19: 250/hour.
	for h := 0; h < 20; h++ {
		n := 10
		if h >= 10 {
			n = 250
		}
		for i := 0; i < n; i++ {
			c.OnBlock(blockEv("ETC", 0, epoch+uint64(h)*3600+uint64(i), 14, 100, 1))
		}
	}
	if got := c.RecoveryHour("ETC", 14, 0.9, 3); got != 10 {
		t.Errorf("recovery hour = %d, want 10", got)
	}
	if got := c.RecoveryHour("ETC", 1, 0.9, 3); got != -1 {
		t.Errorf("unreachable target should be -1, got %d", got)
	}
}

func TestMeanMaxOver(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if MeanOver(s, 0, 4) != 2.5 {
		t.Error("mean wrong")
	}
	if MeanOver(s, -5, 99) != 2.5 {
		t.Error("clamping wrong")
	}
	if MeanOver(s, 3, 3) != 0 {
		t.Error("empty range should be 0")
	}
	if MaxOver(s, 1, 3) != 3 {
		t.Error("max wrong")
	}
}

// TestEndToEndWithEngine runs a short simulation and sanity-checks the
// collector sees a consistent world.
func TestEndToEndWithEngine(t *testing.T) {
	sc := sim.NewScenario(11, 2)
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 10
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(sc.Epoch)
	eng.AddObserver(c)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Days() != 2 {
		t.Fatalf("days = %d", c.Days())
	}
	ethTx := MeanOver(c.TxPerDay("ETH"), 0, 2)
	if ethTx <= 0 {
		t.Error("no ETH transactions observed")
	}
	if got := c.DailyDifficulty("ETH"); got[1] <= 0 {
		t.Error("difficulty series empty")
	}
}

func TestSameDayEchoes(t *testing.T) {
	c := NewCollector(epoch)
	// tx 1: cross-chain same day. tx 2: next-day echo.
	c.OnBlock(blockEv("ETH", 0, epoch+10, 14, 100, 1, tx(1, false)))
	c.OnBlock(blockEv("ETC", 0, epoch+20, 14, 100, 1, tx(1, false)))
	c.OnBlock(blockEv("ETH", 0, epoch+30, 14, 100, 1, tx(2, false)))
	c.OnBlock(blockEv("ETC", 1, epoch+90_000, 14, 100, 1, tx(2, false)))
	c.OnDay(dayEv(0, 0, 0, big.NewInt(1), big.NewInt(1)))
	c.OnDay(dayEv(1, 0, 0, big.NewInt(1), big.NewInt(1)))

	same := c.SameDayEchoesPerDay("ETC")
	if same[0] != 1 || same[1] != 0 {
		t.Errorf("same-day echoes = %v", same)
	}
	all := c.EchoesPerDay("ETC")
	if all[0] != 1 || all[1] != 1 {
		t.Errorf("echoes = %v", all)
	}
}

func TestPoolGiniSeries(t *testing.T) {
	c := NewCollector(epoch)
	// Day 0: perfectly equal pools; day 1: one pool dominates.
	c.OnBlock(blockEv("ETH", 0, epoch+10, 14, 100, 1))
	c.OnBlock(blockEv("ETH", 0, epoch+20, 14, 100, 2))
	for i := 0; i < 9; i++ {
		c.OnBlock(blockEv("ETH", 1, epoch+86_400+uint64(i*20)+10, 14, 100, 1))
	}
	c.OnBlock(blockEv("ETH", 1, epoch+88_000, 14, 100, 2))
	c.OnDay(dayEv(0, 0, 0, big.NewInt(1), big.NewInt(1)))
	c.OnDay(dayEv(1, 0, 0, big.NewInt(1), big.NewInt(1)))
	g := c.PoolGini("ETH")
	if g[0] != 0 {
		t.Errorf("equal-day Gini = %v, want 0", g[0])
	}
	if g[1] <= g[0] {
		t.Errorf("concentrated day should have higher Gini: %v", g)
	}
}

// dayEv builds a two-partition day event in the engine's partition order.
func dayEv(day int, ethUSD, etcUSD float64, ethDiff, etcDiff *big.Int) *sim.DayEvent {
	return &sim.DayEvent{Day: day, Partitions: []sim.PartitionDay{
		{Name: "ETH", USD: ethUSD, Difficulty: ethDiff},
		{Name: "ETC", USD: etcUSD, Difficulty: etcDiff},
	}}
}
