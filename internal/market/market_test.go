package market

import (
	"math"
	"math/rand"
	"testing"
)

// twoWay draws the paper's two-way walk: the pro-fork leg first, the
// classic leg second, as sim.Scenario.LegacyPartitions maps them.
func twoWay(p Params, seed int64) (eth, etc []float64) {
	s := GenerateSeries(p, []ChainParams{
		{Price0: p.ETH0, DriftEdge: p.ETHEdge, RallyShare: 1},
		{Price0: p.ETC0, DriftEdge: 0, RallyShare: p.RallyETCShare},
	}, rand.New(rand.NewSource(seed)))
	return s[0], s[1]
}

func TestGeneratePricesBasics(t *testing.T) {
	p := DefaultParams(300)
	eth, etc := twoWay(p, 1)
	if len(eth) != 300 || len(etc) != 300 {
		t.Fatalf("series lengths %d/%d", len(eth), len(etc))
	}
	if eth[0] != p.ETH0 || etc[0] != p.ETC0 {
		t.Error("day 0 should be the initial prices")
	}
	for d := 0; d < 300; d++ {
		if eth[d] <= 0 || etc[d] <= 0 {
			t.Fatalf("non-positive price on day %d", d)
		}
	}
}

func TestGeneratePricesDeterministic(t *testing.T) {
	p := DefaultParams(100)
	aETH, aETC := twoWay(p, 7)
	bETH, bETC := twoWay(p, 7)
	for d := range aETH {
		if aETH[d] != bETH[d] || aETC[d] != bETC[d] {
			t.Fatal("same seed should reproduce prices")
		}
	}
}

func TestRallyRaisesETH(t *testing.T) {
	p := DefaultParams(300)
	p.SharedVol, p.IdioVol, p.Drift, p.ETHEdge = 0, 0, 0, 0 // isolate the rally term
	p.RallyETCShare = 0
	eth, etc := twoWay(p, 1)
	if eth[239] != p.ETH0 {
		t.Error("ETH should be flat before the rally")
	}
	if eth[299] <= eth[239]*2 {
		t.Errorf("rally too weak: %v -> %v", eth[239], eth[299])
	}
	if etc[299] != p.ETC0 {
		t.Error("rally should not move ETC when RallyETCShare is 0")
	}
	// With a shared rally, ETC rises too — but less than ETH.
	p.RallyETCShare = 0.6
	eth, etc = twoWay(p, 1)
	if etc[299] <= p.ETC0 {
		t.Error("shared rally should lift ETC")
	}
	if etc[299]/p.ETC0 >= eth[299]/p.ETH0 {
		t.Error("ETH should outpace ETC during the rally")
	}
}

// TestPricesCorrelated: shared volatility dominates, so daily log returns
// of the two chains must be strongly correlated — the market coupling the
// paper's Fig 3 relies on.
func TestPricesCorrelated(t *testing.T) {
	p := DefaultParams(270)
	p.RallyDrift = 0
	eth, etc := twoWay(p, 3)
	rets := func(xs []float64) []float64 {
		out := make([]float64, len(xs)-1)
		for i := 1; i < len(xs); i++ {
			out[i-1] = math.Log(xs[i] / xs[i-1])
		}
		return out
	}
	c := Correlation(rets(eth), rets(etc))
	if c < 0.8 {
		t.Errorf("return correlation = %.3f, want > 0.8", c)
	}
}

func TestAllocatorConvergesToPriceShare(t *testing.T) {
	a := Allocator{Elasticity: 0.3}
	share := 0.5
	for i := 0; i < 100; i++ {
		share = a.StepToward(share, 12/13.2) // the price share, ≈ 0.909
	}
	want := 12.0 / 13.2
	if math.Abs(share-want) > 1e-6 {
		t.Errorf("share = %.4f, want %.4f", share, want)
	}
}

func TestAllocatorClamps(t *testing.T) {
	a := Allocator{Elasticity: 5} // over-aggressive
	if s := a.StepToward(0.9, 1); s > 1 || s < 0 {
		t.Errorf("share %v out of range", s)
	}
	if s := a.StepToward(0.1, 0); s > 1 || s < 0 {
		t.Errorf("share %v out of range", s)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if c := Correlation(x, x); math.Abs(c-1) > 1e-12 {
		t.Errorf("self correlation = %v", c)
	}
	y := []float64{4, 3, 2, 1}
	if c := Correlation(x, y); math.Abs(c+1) > 1e-12 {
		t.Errorf("anti correlation = %v", c)
	}
	if !math.IsNaN(Correlation(x, []float64{1, 1, 1, 1})) {
		t.Error("constant series should yield NaN")
	}
	if !math.IsNaN(Correlation(x, x[:2])) {
		t.Error("mismatched lengths should yield NaN")
	}
}
