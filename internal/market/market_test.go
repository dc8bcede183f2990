package market

import (
	"math"
	"math/rand"
	"testing"
)

func TestGeneratePricesBasics(t *testing.T) {
	p := DefaultParams(300)
	s := GeneratePrices(p, rand.New(rand.NewSource(1)))
	if len(s.ETHUSD) != 300 || len(s.ETCUSD) != 300 {
		t.Fatalf("series lengths %d/%d", len(s.ETHUSD), len(s.ETCUSD))
	}
	if s.ETHUSD[0] != p.ETH0 || s.ETCUSD[0] != p.ETC0 {
		t.Error("day 0 should be the initial prices")
	}
	for d := 0; d < 300; d++ {
		if s.ETHUSD[d] <= 0 || s.ETCUSD[d] <= 0 {
			t.Fatalf("non-positive price on day %d", d)
		}
	}
}

func TestGeneratePricesDeterministic(t *testing.T) {
	p := DefaultParams(100)
	a := GeneratePrices(p, rand.New(rand.NewSource(7)))
	b := GeneratePrices(p, rand.New(rand.NewSource(7)))
	for d := range a.ETHUSD {
		if a.ETHUSD[d] != b.ETHUSD[d] || a.ETCUSD[d] != b.ETCUSD[d] {
			t.Fatal("same seed should reproduce prices")
		}
	}
}

func TestRallyRaisesETH(t *testing.T) {
	p := DefaultParams(300)
	p.SharedVol, p.IdioVol, p.Drift, p.ETHEdge = 0, 0, 0, 0 // isolate the rally term
	p.RallyETCShare = 0
	s := GeneratePrices(p, rand.New(rand.NewSource(1)))
	if s.ETHUSD[239] != p.ETH0 {
		t.Error("ETH should be flat before the rally")
	}
	if s.ETHUSD[299] <= s.ETHUSD[239]*2 {
		t.Errorf("rally too weak: %v -> %v", s.ETHUSD[239], s.ETHUSD[299])
	}
	if s.ETCUSD[299] != p.ETC0 {
		t.Error("rally should not move ETC when RallyETCShare is 0")
	}
	// With a shared rally, ETC rises too — but less than ETH.
	p.RallyETCShare = 0.6
	s = GeneratePrices(p, rand.New(rand.NewSource(1)))
	if s.ETCUSD[299] <= p.ETC0 {
		t.Error("shared rally should lift ETC")
	}
	if s.ETCUSD[299]/p.ETC0 >= s.ETHUSD[299]/p.ETH0 {
		t.Error("ETH should outpace ETC during the rally")
	}
}

// TestPricesCorrelated: shared volatility dominates, so daily log returns
// of the two chains must be strongly correlated — the market coupling the
// paper's Fig 3 relies on.
func TestPricesCorrelated(t *testing.T) {
	p := DefaultParams(270)
	p.RallyDrift = 0
	s := GeneratePrices(p, rand.New(rand.NewSource(3)))
	rets := func(xs []float64) []float64 {
		out := make([]float64, len(xs)-1)
		for i := 1; i < len(xs); i++ {
			out[i-1] = math.Log(xs[i] / xs[i-1])
		}
		return out
	}
	c := Correlation(rets(s.ETHUSD), rets(s.ETCUSD))
	if c < 0.8 {
		t.Errorf("return correlation = %.3f, want > 0.8", c)
	}
}

func TestAllocatorConvergesToPriceShare(t *testing.T) {
	a := Allocator{Elasticity: 0.3}
	share := 0.5
	for i := 0; i < 100; i++ {
		share = a.Step(share, 12, 1.2) // target 12/13.2 ≈ 0.909
	}
	want := 12.0 / 13.2
	if math.Abs(share-want) > 1e-6 {
		t.Errorf("share = %.4f, want %.4f", share, want)
	}
}

func TestAllocatorClamps(t *testing.T) {
	a := Allocator{Elasticity: 5} // over-aggressive
	if s := a.Step(0.9, 1, 0); s > 1 || s < 0 {
		t.Errorf("share %v out of range", s)
	}
	if s := a.Step(0.5, 0, 0); s != 0.5 {
		t.Errorf("degenerate prices should not move the share: %v", s)
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
