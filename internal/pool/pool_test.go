package pool

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"forkwatch/internal/types"
)

// TopNShare returns the combined weight of the n heaviest pools: the
// population-side view of Fig 5 the tests check the model against (the
// figure itself counts blocks, TopNFromCounts).
func (p *Population) TopNShare(n int) float64 {
	w := p.Weights()
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	if n > len(w) {
		n = len(w)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w[i]
	}
	return sum
}

// Gini returns the Gini coefficient of the pool weights: 0 is perfect
// equality, values toward 1 mean concentration.
func (p *Population) Gini() float64 { return GiniOf(p.Weights()) }

func TestZipfPopulationShape(t *testing.T) {
	p := NewZipfPopulation("eth", 20, 1.0)
	if len(p.Pools) != 20 {
		t.Fatalf("pools = %d", len(p.Pools))
	}
	sum := 0.0
	for i, pool := range p.Pools {
		if pool.Weight <= 0 {
			t.Fatalf("pool %d has weight %v", i, pool.Weight)
		}
		if i > 0 && pool.Weight > p.Pools[i-1].Weight+1e-12 {
			t.Fatal("Zipf weights should be non-increasing")
		}
		sum += pool.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	// Zipf s=1, n=20: top-1 ≈ 28%, top-5 ≈ 63% — a concentrated
	// distribution like the paper's ETH panel.
	if top1 := p.TopNShare(1); top1 < 0.2 || top1 > 0.35 {
		t.Errorf("top-1 share = %.3f", top1)
	}
	if top5 := p.TopNShare(5); top5 < 0.5 || top5 > 0.75 {
		t.Errorf("top-5 share = %.3f", top5)
	}
}

func TestUniformPopulation(t *testing.T) {
	p := NewUniformPopulation("etc", 25)
	if got := p.TopNShare(5); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("uniform top-5 = %v, want 0.2", got)
	}
}

func TestAddressForStable(t *testing.T) {
	if AddressFor("x") != AddressFor("x") {
		t.Error("address derivation should be deterministic")
	}
	if AddressFor("x") == AddressFor("y") {
		t.Error("different names should get different addresses")
	}
}

// TestConsolidationConverges: a fragmented population under preferential
// attachment must become concentrated — the paper's ETC convergence
// (observation O6).
func TestConsolidationConverges(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p := NewUniformPopulation("etc", 25)
	start5 := p.TopNShare(5)
	for day := 0; day < 200; day++ {
		p.Consolidate(0.15, 1.3, 0.25, r)
	}
	end5 := p.TopNShare(5)
	if end5 <= start5+0.2 {
		t.Errorf("top-5 share did not concentrate: %.3f -> %.3f", start5, end5)
	}
	// The saturation cap keeps the distribution stationary rather than
	// collapsing into a single pool.
	if p.TopNShare(1) > 0.6 {
		t.Errorf("top-1 share %.3f: cap failed to prevent single-pool collapse", p.TopNShare(1))
	}
	// Weights remain a distribution.
	sum := 0.0
	for _, pool := range p.Pools {
		if pool.Weight < 0 {
			t.Fatalf("negative weight %v", pool.Weight)
		}
		sum += pool.Weight
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("weights sum to %v after consolidation", sum)
	}
}

func TestConsolidateNoChurnIsNoOp(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := NewZipfPopulation("x", 10, 1)
	before := p.TopNShare(3)
	p.Consolidate(0, 1, 0.3, r)
	if p.TopNShare(3) != before {
		t.Error("zero churn should not move weights")
	}
}

func TestTopNFromCounts(t *testing.T) {
	counts := map[types.Address]int{
		AddressFor("a"): 50,
		AddressFor("b"): 30,
		AddressFor("c"): 15,
		AddressFor("d"): 5,
	}
	if got := TopNFromCounts(counts, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("top-1 = %v", got)
	}
	if got := TopNFromCounts(counts, 3); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("top-3 = %v", got)
	}
	if got := TopNFromCounts(counts, 10); got != 1 {
		t.Errorf("top-10 should cover everything: %v", got)
	}
	if got := TopNFromCounts(map[types.Address]int{}, 3); got != 0 {
		t.Errorf("empty day = %v", got)
	}
}

func TestGini(t *testing.T) {
	if g := GiniOf([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
	// One pool holds everything: Gini -> (n-1)/n.
	if g := GiniOf([]float64{0, 0, 0, 1}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("degenerate Gini = %v, want 0.75", g)
	}
	if g := GiniOf(nil); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := GiniOf([]float64{0, 0}); g != 0 {
		t.Errorf("zero-total Gini = %v", g)
	}
	// Zipf populations are more concentrated than uniform ones.
	zipf := NewZipfPopulation("z", 20, 1.0).Gini()
	uniform := NewUniformPopulation("u", 20).Gini()
	if zipf <= uniform {
		t.Errorf("Zipf Gini %v should exceed uniform %v", zipf, uniform)
	}
}

// TestConsolidationGiniConverges: ETC's Gini approaches the ETH (Zipf)
// level under the calibrated dynamics.
func TestConsolidationGiniConverges(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	etc := NewUniformPopulation("etc", 25)
	ethGini := NewZipfPopulation("eth", 20, 1.0).Gini()
	start := etc.Gini()
	for day := 0; day < 200; day++ {
		etc.Consolidate(0.15, 1.3, 0.24, r)
	}
	end := etc.Gini()
	if end <= start {
		t.Fatalf("Gini did not rise: %v -> %v", start, end)
	}
	if math.Abs(end-ethGini) > 0.35 {
		t.Errorf("converged Gini %v too far from ETH's %v", end, ethGini)
	}
}
