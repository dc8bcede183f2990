// Package market models the economic coupling between the two partitions:
// daily USD exchange rates for ETH and ETC and the hashrate arbitrage that
// the paper's Figure 3 shows operating efficiently.
//
// Substitution (DESIGN.md §2): the paper joins its ledgers with
// coinmarketcap daily price data, which is unavailable offline. We generate
// prices from a coupled geometric random walk — one shared market factor
// plus per-chain idiosyncratic noise and the two exogenous events the
// paper identifies (the Zcash launch pulling miners away in late October
// 2016, and the March 2017 ETH rally) — and implement the arbitrage
// mechanism the paper hypothesises: miners shift hashrate toward the chain
// paying more USD per hash, equalising expected hashes-per-USD.
package market

import (
	"math"
	"math/rand"
)

// Params configures the price generator.
type Params struct {
	// Days is the number of daily samples to generate.
	Days int
	// ETH0 and ETC0 are the day-0 USD prices (post-fork: ~$12 / ~$1).
	ETH0, ETC0 float64
	// SharedVol is the daily volatility of the common market factor;
	// IdioVol the per-chain idiosyncratic volatility. SharedVol >>
	// IdioVol keeps the two prices strongly coupled, as observed.
	SharedVol, IdioVol float64
	// Drift is the common daily log drift.
	Drift float64
	// ETHEdge is an extra daily ETH log drift over the whole horizon:
	// ETH's market value pulled away from ETC's throughout the study
	// window (observation O3's divergence), which via arbitrage is what
	// keeps ETC's hashrate roughly flat while ETH's grows.
	ETHEdge float64

	// RallyStartDay begins the March-2017 rally (≈ day 240 after the
	// July 20 2016 fork); RallyDrift is the extra daily ETH log drift
	// during it. Zero disables. RallyETCShare is the fraction of the
	// rally drift ETC also enjoys (the whole market rose in March 2017,
	// ETH just rose faster), which keeps the end-of-study difficulty
	// ratio near the paper's ~10x instead of letting arbitrage strip
	// ETC bare.
	RallyStartDay int
	RallyDrift    float64
	RallyETCShare float64
}

// DefaultParams returns the calibration used by the Fig 2/3 scenarios.
func DefaultParams(days int) Params {
	return Params{
		Days:          days,
		ETH0:          12.0,
		ETC0:          1.2,
		SharedVol:     0.03,
		IdioVol:       0.01,
		Drift:         0.001,
		ETHEdge:       0.0015,
		RallyStartDay: 240,
		RallyDrift:    0.03,
		RallyETCShare: 0.6,
	}
}

// ChainParams configures one partition's leg of the coupled price walk.
// The legacy two-way calibration maps onto two entries
// (sim.Scenario.LegacyPartitions): the pro-fork chain gets {ETH0,
// ETHEdge, 1} and the classic chain {ETC0, 0, RallyETCShare}.
type ChainParams struct {
	// Price0 is the day-0 USD price.
	Price0 float64
	// DriftEdge is extra daily log drift on top of the shared Drift.
	DriftEdge float64
	// RallyShare is the fraction of RallyDrift this chain enjoys.
	RallyShare float64
}

// GenerateSeries draws every partition's daily USD price from the coupled
// walk: one shared market factor per day, then one idiosyncratic draw per
// chain in list order. The returned slice aligns with chains; element i
// holds p.Days samples. The per-day draw order (shared, then each chain)
// is part of the deterministic contract — reordering it would change
// byte-identical outputs.
func GenerateSeries(p Params, chains []ChainParams, r *rand.Rand) [][]float64 {
	out := make([][]float64, len(chains))
	cur := make([]float64, len(chains))
	for i, c := range chains {
		out[i] = make([]float64, p.Days)
		cur[i] = c.Price0
	}
	for d := 0; d < p.Days; d++ {
		for i := range chains {
			out[i][d] = cur[i]
		}
		shared := r.NormFloat64() * p.SharedVol
		for i, c := range chains {
			drift := p.Drift + c.DriftEdge
			if p.RallyDrift != 0 && d >= p.RallyStartDay {
				drift += p.RallyDrift * c.RallyShare
			}
			cur[i] *= math.Exp(drift + shared + r.NormFloat64()*p.IdioVol)
		}
	}
	return out
}

// Allocator nudges the cross-chain hashrate split toward the arbitrage
// fixed point where USD-per-hash is equal on both chains.
type Allocator struct {
	// Elasticity in (0,1] is the fraction of the gap to equilibrium
	// closed per day. The paper's near-identical curves correspond to a
	// high effective elasticity; the ablation bench sweeps it.
	Elasticity float64
}

// StepToward moves a share toward a target by Elasticity, clamped to
// [0,1].
//
// At difficulty equilibrium each chain's difficulty is proportional to its
// hashrate, so expected USD/hash on chain i is proportional to
// price_i/share_i. Equal returns therefore mean share_i ∝ price_i (equal
// block rewards on every chain): the N-way engine computes each
// partition's target share (economic-weighted price over the weighted
// total) and steps every non-anchor component with this.
func (a Allocator) StepToward(current, target float64) float64 {
	next := current + a.Elasticity*(target-current)
	return clamp01(next)
}

// Correlation returns the Pearson correlation of two equal-length series;
// the Fig 3 bench reports it for the two hashes/USD curves.
func Correlation(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return math.NaN()
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
