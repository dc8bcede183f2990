// Package pool models mining-pool populations and their consolidation
// dynamics, reproducing the paper's Figure 5: the fraction of daily blocks
// won by the top 1/3/5 pools on each chain.
//
// The paper observed that (a) ETH's pool concentration was immediately the
// same as pre-fork Ethereum's — the big pools moved over wholesale; (b)
// ETC's top pools initially mined a much smaller share — the big pools had
// left and many small operations remained; and (c) over several months ETC
// converged to the same top-N ratios. We model (c) as preferential
// attachment: each day a fraction of loose miners re-homes to pools with
// probability proportional to pool size, the standard rich-get-richer
// process that produces heavy-tailed (Zipf-like) pool sizes.
package pool

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"forkwatch/internal/keccak"
	"forkwatch/internal/types"
)

// Pool is one mining pool: an identity (its payout address, which is what
// the paper observes in block coinbases) and its share of chain hashrate.
type Pool struct {
	Name    string
	Address types.Address
	// Weight is the pool's fraction of the chain's hashrate; a
	// Population keeps weights summing to 1.
	Weight float64
}

// AddressFor derives a stable payout address from a pool name.
func AddressFor(name string) types.Address {
	h := keccak.Sum256([]byte("pool:" + name))
	return types.BytesToAddress(h[12:])
}

// Population is the set of pools mining one chain.
type Population struct {
	Pools []Pool
}

// NewZipfPopulation creates n pools with sizes following a Zipf law with
// exponent s (size_i ∝ 1/i^s), normalised to sum to 1. Real pool-size
// distributions are heavy-tailed; s≈1 reproduces the pre-fork top-N shares
// the paper reports (top pool ~25-30%, top 5 ~80%).
func NewZipfPopulation(prefix string, n int, s float64) *Population {
	p := &Population{}
	total := 0.0
	for i := 1; i <= n; i++ {
		w := 1 / math.Pow(float64(i), s)
		total += w
		name := fmt.Sprintf("%s-pool-%02d", prefix, i)
		p.Pools = append(p.Pools, Pool{Name: name, Address: AddressFor(name), Weight: w})
	}
	for i := range p.Pools {
		p.Pools[i].Weight /= total
	}
	return p
}

// NewUniformPopulation creates n equal-weight pools: the fragmented
// post-fork ETC starting point (the big pools left; many small ones
// remain).
func NewUniformPopulation(prefix string, n int) *Population {
	p := &Population{}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("%s-pool-%02d", prefix, i)
		p.Pools = append(p.Pools, Pool{Name: name, Address: AddressFor(name), Weight: 1 / float64(n)})
	}
	return p
}

// Weights returns the pools' weight vector (aliases internal state).
func (p *Population) Weights() []float64 {
	w := make([]float64, len(p.Pools))
	for i, pool := range p.Pools {
		w[i] = pool.Weight
	}
	return w
}

// Normalize rescales weights to sum to 1.
func (p *Population) Normalize() {
	total := 0.0
	for _, pool := range p.Pools {
		total += pool.Weight
	}
	if total <= 0 {
		return
	}
	for i := range p.Pools {
		p.Pools[i].Weight /= total
	}
}

// Consolidate advances the population one day of preferential attachment:
// a fraction churn of total weight detaches and re-homes proportionally to
// pool size^alpha (alpha > 0; alpha = 1 is classic rich-get-richer). Noise
// jitters the re-homing so small pools occasionally gain.
//
// cap (> 0) saturates attachment for very large pools: a pool's
// attractiveness is damped by exp(-weight/cap). This models the real,
// documented counter-force — miners avoid pools approaching majority
// hashrate — and is what makes the distribution stationary at ETH-like
// top-N shares instead of collapsing into a single pool. cap <= 0
// disables saturation.
func (p *Population) Consolidate(churn, alpha, cap float64, r *rand.Rand) {
	if len(p.Pools) == 0 || churn <= 0 {
		return
	}
	loose := 0.0
	for i := range p.Pools {
		d := p.Pools[i].Weight * churn
		p.Pools[i].Weight -= d
		loose += d
	}
	// Attachment propensities ∝ weight^alpha with multiplicative noise;
	// the noise is what breaks the symmetric (uniform) starting point.
	prop := make([]float64, len(p.Pools))
	total := 0.0
	for i, pool := range p.Pools {
		prop[i] = math.Pow(pool.Weight+1e-9, alpha) * math.Exp(r.NormFloat64()*0.25)
		if cap > 0 {
			prop[i] *= math.Exp(-pool.Weight / cap)
		}
		total += prop[i]
	}
	if !(total > 0) {
		// Every propensity underflowed: a cap far below every pool's
		// weight damps them all to zero. Re-home the loose weight in
		// proportion to weight, which leaves the shares where they were.
		// No pool here has weight zero (its damping would be exp(0) = 1),
		// so the new total is positive.
		total = 0
		for i, pool := range p.Pools {
			prop[i] = pool.Weight
			total += prop[i]
		}
	}
	for i := range p.Pools {
		p.Pools[i].Weight += loose * prop[i] / total
	}
	p.Normalize()
}

// GiniOf computes the Gini coefficient of any non-negative vector.
func GiniOf(w []float64) float64 {
	n := len(w)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), w...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += v * float64(2*(i+1)-n-1)
		total += v
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// TopNFromCounts computes the paper's actual Figure 5 statistic: the
// fraction of the day's mined blocks attributed (by coinbase address) to
// the n most productive pools that day.
func TopNFromCounts(blocksByPool map[types.Address]int, n int) float64 {
	total := 0
	counts := make([]int, 0, len(blocksByPool))
	for _, c := range blocksByPool {
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if n > len(counts) {
		n = len(counts)
	}
	top := 0
	for i := 0; i < n; i++ {
		top += counts[i]
	}
	return float64(top) / float64(total)
}
