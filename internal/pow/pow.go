// Package pow simulates Ethereum's proof-of-work sealing.
//
// Substitution note (DESIGN.md §2): real Ethash requires a multi-GiB DAG
// and GPU-scale hashing; none of the paper's measurements depend on the
// hash function itself, only on the *rate* at which a network of miners
// finds blocks. Mining is a memoryless lottery, so block inter-arrival
// times are exponential with mean difficulty/hashrate; the Sampler draws
// from exactly that distribution with a seeded RNG. The seal itself is a
// deterministic stamp (MixDigest = keccak256(sealHash || nonce)) that
// nothing verifies: the nonce and mix digest are inside the header hash,
// so a tampered seal already makes a different block.
package pow

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"

	"forkwatch/internal/chain"
	"forkwatch/internal/keccak"
	"forkwatch/internal/prng"
	"forkwatch/internal/types"
)

// Seal stamps the header with a nonce and its mix digest. The
// nonce is drawn from r so identical simulation seeds produce identical
// chains.
func Seal(h *chain.Header, r *rand.Rand) {
	h.Nonce = r.Uint64()
	h.MixDigest = mixDigest(h.SealHash(), h.Nonce)
}

func mixDigest(sealHash types.Hash, nonce uint64) types.Hash {
	var buf [40]byte
	copy(buf[:32], sealHash.Bytes())
	binary.BigEndian.PutUint64(buf[32:], nonce)
	sum := keccak.Sum256(buf[:])
	return types.BytesToHash(sum[:])
}

// Sampler draws block intervals for a mining population.
//
// A Sampler owns its RNG exclusively and is not safe for concurrent use;
// when two partitions are stepped on separate goroutines each needs its
// own sampler over its own derived stream (NewPartitionSampler).
type Sampler struct {
	r *rand.Rand
}

// NewSampler returns a sampler over the given RNG.
func NewSampler(r *rand.Rand) *Sampler { return &Sampler{r: r} }

// NewPartitionSampler returns a sampler whose stream is derived from the
// scenario seed and the partition name (prng.Derive). The two partitions
// draw from disjoint deterministic streams, so they can be stepped on
// separate goroutines between day barriers while the overall run stays
// bit-for-bit reproducible.
func NewPartitionSampler(seed int64, partition string) *Sampler {
	return &Sampler{r: prng.New(seed, "pow", partition)}
}

// BlockInterval draws the time (in seconds, >= 1) until the next block for
// a network hashing at `hashrate` H/s against `difficulty`: an exponential
// with mean difficulty/hashrate.
func (s *Sampler) BlockInterval(difficulty *big.Int, hashrate float64) uint64 {
	return s.BlockIntervalFloat(types.BigToFloat64(difficulty), hashrate)
}

// BlockIntervalFloat is BlockInterval with the difficulty already reduced
// to a float64 (types.BigToFloat64). The draw and rounding are identical —
// one ExpFloat64 per call — so a caller that caches the float view of its
// head difficulty produces byte-identical chains while skipping a big.Int
// copy per block.
func (s *Sampler) BlockIntervalFloat(difficulty, hashrate float64) uint64 {
	mean := MeanFloat(difficulty, hashrate)
	draw := s.r.ExpFloat64() * mean
	if draw < 1 {
		return 1
	}
	if draw > math.MaxInt64 {
		return math.MaxInt64
	}
	return uint64(draw)
}

// WinnerIndexTotal picks which miner found the block, proportionally to
// the weights (hashrates), given their total. Zero total weight returns
// -1. The total must be the left-to-right sum of weights, or the draw's
// scaling — and therefore determinism — breaks; the engine sums each day's
// pool weights once instead of once per block.
func (s *Sampler) WinnerIndexTotal(weights []float64, total float64) int {
	if total <= 0 {
		return -1
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Mean returns the expected block interval in seconds for the given
// difficulty and hashrate.
func Mean(difficulty *big.Int, hashrate float64) float64 {
	return MeanFloat(types.BigToFloat64(difficulty), hashrate)
}

// MeanFloat is Mean over an already-reduced difficulty.
func MeanFloat(difficulty, hashrate float64) float64 {
	if hashrate <= 0 {
		return math.Inf(1)
	}
	return difficulty / hashrate
}
