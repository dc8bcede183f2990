package pow

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/chain"
)

// TestSealVerify: the mix digest commits to the seal hash and nonce. Nothing
// verifies a seal on import, because both are inside the header hash: a
// tampered seal is a different block.
func TestSealVerify(t *testing.T) {
	h := &chain.Header{Number: 7, Time: 1234, Difficulty: big.NewInt(99999)}
	Seal(h, rand.New(rand.NewSource(1)))
	if h.MixDigest != mixDigest(h.SealHash(), h.Nonce) {
		t.Fatal("freshly sealed header does not commit to its seal hash and nonce")
	}
	sealed := h.Hash()
	for name, tamper := range map[string]func(*chain.Header){
		"nonce":      func(h *chain.Header) { h.Nonce++ },
		"mix digest": func(h *chain.Header) { h.MixDigest[0] ^= 1 },
	} {
		c := h.Copy()
		tamper(c)
		if c.Hash() == sealed {
			t.Errorf("a tampered %s leaves the header hash unchanged", name)
		}
	}
	h.Time++ // tamper: the seal no longer commits
	if h.MixDigest == mixDigest(h.SealHash(), h.Nonce) {
		t.Error("tampered header still matches its seal")
	}
}

func TestSealDeterministic(t *testing.T) {
	h1 := &chain.Header{Number: 1, Difficulty: big.NewInt(5)}
	h2 := &chain.Header{Number: 1, Difficulty: big.NewInt(5)}
	Seal(h1, rand.New(rand.NewSource(42)))
	Seal(h2, rand.New(rand.NewSource(42)))
	if h1.Nonce != h2.Nonce || h1.MixDigest != h2.MixDigest {
		t.Error("same seed should produce the same seal")
	}
}

// TestBlockIntervalMean checks the sampler realises the exponential mean
// difficulty/hashrate (the relationship all Fig 1 dynamics derive from).
func TestBlockIntervalMean(t *testing.T) {
	s := NewSampler(rand.New(rand.NewSource(7)))
	diff := big.NewInt(14_000_000) // with 1e6 H/s → mean 14s
	const n = 20_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.BlockInterval(diff, 1e6))
	}
	mean := sum / n
	if math.Abs(mean-14) > 0.5 {
		t.Errorf("empirical mean interval = %.2f, want ~14", mean)
	}
}

func TestBlockIntervalFloorsAtOneSecond(t *testing.T) {
	s := NewSampler(rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		if got := s.BlockInterval(big.NewInt(1), 1e9); got < 1 {
			t.Fatalf("interval %d below 1s floor", got)
		}
	}
}

func TestWinnerIndexProportional(t *testing.T) {
	s := NewSampler(rand.New(rand.NewSource(3)))
	weights := []float64{10, 30, 60}
	counts := make([]int, 3)
	const n = 30_000
	for i := 0; i < n; i++ {
		counts[s.WinnerIndexTotal(weights, 100)]++
	}
	for i, want := range []float64{0.10, 0.30, 0.60} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("winner %d frequency = %.3f, want ~%.2f", i, got, want)
		}
	}
	if s.WinnerIndexTotal([]float64{0, 0}, 0) != -1 {
		t.Error("zero total weight should return -1")
	}
}

// TestMeanAndEquilibrium: at difficulty d, the hashrate d/14 is the one
// whose mean interval is the 14 s target.
func TestMeanAndEquilibrium(t *testing.T) {
	d := big.NewInt(1_400_000)
	if got := Mean(d, 100_000); math.Abs(got-14) > 1e-9 {
		t.Errorf("Mean = %v, want 14", got)
	}
	if !math.IsInf(Mean(d, 0), 1) {
		t.Error("zero hashrate should mean infinite interval")
	}
}
