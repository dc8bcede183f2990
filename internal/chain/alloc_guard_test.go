package chain

import (
	"math/big"
	"testing"

	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

// skipUnderRace skips allocation-count assertions when the race detector
// is compiled in: its instrumentation allocates, so counts are only
// meaningful in plain builds (`make test`).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// Allocation guards for the engine's hottest per-block operations. The
// order-of-magnitude speedup of the simulation engine rests on these
// paths staying (near-)allocation-free; testing.AllocsPerRun pins each
// one so an accidental big.Int copy, escaped scratch buffer or dropped
// pool doesn't quietly reappear and only surface as a slow benchmark.

// TestNextDifficultyAllocFree: with a caller-provided destination, the
// difficulty filter must not allocate at all on realistic inputs (the
// int64 fast path), across raise, clamp-limited drop and floor regimes.
func TestNextDifficultyAllocFree(t *testing.T) {
	skipUnderRace(t)
	cfg := MainnetLikeConfig()
	parentDiff := big.NewInt(62_413_376_722_602)
	dst := new(big.Int)
	for _, delta := range []uint64{1, 14, 200, 10_000} {
		delta := delta
		allocs := testing.AllocsPerRun(200, func() {
			NextDifficulty(cfg, 1_469_020_840+delta, 1_469_020_840, 1_920_000, parentDiff, dst)
		})
		if allocs != 0 {
			t.Errorf("NextDifficulty(delta=%d) allocates %.1f/op, want 0", delta, allocs)
		}
	}
}

// TestTxAppendRLPAllocFree: encoding a signed transaction into a
// presized buffer must be zero-alloc, and Encode exactly the one
// exact-size output slice.
func TestTxAppendRLPAllocFree(t *testing.T) {
	skipUnderRace(t)
	to := types.HexToAddress("0xb0b")
	tx := NewTransaction(7, &to, big.NewInt(1_000), 21_000, big.NewInt(20_000_000_000), nil).
		Sign(types.HexToAddress("0xa11ce"), 1)
	buf := make([]byte, 0, tx.EncodedSize())
	if allocs := testing.AllocsPerRun(200, func() {
		buf = tx.appendRLP(buf[:0])
	}); allocs != 0 {
		t.Errorf("appendRLP into presized buffer allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_ = tx.Encode()
	}); allocs != 1 {
		t.Errorf("Encode allocates %.1f/op, want exactly the output slice", allocs)
	}
}

// TestApplyTransactionAllocBudget bounds a plain value transfer through
// the processor. Journal closures and state-object bookkeeping make true
// zero impossible, but the pooled scratch big.Ints and memoized hashes
// keep the count small and stable (pre-PR-10 this path was ~60/op). It
// measures 30.0/op on go1.24/amd64, the returned receipt being one of
// them, so the budget of 30 is exact: a failure means any new allocation
// on this path, whether a new per-tx source or runtime drift.
func TestApplyTransactionAllocBudget(t *testing.T) {
	skipUnderRace(t)
	cfg := MainnetLikeConfig()
	p := NewProcessor(cfg)
	st := state.NewEmpty()
	from := types.HexToAddress("0xa11ce")
	to := types.HexToAddress("0xb0b")
	st.AddBalance(from, new(big.Int).Mul(big.NewInt(1000), Ether))

	// Pre-EIP155 signature: the mainnet-like config has no EIP155Block,
	// so replay-domain ids are not yet valid.
	tx := NewTransaction(0, &to, big.NewInt(1_000), 21_000, big.NewInt(1), nil).Sign(from, 0)
	tx.Hash() // memoized: priced once, not per apply
	header := &Header{
		Coinbase:   types.HexToAddress("0x9001"),
		Number:     1_920_001,
		Time:       1_469_020_840,
		Difficulty: big.NewInt(131072),
		GasLimit:   cfg.GasLimit,
	}

	// One call before measuring, so a cold txScratchPool is not counted.
	st.SetNonce(from, 0)
	if _, _, err := p.ApplyTransaction(tx, st, header, cfg.GasLimit); err != nil {
		t.Fatal(err)
	}

	const budget = 30
	allocs := testing.AllocsPerRun(100, func() {
		st.SetNonce(from, 0) // rewind so the same tx revalidates
		if _, _, err := p.ApplyTransaction(tx, st, header, cfg.GasLimit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("ApplyTransaction allocates %.1f/op, budget %d", allocs, budget)
	}
}

// TestPointReadAllocsIndependentOfBlockSize: Store.Transaction and
// Store.Receipt decode only the indexed element of a record, so reading
// the one transaction of a 1-tx block allocates exactly as often as
// reading the last of a 200-tx block. Decoding the whole record would
// allocate per transaction.
func TestPointReadAllocsIndependentOfBlockSize(t *testing.T) {
	skipUnderRace(t)
	bc := newTestChain(t, MainnetLikeConfig())
	alone := transfer(0, alice, bob, 10, 0)
	mine(t, bc, 14, alone)
	many := make([]*Transaction, 200)
	for i := range many {
		many[i] = transfer(uint64(i+1), alice, bob, 10, 0)
	}
	mine(t, bc, 14, many...)
	last := many[len(many)-1].Hash()

	s := bc.Store()
	reads := map[string]func(types.Hash){
		"Transaction": func(h types.Hash) {
			if _, _, _, ok, err := s.Transaction(h); !ok || err != nil {
				t.Fatalf("Transaction(%s): ok=%v err=%v", h, ok, err)
			}
		},
		"Receipt": func(h types.Hash) {
			if _, _, _, ok, err := s.Receipt(h); !ok || err != nil {
				t.Fatalf("Receipt(%s): ok=%v err=%v", h, ok, err)
			}
		},
	}
	for name, read := range reads {
		small := testing.AllocsPerRun(100, func() { read(alone.Hash()) })
		large := testing.AllocsPerRun(100, func() { read(last) })
		if small != large {
			t.Errorf("%s allocates %.1f/op in a 1-tx block, %.1f/op in a 200-tx block", name, small, large)
		}
	}
}
