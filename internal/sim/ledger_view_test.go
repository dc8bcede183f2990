package sim

import (
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/db/diskdb/faultfile"
)

// TestFullLedgerHeadViewDropsFaultedView: the ledger keeps one head-state
// view across reads, but a view that hit a storage fault has latched the
// error and must never answer again — the next read reopens the state.
func TestFullLedgerHeadViewDropsFaultedView(t *testing.T) {
	sc := NewScenario(1, 1)
	sc.StorageFaults = faultfile.Faults{Seed: 1, ReadErrRate: 1}
	st, err := OpenChainStore(sc, 0, "ETH", false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	led, err := NewFullLedgerWithDB(chain.MainnetLikeConfig(), testGenesis(), rand.New(rand.NewSource(1)), st.KV())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := led.MineBlock(led.HeadTime()+14, miner, []*chain.Transaction{transfer(0, alice, bob, 1000, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := led.BC.Flush(); err != nil { // the reads below must reach the store
		t.Fatal(err)
	}
	wantBob := new(big.Int).Add(testGenesis().Alloc[bob], big.NewInt(1000))

	// Healthy: one view serves every read at this head.
	if led.NonceOf(alice) != 1 {
		t.Fatal("alice's nonce not visible at the new head")
	}
	warm := led.view
	if led.NonceOf(alice) != 1 || led.view != warm {
		t.Fatal("a healthy view was not reused at the same head")
	}

	// Every store read fails: bob's leaf is not resolved in the view yet,
	// so this read faults, answers "absent" and latches the error.
	st.EnableFaults(true)
	if got := led.BalanceOf(bob); got.Sign() != 0 {
		t.Fatalf("faulted read answered %v", got)
	}
	if warm.Error() == nil {
		t.Fatal("the faulted read did not latch on the view")
	}
	// While the store is still failing no fresh view can open; the latched
	// one must not answer from its cache either (alice is cached in it).
	if led.NonceOf(alice) != 0 {
		t.Fatal("a latched view served a cached account")
	}

	// Store healthy again: the read is retried on a fresh view.
	st.EnableFaults(false)
	if got := led.BalanceOf(bob); got.Cmp(wantBob) != 0 {
		t.Fatalf("bob after the fault cleared = %v, want %v", got, wantBob)
	}
	if led.view == warm || led.view.Error() != nil {
		t.Fatal("the latched view was kept")
	}
	if err := led.ValidateTx(transfer(1, alice, bob, 1, 0)); err != nil {
		t.Fatalf("ValidateTx on the fresh view: %v", err)
	}

	// The head moving replaces the view.
	fresh := led.view
	if _, err := led.MineBlock(led.HeadTime()+14, miner, nil); err != nil {
		t.Fatal(err)
	}
	if led.BalanceOf(bob).Cmp(wantBob) != 0 || led.view == fresh {
		t.Fatal("the view did not follow the head")
	}
}
