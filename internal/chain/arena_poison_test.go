package chain

import (
	"bytes"
	"math/big"
	"reflect"
	"testing"

	"forkwatch/internal/types"
)

// Pool poison guards: fill every field of a pooled object with garbage,
// release it, and assert nothing survives into its next life. The
// reflect.NumField pins fail the moment a field is added to a pooled
// struct, forcing the author to extend the matching reset (and these
// tests) — the failure mode they exist for is a new field silently
// leaking across recycles. Named *Guard so the storage-chaos CI sweep
// (`make chaos`, -race) runs them alongside the fault-injection suites
// that hammer the arenas hardest.

func poisonTx(tx *Transaction) {
	to := types.HexToAddress("0xdead")
	tx.Nonce = 0xfeedface
	tx.GasPrice = big.NewInt(0xbad)
	tx.GasLimit = 0xbadbad
	tx.To = &to
	tx.Value = big.NewInt(0xbadf00d)
	tx.Data = []byte{0xde, 0xad, 0xbe, 0xef}
	tx.ChainID = 61
	tx.From = types.HexToAddress("0xattacker")
	tx.SigTag = types.BytesToHash(bytes.Repeat([]byte{0xaa}, 32))
	h := types.BytesToHash(bytes.Repeat([]byte{0xbb}, 32))
	tx.hash.Store(&h)
	tx.sigOK.Store(true)
}

func assertTxZero(t *testing.T, tx *Transaction, when string) {
	t.Helper()
	if tx.Nonce != 0 || tx.GasPrice != nil || tx.GasLimit != 0 || tx.To != nil ||
		tx.Value != nil || tx.Data != nil || tx.ChainID != 0 ||
		tx.From != (types.Address{}) || tx.SigTag != (types.Hash{}) {
		t.Fatalf("%s: payload fields leaked: %+v", when, tx)
	}
	if tx.hash.Load() != nil {
		t.Fatalf("%s: memoized hash leaked", when)
	}
	if tx.sigOK.Load() {
		t.Fatalf("%s: cached signature verdict leaked", when)
	}
}

func TestTransactionPoolPoisonGuard(t *testing.T) {
	if n := reflect.TypeOf(Transaction{}).NumField(); n != 11 {
		t.Fatalf("Transaction has %d fields (expected 11): extend resetForReuse, poisonTx and assertTxZero", n)
	}

	tx := new(Transaction)
	poisonTx(tx)
	tx.resetForReuse()
	assertTxZero(t, tx, "after resetForReuse")

	// Round-trip through the arena: whatever object comes back out must
	// be zero, regardless of which caller poisoned it before release.
	poisonTx(tx)
	ReleaseTransaction(tx)
	got := NewPooledTransaction()
	assertTxZero(t, got, "fresh from arena")

	// A recycled object rebuilt into a new transaction must behave
	// exactly like a never-pooled one: same encoding, same digest, no
	// stale memo or signature verdict shining through.
	to := types.HexToAddress("0xb0b")
	build := func(tx *Transaction) *Transaction {
		tx.Nonce = 3
		tx.To = &to
		tx.Value = big.NewInt(42)
		tx.GasLimit = 21_000
		tx.GasPrice = big.NewInt(7)
		return tx.Sign(types.HexToAddress("0xa11ce"), 0)
	}
	recycled := build(got)
	fresh := build(new(Transaction))
	if recycled.Hash() != fresh.Hash() {
		t.Fatalf("recycled tx hash %s != fresh %s", recycled.Hash(), fresh.Hash())
	}
	if !bytes.Equal(recycled.Encode(), fresh.Encode()) {
		t.Fatal("recycled tx encodes differently from fresh")
	}
	if err := recycled.VerifySig(); err != nil {
		t.Fatalf("recycled tx signature: %v", err)
	}
	ReleaseTransaction(recycled)
}

func TestReceiptPoolPoisonGuard(t *testing.T) {
	if n := reflect.TypeOf(Receipt{}).NumField(); n != 5 {
		t.Fatalf("Receipt has %d fields (expected 5): check ReleaseReceipt's zeroing still covers them", n)
	}
	r := NewPooledReceipt()
	r.TxHash = types.BytesToHash(bytes.Repeat([]byte{0xcc}, 32))
	r.Status = true
	r.GasUsed = 99_999
	r.ContractAddress = types.HexToAddress("0xdead")
	r.ContractCall = true
	ReleaseReceipt(r)
	if got := NewPooledReceipt(); *got != (Receipt{}) {
		t.Fatalf("receipt fields leaked through the arena: %+v", got)
	}
}
