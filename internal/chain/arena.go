package chain

import (
	"sync"

	"forkwatch/internal/types"
)

// Pooled allocation arenas (DESIGN.md §15). The simulate path churns
// through millions of transactions and receipts per nine-month run; these
// sync.Pool arenas recycle them with strict reset-on-recycle semantics so
// a recycled object is indistinguishable from a zero-value one.
//
// Ownership rules — the pools are safe only because of them:
//
//   - Transactions: only an object that provably has no remaining
//     references may be released. The workload releases fresh (never
//     mined, never echoed) transactions the engine drops; a transaction
//     that was ever mined may sit in another chain's replay queue and is
//     left to the garbage collector.
//   - Receipts: released by the blockchain right after their root is
//     computed and they are staged into the store batch (the store
//     serializes them; nothing retains the structs).
//
// Headers are not pooled: every header is built for a block and is then
// immortal chain state.

var txArena = sync.Pool{New: func() any { return new(Transaction) }}

// NewPooledTransaction returns a reset transaction from the arena.
func NewPooledTransaction() *Transaction {
	return txArena.Get().(*Transaction)
}

// ReleaseTransaction resets tx and returns it to the arena. The caller
// must guarantee no other reference to tx survives.
func ReleaseTransaction(tx *Transaction) {
	tx.resetForReuse()
	txArena.Put(tx)
}

// resetForReuse zeroes every field, including the memoized digest and the
// cached signature verdict. Field-by-field (not a struct copy): the atomic
// members must not be copied over.
func (tx *Transaction) resetForReuse() {
	tx.Nonce = 0
	tx.GasPrice = nil
	tx.GasLimit = 0
	tx.To = nil
	tx.Value = nil
	tx.Data = nil
	tx.ChainID = 0
	tx.From = types.Address{}
	tx.SigTag = types.Hash{}
	tx.hash.Store(nil)
	tx.sigOK.Store(false)
}

var receiptArena = sync.Pool{New: func() any { return new(Receipt) }}

// NewPooledReceipt returns a reset receipt from the arena.
func NewPooledReceipt() *Receipt {
	return receiptArena.Get().(*Receipt)
}

// ReleaseReceipt resets r and returns it to the arena.
func ReleaseReceipt(r *Receipt) {
	*r = Receipt{}
	receiptArena.Put(r)
}

// ReleaseReceipts releases a whole block's receipts.
func ReleaseReceipts(receipts []*Receipt) {
	for _, r := range receipts {
		ReleaseReceipt(r)
	}
}
