package chain

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// FuzzDecodeTx: arbitrary bytes must never panic the transaction decoder,
// and successfully decoded transactions must re-encode stably (hash is a
// fixed point).
func FuzzDecodeTx(f *testing.F) {
	valid := transfer(3, types.HexToAddress("0xaa"), types.HexToAddress("0xbb"), 99, 61)
	f.Add(valid.Encode())
	f.Add([]byte{0xc0})
	f.Add([]byte{0xf8, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTx(data)
		if err != nil {
			return
		}
		re, err := DecodeTx(tx.Encode())
		if err != nil {
			t.Fatalf("re-decode of decoded tx failed: %v", err)
		}
		if re.Hash() != tx.Hash() {
			t.Fatal("tx hash not a fixed point of encode/decode")
		}
	})
}

// FuzzDecodeHeader mirrors FuzzDecodeTx for block headers.
func FuzzDecodeHeader(f *testing.F) {
	h := &Header{
		ParentHash: types.HexToHash("0x01"),
		Number:     7,
		Time:       1_469_020_840,
		Difficulty: big.NewInt(131072),
		GasLimit:   4_700_000,
		Extra:      []byte("dao-hard-fork"),
	}
	f.Add(h.Encode())
	f.Add([]byte{0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		re, err := DecodeHeader(h.Encode())
		if err != nil {
			t.Fatalf("re-decode of decoded header failed: %v", err)
		}
		if re.Hash() != h.Hash() {
			t.Fatal("header hash not a fixed point of encode/decode")
		}
	})
}

// FuzzDecodeBlock mirrors FuzzDecodeTx for whole blocks.
func FuzzDecodeBlock(f *testing.F) {
	blk := &Block{
		Header: &Header{Difficulty: big.NewInt(1), TxRoot: TxRoot(nil)},
		Txs:    []*Transaction{transfer(0, types.HexToAddress("0x01"), types.HexToAddress("0x02"), 1, 0)},
	}
	f.Add(blk.Encode())
	f.Add([]byte{0xc2, 0xc0, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		re, err := DecodeBlock(b.Encode())
		if err != nil {
			t.Fatalf("re-decode of decoded block failed: %v", err)
		}
		if re.Hash() != b.Hash() {
			t.Fatal("block hash not a fixed point of encode/decode")
		}
	})
}

// FuzzPointRead stores arbitrary bytes as a block record and a receipts
// record and reads them at an arbitrary index: the point reads must
// never panic, every failure must be db.ErrCorrupt, and whenever the
// whole-record decoder accepts a record the point read agrees with it —
// element i, or db.ErrCorrupt when i is out of range.
func FuzzPointRead(f *testing.F) {
	bc := newTestChain(f, MainnetLikeConfig())
	b := mine(f, bc, 14, transfer(0, alice, bob, 10, 0), transfer(1, alice, bob, 20, 0))
	receipts, _, err := bc.Store().KV().Get(hashKey(prefixReceipts, b.Hash()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b.Encode(), receipts, uint32(1))
	f.Add(b.Encode(), receipts, uint32(2))
	f.Add([]byte{0xc3, 0xc0, 0xc0, 0xc0}, []byte{0xc0}, uint32(0))

	kv := db.NewMemDB()
	s := NewStore(kv)
	txHash, blockHash := types.HexToHash("0x7a"), types.HexToHash("0xb1")
	f.Fuzz(func(t *testing.T, blockRec, receiptsRec []byte, index uint32) {
		batch := kv.NewBatch()
		s.PutTxIndex(batch, txHash, blockHash, index)
		batch.Put(hashKey(prefixBlock, blockHash), blockRec)
		batch.Put(hashKey(prefixReceipts, blockHash), receiptsRec)
		if err := batch.Write(); err != nil {
			t.Fatal(err)
		}
		tx, _, num, _, terr := s.Transaction(txHash)
		rec, _, rnum, _, rerr := s.Receipt(txHash)
		for _, err := range []error{terr, rerr} {
			if err != nil && !errors.Is(err, db.ErrCorrupt) {
				t.Fatalf("point read failed with %v, want db.ErrCorrupt", err)
			}
		}
		whole, err := DecodeBlock(blockRec)
		if err != nil {
			return
		}
		inRange := int(index) < len(whole.Txs)
		switch {
		case inRange != (terr == nil):
			t.Fatalf("Transaction at %d of %d txs: err = %v", index, len(whole.Txs), terr)
		case inRange && (num != whole.Number() || !bytes.Equal(tx.Encode(), whole.Txs[index].Encode())):
			t.Fatalf("Transaction at %d differs from the whole decode", index)
		}
		all, _, err := s.Receipts(blockHash)
		if err != nil {
			return
		}
		inRange = int(index) < len(all)
		switch {
		case inRange != (rerr == nil):
			t.Fatalf("Receipt at %d of %d receipts: err = %v", index, len(all), rerr)
		case inRange && (rnum != whole.Number() || *rec != *all[index]):
			t.Fatalf("Receipt at %d differs from the whole decode", index)
		}
	})
}
