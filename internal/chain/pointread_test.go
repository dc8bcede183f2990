package chain

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// pointReadChain mines, over kv, a chain whose transaction index a reorg
// has repointed, and returns it with every transaction it carries.
//
// The first branch is one slow block with alice's first three transfers.
// The heavier branch, built on a twin chain sharing genesis, opens with a
// block that puts dao's transfer first, so two of alice's transfers move
// one position down; the third is mined again on the new head beside a
// contract creation. Blocks of 40, 0 and 7 transfers follow.
func pointReadChain(t *testing.T, kv db.KV) (*Blockchain, []*Transaction) {
	t.Helper()
	cfg := MainnetLikeConfig()
	bc, err := NewBlockchainWithDB(cfg, testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	genesis := bc.Genesis()
	slowTxs := []*Transaction{
		transfer(0, alice, bob, 10, 0),
		transfer(1, alice, bob, 11, 0),
		transfer(2, alice, bob, 12, 0),
	}
	slow, err := bc.BuildBlock(pool1, genesis.Header.Time+60, slowTxs)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(slow); err != nil {
		t.Fatal(err)
	}

	twin := newTestChain(t, cfg)
	daoTx := transfer(0, dao, bob, 5, 0)
	fastA, err := twin.BuildBlock(pool1, genesis.Header.Time+10, []*Transaction{daoTx, slowTxs[0], slowTxs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.InsertBlock(fastA); err != nil {
		t.Fatal(err)
	}
	fastB, err := twin.BuildBlock(pool1, fastA.Header.Time+10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Block{fastA, fastB} {
		if err := bc.InsertBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if bc.Head().Hash() != fastB.Hash() {
		t.Fatalf("reorg did not happen: head %s", bc.Head().Hash())
	}

	txs := append([]*Transaction{daoTx}, slowTxs...)
	create := NewTransaction(3, nil, nil, 200_000, big.NewInt(1), []byte{0x60, 0x00, 0x60, 0x00, 0xf3}).Sign(alice, 0)
	mine(t, bc, 14, slowTxs[2], create)
	txs = append(txs, create)
	nonce := uint64(4)
	for _, n := range []int{40, 0, 7} {
		var block []*Transaction
		for i := 0; i < n; i++ {
			block = append(block, transfer(nonce, alice, bob, int64(100+nonce), 0))
			nonce++
		}
		mine(t, bc, 14, block...)
		txs = append(txs, block...)
	}
	return bc, txs
}

// TestPointReadsMatchWholeDecode checks, on mem and on disk, that for
// every transaction Store.Transaction and Store.Receipt return what
// decoding the whole block and receipt records yields at the indexed
// position, and that every entry, repointed ones included, names the
// canonical block.
func TestPointReadsMatchWholeDecode(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			kv := db.KV(db.NewMemDB())
			if backend == "disk" {
				_, d := diskStack(t)
				t.Cleanup(func() { d.Close() })
				kv = d
			}
			bc, txs := pointReadChain(t, kv)
			s := bc.Store()
			for _, want := range txs {
				h := want.Hash()
				lk, ok, err := s.TxIndex(h)
				if err != nil || !ok {
					t.Fatalf("TxIndex(%s): ok=%v err=%v", h, ok, err)
				}
				whole, ok, err := s.Block(lk.BlockHash)
				if err != nil || !ok {
					t.Fatalf("Block(%s): ok=%v err=%v", lk.BlockHash, ok, err)
				}
				if canon, _, _ := s.CanonHash(whole.Number()); canon != lk.BlockHash {
					t.Fatalf("tx %s indexed in non-canonical block %s", h, lk.BlockHash)
				}
				receipts, ok, err := s.Receipts(lk.BlockHash)
				if err != nil || !ok {
					t.Fatalf("Receipts(%s): ok=%v err=%v", lk.BlockHash, ok, err)
				}

				tx, tlk, num, ok, err := s.Transaction(h)
				if err != nil || !ok {
					t.Fatalf("Transaction(%s): ok=%v err=%v", h, ok, err)
				}
				if tlk != lk || num != whole.Number() || !bytes.Equal(tx.Encode(), whole.Txs[lk.Index].Encode()) || tx.Hash() != h {
					t.Fatalf("Transaction(%s) = (%+v, %d), whole decode says (%+v, %d)", h, tlk, num, lk, whole.Number())
				}
				rec, rlk, rnum, ok, err := s.Receipt(h)
				if err != nil || !ok {
					t.Fatalf("Receipt(%s): ok=%v err=%v", h, ok, err)
				}
				if rlk != lk || rnum != whole.Number() || *rec != *receipts[lk.Index] || rec.TxHash != h {
					t.Fatalf("Receipt(%s) = (%+v, %+v, %d), whole decode says (%+v, %+v, %d)",
						h, *rec, rlk, rnum, *receipts[lk.Index], lk, whole.Number())
				}
			}
		})
	}
}

// TestPointReadsRejectCorruptRecords: every framing fault on a point
// read's path is db.ErrCorrupt, and a read that the other record's fault
// does not touch still succeeds.
func TestPointReadsRejectCorruptRecords(t *testing.T) {
	bc := newTestChain(t, MainnetLikeConfig())
	b := mine(t, bc, 14, transfer(0, alice, bob, 10, 0), transfer(1, alice, bob, 20, 0))
	block := b.Encode()
	receipts, _, err := bc.DB().Get(hashKey(prefixReceipts, b.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	// rewrite re-encodes a record after edit changes its decoded tree.
	rewrite := func(enc []byte, edit func(v *rlp.Value)) []byte {
		v, err := rlp.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		edit(&v)
		return rlp.Encode(v)
	}
	junk := rlp.Bytes([]byte{1, 2, 3})

	cases := []struct {
		name            string
		block, receipts []byte
		index           uint32
		txBad, rcptBad  bool
	}{
		{"intact", block, receipts, 1, false, false},
		{"index past the end", block, receipts, 2, true, true},
		{"block missing", nil, receipts, 0, true, true},
		{"truncated block", block[:len(block)-1], receipts, 0, true, true},
		{"block is a string", rlp.AppendBytes(nil, block), receipts, 0, true, true},
		{"tx list is a string", rewrite(block, func(v *rlp.Value) { v.Items[1] = junk }), receipts, 0, true, true},
		{"uncle list is a string", rewrite(block, func(v *rlp.Value) { v.Items[2] = junk }), receipts, 0, true, true},
		{"block of four items", rewrite(block, func(v *rlp.Value) { v.Items = append(v.Items, rlp.List()) }), receipts, 0, true, true},
		{"number is a list", rewrite(block, func(v *rlp.Value) { v.Items[0].Items[1] = rlp.List() }), receipts, 0, true, true},
		{"trailing bytes after block", append(bytes.Clone(block), 0x80), receipts, 0, true, true},
		{"indexed tx is a string", rewrite(block, func(v *rlp.Value) { v.Items[1].Items[1] = junk }), receipts, 1, true, false},
		{"receipts missing", block, nil, 0, false, true},
		{"truncated receipts", block, receipts[:len(receipts)-1], 0, false, true},
		{"receipts is a string", block, rlp.AppendBytes(nil, receipts), 0, false, true},
		{"trailing bytes after receipts", block, append(bytes.Clone(receipts), 0xc0), 0, false, true},
		{"receipt index past the end", block, rewrite(receipts, func(v *rlp.Value) { v.Items = v.Items[:1] }), 1, false, true},
	}
	txHash, blockHash := types.HexToHash("0x7a"), types.HexToHash("0xb1")
	for _, c := range cases {
		kv := db.NewMemDB()
		s := NewStore(kv)
		batch := kv.NewBatch()
		s.PutTxIndex(batch, txHash, blockHash, c.index)
		if c.block != nil {
			batch.Put(hashKey(prefixBlock, blockHash), c.block)
		}
		if c.receipts != nil {
			batch.Put(hashKey(prefixReceipts, blockHash), c.receipts)
		}
		if err := batch.Write(); err != nil {
			t.Fatal(err)
		}
		for _, read := range []struct {
			name string
			bad  bool
			err  error
		}{
			{"Transaction", c.txBad, func() error { _, _, _, _, err := s.Transaction(txHash); return err }()},
			{"Receipt", c.rcptBad, func() error { _, _, _, _, err := s.Receipt(txHash); return err }()},
		} {
			switch {
			case read.bad && !errors.Is(read.err, db.ErrCorrupt):
				t.Errorf("%s: %s err = %v, want db.ErrCorrupt", c.name, read.name, read.err)
			case !read.bad && read.err != nil:
				t.Errorf("%s: %s err = %v, want success", c.name, read.name, read.err)
			}
		}
	}
}

// failingGets fails every Get of one key prefix.
type failingGets struct {
	db.KV
	prefix byte
	err    error
}

func (f failingGets) Get(key []byte) ([]byte, bool, error) {
	if key[0] == f.prefix {
		return nil, false, f.err
	}
	return f.KV.Get(key)
}

// TestPointReadsKeepReadErrors: a failed read of the block or receipts
// record is reported as that read error, not as corruption.
func TestPointReadsKeepReadErrors(t *testing.T) {
	bc := newTestChain(t, MainnetLikeConfig())
	tx := transfer(0, alice, bob, 10, 0)
	mine(t, bc, 14, tx)
	readErr := errors.New("injected read error")
	for _, prefix := range []byte{prefixBlock, prefixReceipts} {
		s := NewStore(failingGets{bc.DB(), prefix, readErr})
		_, _, _, _, rerr := s.Receipt(tx.Hash())
		errs := []error{rerr}
		if prefix == prefixBlock {
			_, _, _, _, terr := s.Transaction(tx.Hash())
			errs = append(errs, terr)
		}
		for _, err := range errs {
			if !errors.Is(err, readErr) || errors.Is(err, db.ErrCorrupt) {
				t.Errorf("failing %q reads: err = %v, want the read error", prefix, err)
			}
		}
	}
}
