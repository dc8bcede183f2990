package chain

import (
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/types"
)

// branchTxs are the transactions shorterHeavierBranch places: shared in
// block 1; both in the long branch's block 3 and the short branch's first;
// long only in blocks 5 and 12; short only in its fourth, at the nonce the
// long branch spent on longOnly.
var branchTxs = struct{ shared, both, longOnly, longTip, shortOnly *Transaction }{
	shared:    transfer(0, alice, bob, 1, 0),
	both:      transfer(1, alice, bob, 2, 0),
	longOnly:  transfer(2, alice, bob, 3, 0),
	longTip:   transfer(3, alice, bob, 4, 0),
	shortOnly: transfer(2, alice, bob, 5, 0),
}

// shorterHeavierBranch returns twelve blocks whose last ten came slowly,
// each lowering the difficulty, and a branch of eight quick blocks off the
// second: shorter by two heights, and heavier in total difficulty only once
// its eighth block is in. The blocks carry branchTxs.
func shorterHeavierBranch(t *testing.T) (long, short []*Block) {
	t.Helper()
	donor := newTestChain(t, MainnetLikeConfig())
	other := newTestChain(t, MainnetLikeConfig())
	tx := branchTxs
	for i := 0; i < 2; i++ {
		var txs []*Transaction
		if i == 0 {
			txs = append(txs, tx.shared)
		}
		if err := other.InsertBlock(mine(t, donor, 14, txs...)); err != nil {
			t.Fatal(err)
		}
	}
	for n := 3; n <= 12; n++ {
		txs := map[int][]*Transaction{3: {tx.both}, 5: {tx.longOnly}, 12: {tx.longTip}}[n]
		mine(t, donor, 1000, txs...)
	}
	for i := 0; i < 8; i++ {
		txs := map[int][]*Transaction{0: {tx.both}, 3: {tx.shortOnly}}[i]
		mine(t, other, 1, txs...)
	}
	long, short = donor.CanonicalBlocks(1, 12), other.CanonicalBlocks(3, 10)
	longTD, _ := donor.TD(long[11].Hash())
	shortTD, _ := other.TD(short[7].Hash())
	nearlyTD, _ := other.TD(short[6].Hash())
	if shortTD.Cmp(longTD) <= 0 || nearlyTD.Cmp(longTD) >= 0 {
		t.Fatalf("branch TDs %v (7 blocks), %v (8 blocks) against %v: not heavier only at its end", nearlyTD, shortTD, longTD)
	}
	return long, short
}

// wantCanon requires bc to answer want as its canonical chain, genesis
// first, from BlockByNumber, CanonicalBlocks and the store's canonical
// index alike, and nothing at any height above it up to top.
func wantCanon(t *testing.T, bc *Blockchain, want []*Block, top uint64) {
	t.Helper()
	for n := uint64(0); n <= top; n++ {
		b, ok := bc.BlockByNumber(n)
		h, stored, err := bc.Store().CanonHash(n)
		if err != nil {
			t.Fatal(err)
		}
		if n >= uint64(len(want)) {
			if ok || stored {
				t.Fatalf("stale height %d still answers: view %v, store %v", n, ok, stored)
			}
			continue
		}
		if !ok || b.Hash() != want[n].Hash() || !stored || h != want[n].Hash() {
			t.Fatalf("height %d: the view answers %v, the store %s (%v), want %s", n, ok, h, stored, want[n].Hash())
		}
	}
	got := bc.CanonicalBlocks(0, top)
	if len(got) != len(want) {
		t.Fatalf("CanonicalBlocks(0, %d) has %d blocks, want %d", top, len(got), len(want))
	}
	for i, b := range got {
		if b.Hash() != want[i].Hash() {
			t.Fatalf("CanonicalBlocks(0, %d)[%d] is %s, want %s", top, i, b.Hash(), want[i].Hash())
		}
	}
	if head := bc.Head(); head.Hash() != want[len(want)-1].Hash() {
		t.Fatalf("head %d (%s), want %d", head.Number(), head.Hash(), len(want)-1)
	}
}

// TestReorgOntoShorterHeavierBranch: a run that reorgs onto a shorter but
// heavier branch drops the stale heights from the view and from the
// store's canonical index. When the run's flush fails — a write error that
// lands nothing, or a crash that tears its append — the view answers as it
// did before the run, as a restart over the medium would, and resuming
// lands the reorg.
func TestReorgOntoShorterHeavierBranch(t *testing.T) {
	long, short := shorterHeavierBranch(t)
	top := long[len(long)-1].Number()

	faults := []struct {
		name string
		arm  func(ffs *faultfile.FS)
	}{
		{"clean", nil},
		{"write error", func(ffs *faultfile.FS) { ffs.SetEnabled(true) }},
		{"torn", func(ffs *faultfile.FS) { ffs.CrashAtWriteOp(ffs.WriteOps() + 1) }},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{WriteErrRate: 1})
			ffs.SetEnabled(false)
			d, err := diskdb.Open(ffs, diskdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			kv := &struct{ db.KV }{d} // the chain's store, across the restart
			bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := bc.InsertChain(long); n != len(long) || err != nil {
				t.Fatalf("long chain: %d blocks, %v", n, err)
			}
			before := append([]*Block{bc.Genesis()}, long...)
			after := append(append([]*Block(nil), before[:3]...), short...)
			wantCanon(t, bc, before, top)

			if tc.arm != nil {
				tc.arm(ffs)
				if n, err := bc.InsertChain(short); n != 0 || err == nil {
					t.Fatalf("faulted reorg inserted %d blocks, err %v", n, err)
				}
				// The store restarts over the medium (a torn one refuses
				// reads until then); the view is the chain's own.
				ffs.SetEnabled(false)
				ffs.Reopen()
				d.Close()
				if kv.KV, err = diskdb.Open(ffs, diskdb.Options{}); err != nil {
					t.Fatal(err)
				}
				sameView(t, bc, kv)
				wantCanon(t, bc, before, top)
			}

			if n, err := bc.InsertChain(short); n != len(short) || err != nil {
				t.Fatalf("reorg: %d blocks, %v", n, err)
			}
			wantCanon(t, bc, after, top)
			sameView(t, bc, kv)
		})
	}
}

// TestCanonicalBlocksCallerOwnsSlice: what CanonicalBlocks returns is the
// caller's to overwrite or extend; the chain answers as before.
func TestCanonicalBlocksCallerOwnsSlice(t *testing.T) {
	bc := newTestChain(t, MainnetLikeConfig())
	for i := 0; i < 4; i++ {
		mine(t, bc, 14)
	}
	want := bc.CanonicalBlocks(0, 4)
	window := bc.CanonicalBlocks(1, 3)
	for i := range window {
		window[i] = want[0]
	}
	_ = append(bc.CanonicalBlocks(0, 1), want[0], want[0])
	wantCanon(t, bc, want, 4)
}

// wantTxIndex requires every transaction of txs to resolve through bc's tx
// index, and through a chain reopened over kv, exactly as a scan of the
// canonical blocks finds it: in the same block at the same position, or
// not at all.
func wantTxIndex(t *testing.T, bc *Blockchain, kv db.KV, txs []*Transaction) {
	t.Helper()
	type at struct {
		block  types.Hash
		number uint64
		index  uint32
	}
	scan := map[types.Hash]at{}
	for _, b := range bc.CanonicalBlocks(0, bc.Head().Number()) {
		for i, tx := range b.Txs {
			scan[tx.Hash()] = at{b.Hash(), b.Number(), uint32(i)}
		}
	}
	re, err := Open(MainnetLikeConfig(), kv)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, c := range []struct {
		name string
		bc   *Blockchain
	}{{"chain", bc}, {"reopened", re}} {
		for _, tx := range txs {
			h := tx.Hash()
			want, canonical := scan[h]
			got, block, number, index, ok, err := c.bc.TransactionByHash(h)
			if err != nil {
				t.Fatalf("%s: TransactionByHash(%s): %v", c.name, h, err)
			}
			if ok != canonical {
				t.Fatalf("%s: tx %s resolves %v, a canonical scan finds it %v", c.name, h, ok, canonical)
			}
			if ok && (got.Hash() != h || (at{block, number, index}) != want) {
				t.Fatalf("%s: tx %s at block %d (%s) [%d], the scan finds %d (%s) [%d]",
					c.name, h, number, block, index, want.number, want.block, want.index)
			}
			_, rblock, rindex, rok, err := c.bc.ReceiptByTxHash(h)
			if err != nil || rok != canonical || rok && (rblock != want.block || rindex != want.index) {
				t.Fatalf("%s: receipt of tx %s at %s [%d] (%v, %v), the scan finds %v", c.name, h, rblock, rindex, rok, err, want)
			}
		}
	}
}

// TestTxIndexFollowsCanonicalChain: whatever is inserted — side blocks
// holding a canonical transaction, a reorg onto a shorter heavier branch,
// a reorg whose flush fails — the tx index answers what a scan of the
// canonical chain answers, before and after a reopen.
func TestTxIndexFollowsCanonicalChain(t *testing.T) {
	long, short := shorterHeavierBranch(t)
	tx := branchTxs
	all := []*Transaction{tx.shared, tx.both, tx.longOnly, tx.longTip, tx.shortOnly}

	faults := []struct {
		name string
		arm  func(ffs *faultfile.FS)
	}{
		{"clean", nil},
		{"write error", func(ffs *faultfile.FS) { ffs.SetEnabled(true) }},
		{"torn", func(ffs *faultfile.FS) { ffs.CrashAtWriteOp(ffs.WriteOps() + 1) }},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{WriteErrRate: 1})
			ffs.SetEnabled(false)
			d, err := diskdb.Open(ffs, diskdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			kv := &struct{ db.KV }{d} // the chain's store, across the restart
			bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := bc.InsertChain(long); n != len(long) || err != nil {
				t.Fatalf("long chain: %d blocks, %v", n, err)
			}
			wantTxIndex(t, bc, kv, all)
			// Seven side blocks, one holding a canonical transaction.
			for _, b := range short[:7] {
				if err := bc.InsertBlock(b); err != nil {
					t.Fatal(err)
				}
				wantTxIndex(t, bc, kv, all)
			}
			if bc.Head() != long[len(long)-1] {
				t.Fatalf("side blocks moved the head to %d", bc.Head().Number())
			}

			if tc.arm != nil {
				tc.arm(ffs)
				if err := bc.InsertBlock(short[7]); err == nil {
					t.Fatal("the faulted reorg landed")
				}
				ffs.SetEnabled(false)
				ffs.Reopen()
				d.Close()
				if kv.KV, err = diskdb.Open(ffs, diskdb.Options{}); err != nil {
					t.Fatal(err)
				}
				wantTxIndex(t, bc, kv, all)
			}

			if err := bc.InsertBlock(short[7]); err != nil {
				t.Fatalf("reorg: %v", err)
			}
			if bc.Head() != short[7] {
				t.Fatalf("head %d after the reorg, want the short branch's tip", bc.Head().Number())
			}
			wantTxIndex(t, bc, kv, all)
		})
	}
}
