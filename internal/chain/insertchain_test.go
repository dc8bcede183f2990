package chain

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
)

// TestRejectedBlockWritesNothing: a block that fails a check — its
// header's state root or receipt root, or the uncle list a miner passes —
// reaches no part of the store, whichever door it came through. A commit is
// written only once every check has passed, so a rejected block leaves no
// orphan trie nodes behind in an archive that is never compacted.
func TestRejectedBlockWritesNothing(t *testing.T) {
	// A donor builds the blocks. The subject follows it two blocks deep,
	// carrying its head's state, and then meets lying siblings of that
	// head: blocks on the head's parent, so what the subject carries is not
	// what they execute on, and stays its own.
	donor := newTestChain(t, MainnetLikeConfig())
	b1 := mine(t, donor, 13, transfer(0, alice, bob, 500, 0))
	b2 := mine(t, donor, 13)
	side := newTestChain(t, MainnetLikeConfig())
	if err := side.InsertBlock(b1); err != nil {
		t.Fatal(err)
	}
	sibling := mine(t, side, 20, transfer(1, alice, bob, 700, 0))
	tampered := func(edit func(*Header)) *Block {
		b, err := DecodeBlock(sibling.Encode())
		if err != nil {
			t.Fatal(err)
		}
		edit(b.Header)
		return b
	}
	badState := tampered(func(h *Header) { h.StateRoot[0] ^= 1 })
	badReceipts := tampered(func(h *Header) { h.ReceiptRoot[0] ^= 1 })

	cases := []struct {
		name   string
		reject func(bc *Blockchain) error
		want   error
	}{
		{"state root", func(bc *Blockchain) error { return bc.InsertBlock(badState) }, ErrStateMismatch},
		{"receipt root", func(bc *Blockchain) error { return bc.InsertBlock(badReceipts) }, ErrInvalidBody},
		{"state root in a run", func(bc *Blockchain) error {
			_, err := bc.InsertChain([]*Block{badState})
			return err
		}, ErrStateMismatch},
		{"miner's uncle", func(bc *Blockchain) error {
			// The head's parent is an ancestor, never an uncle.
			_, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, nil, []*Header{b1.Header}, testSeal)
			return err
		}, ErrInvalidBody},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log putLog
			bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), loggedKV{KV: db.NewMemDB(), log: &log})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*Block{b1, b2} {
				if err := bc.InsertBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			head, carried, writes := bc.Head(), bc.headState, len(log)
			if carried == nil {
				t.Fatal("the head left no state to carry")
			}
			if err := tc.reject(bc); !errors.Is(err, tc.want) {
				t.Fatalf("rejection = %v, want %v", err, tc.want)
			}
			if len(log) != writes {
				t.Fatalf("a rejected block wrote %d operations:\n%s", len(log)-writes, strings.Join(log[writes:], "\n"))
			}
			if bc.Head() != head || bc.headState != carried {
				t.Fatal("a rejected block moved the head or disturbed its carried state")
			}
		})
	}
}

// sameView requires a chain's in-memory view to equal what a fresh Open
// over the same store rebuilds: the same canonical chain, height by height
// and no longer, every block Open knows known with the same TD, and every
// block in the table (side branches included, which Open does not
// re-index) held in the store with that TD.
func sameView(t *testing.T, bc *Blockchain, kv db.KV) {
	t.Helper()
	re, err := Open(MainnetLikeConfig(), kv)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if bc.Head().Hash() != re.Head().Hash() {
		t.Fatalf("head %d, the store says %d", bc.Head().Number(), re.Head().Number())
	}
	if len(bc.canon) != len(re.canon) {
		t.Fatalf("%d canonical heights in memory, the store has %d", len(bc.canon), len(re.canon))
	}
	for n, b := range re.canon {
		if bc.canon[n].Hash() != b.Hash() {
			t.Fatalf("canonical block %d differs from the store's", n)
		}
	}
	for h, k := range re.blocks {
		if mine, ok := bc.blocks[h]; !ok || mine.td.Cmp(k.td) != 0 {
			t.Fatalf("block %s: TD %v in memory, %v in the store", h, mine.td, k.td)
		}
	}
	for h, k := range bc.blocks {
		if td, ok, err := re.Store().TD(h); err != nil || !ok || td.Cmp(k.td) != 0 {
			t.Fatalf("block %d (%s) in memory with TD %v, the store has %v (%v)", k.block.Number(), h, k.td, td, err)
		}
	}
}

// TestInsertChainFailedCommitKeepsView: when a run's one batch fails — a
// write error that lands nothing, or a crash that tears its append — the
// chain stays exactly where a restart over the medium would put it, and
// resuming converges on the donor's head.
func TestInsertChainFailedCommitKeepsView(t *testing.T) {
	src := mineDense(t, db.NewMemDB(), 12, 3)
	blocks := src.CanonicalBlocks(1, src.Head().Number())
	_, gen := mineUsers(64)

	faults := map[string]func(ffs *faultfile.FS){
		"write error": func(ffs *faultfile.FS) { ffs.SetEnabled(true) },
		"torn":        func(ffs *faultfile.FS) { ffs.CrashAtWriteOp(ffs.WriteOps() + 1) },
	}
	for name, arm := range faults {
		t.Run(name, func(t *testing.T) {
			ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{WriteErrRate: 1})
			ffs.SetEnabled(false)
			d, err := diskdb.Open(ffs, diskdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			kv := &struct{ db.KV }{d} // the chain's store, across the restart
			bc, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, kv)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := bc.InsertChain(blocks[:4]); n != 4 || err != nil {
				t.Fatalf("first run: %d blocks, %v", n, err)
			}
			arm(ffs)
			n, err := bc.InsertChain(blocks[4:9])
			if n != 0 || err == nil {
				t.Fatalf("faulted run inserted %d blocks, err %v", n, err)
			}
			if bc.Head() != blocks[3] {
				t.Fatalf("head %d after a failed run, want the acknowledged %d", bc.Head().Number(), blocks[3].Number())
			}
			if bc.headState != nil {
				t.Fatal("a failed run left a carried state a reopened chain would not have")
			}
			for i, b := range bc.canon[len(bc.canon):cap(bc.canon)] {
				if b != nil {
					t.Fatalf("the canonical slice's array still holds discarded block %d past its length (slot %d)", b.Number(), len(bc.canon)+i)
				}
			}
			// The store restarts over the medium: the recovery scan drops a
			// torn append's prefix.
			ffs.SetEnabled(false)
			ffs.Reopen()
			d.Close()
			if kv.KV, err = diskdb.Open(ffs, diskdb.Options{}); err != nil {
				t.Fatal(err)
			}
			sameView(t, bc, kv)
			// The stager dropped the run: reads through it see the store.
			if head, _, err := bc.Store().Head(); err != nil || head != blocks[3].Hash() {
				t.Fatalf("the chain reads head marker %s (%v), want the acknowledged %s", head, err, blocks[3].Hash())
			}
			for _, b := range blocks[4:9] {
				if has, err := bc.Store().HasBlock(b.Hash()); has || err != nil {
					t.Fatalf("block %d of the failed run still readable through the chain (%v)", b.Number(), err)
				}
			}

			if _, err := bc.InsertChain(blocks[4:]); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if bc.Head().Hash() != src.Head().Hash() {
				t.Fatalf("resumed to %d, donor head %d", bc.Head().Number(), src.Head().Number())
			}
			sameView(t, bc, kv)
		})
	}
}

// TestInsertChainErrorPosition: an invalid block at position i of a run
// commits blocks 0..i-1 and reports block i, exactly as inserting the
// blocks one by one stops there.
func TestInsertChainErrorPosition(t *testing.T) {
	src := mineDense(t, db.NewMemDB(), 6, 2)
	blocks := src.CanonicalBlocks(1, src.Head().Number())
	_, gen := mineUsers(64)
	for i := range blocks {
		run := append([]*Block(nil), blocks...)
		bad, err := DecodeBlock(blocks[i].Encode())
		if err != nil {
			t.Fatal(err)
		}
		bad.Header.StateRoot[0] ^= 1
		run[i] = bad

		kv := db.NewMemDB()
		bc, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, kv)
		if err != nil {
			t.Fatal(err)
		}
		n, err := bc.InsertChain(run)
		serial, err1 := NewBlockchain(MainnetLikeConfig(), gen)
		if err1 != nil {
			t.Fatal(err1)
		}
		var serialErr error
		for _, b := range run {
			if serialErr = serial.InsertBlock(b); serialErr != nil {
				break
			}
		}
		if n != i || !errors.Is(err, ErrStateMismatch) || !errors.Is(serialErr, ErrStateMismatch) {
			t.Fatalf("bad block at %d: inserted %d (%v), serially %v", i, n, err, serialErr)
		}
		if want := fmt.Sprintf("block %d: ", bad.Number()); !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error %q does not name block %d", err, bad.Number())
		}
		if bc.Head().Hash() != serial.Head().Hash() || bc.Head().Number() != uint64(i) {
			t.Fatalf("bad block at %d: head %d, serial head %d", i, bc.Head().Number(), serial.Head().Number())
		}
		re, err := Open(MainnetLikeConfig(), kv)
		if err != nil {
			t.Fatal(err)
		}
		if re.Head().Hash() != bc.Head().Hash() {
			t.Fatalf("bad block at %d: the store reopens at %d, not the committed prefix", i, re.Head().Number())
		}
	}
}

// TestInsertChainReadersSeeCommittedBlocks: readers running beside a sync
// never see a canonical block whose transactions the store cannot yet
// resolve — a run's blocks become visible only once its commit has landed.
// Meaningful under -race.
func TestInsertChainReadersSeeCommittedBlocks(t *testing.T) {
	const runs, perRun = 6, 8
	src := mineDense(t, db.NewMemDB(), runs*perRun, 4)
	blocks := src.CanonicalBlocks(1, src.Head().Number())
	_, gen := mineUsers(64)
	bc, err := NewBlockchain(MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				head := bc.Head().Number()
				for n := uint64(1); n <= head; n++ {
					b, ok := bc.BlockByNumber(n)
					if !ok {
						t.Errorf("canonical block %d missing below head %d", n, head)
						return
					}
					for i, tx := range b.Txs {
						_, bh, num, idx, ok, err := bc.TransactionByHash(tx.Hash())
						if err != nil || !ok || bh != b.Hash() || num != n || idx != uint32(i) {
							t.Errorf("block %d tx %d: index resolves to %s/%d/%d (ok=%v, %v)", n, i, bh, num, idx, ok, err)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < len(blocks); i += perRun {
		if _, err := bc.InsertChain(blocks[i : i+perRun]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	readers.Wait()
	if bc.Head().Hash() != src.Head().Hash() {
		t.Fatalf("synced to %d, source head %d", bc.Head().Number(), src.Head().Number())
	}
}
