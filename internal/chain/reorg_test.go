package chain

import (
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
)

// shorterHeavierBranch returns twelve blocks whose last ten came slowly,
// each lowering the difficulty, and a branch of eight quick blocks off the
// second: shorter by two heights, and heavier in total difficulty only once
// its eighth block is in.
func shorterHeavierBranch(t *testing.T) (long, short []*Block) {
	t.Helper()
	donor := newTestChain(t, MainnetLikeConfig())
	other := newTestChain(t, MainnetLikeConfig())
	for i := 0; i < 2; i++ {
		if err := other.InsertBlock(mine(t, donor, 14)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mine(t, donor, 1000)
	}
	for i := 0; i < 8; i++ {
		mine(t, other, 1)
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
