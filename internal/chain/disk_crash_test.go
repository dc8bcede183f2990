package chain

import (
	"bytes"
	"testing"

	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
)

// diskStack opens a fresh disk store over an in-memory medium, with the
// faultfile layer (no random plan) in between so tests can count appends
// and arm crashes on the files. TestDiskReopenAcrossProcessModel is the
// check on real files.
func diskStack(t *testing.T) (*faultfile.FS, *diskdb.DB) {
	t.Helper()
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{})
	d, err := diskdb.Open(ffs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ffs, d
}

// TestDiskCrashSweepMidImport is the disk-backend counterpart of
// TestCrashMidImportRecovers, and it is exhaustive: the medium is killed
// at EVERY physical append of an import that lands the donor's blocks as
// runs — one append per run. Each kill tears a random strict prefix of that
// append onto the files; the restart path (diskdb.Open segment replay
// + torn-tail truncation, then the chain-level WAL redo) must land on a run
// boundary — the acknowledged head or the end of the run in flight, never a
// block inside a run — and resuming the import must converge on the donor
// chain.
func TestDiskCrashSweepMidImport(t *testing.T) {
	donor, _ := donorChain(t)
	blocks := donor.CanonicalBlocks(1, donor.Head().Number())

	// Calibrate the import's append footprint on a clean disk run.
	calibFS, calibDB := diskStack(t)
	calib, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), calibDB)
	if err != nil {
		t.Fatal(err)
	}
	importStart := calibFS.WriteOps()
	if _, err := insertRuns(calib, blocks, crashRun); err != nil {
		t.Fatal(err)
	}
	totalOps := calibFS.WriteOps() - importStart
	calibDB.Close()
	if runs := uint64(len(blocks)+crashRun-1) / crashRun; totalOps != runs || runs < 3 {
		t.Fatalf("import of %d runs made %d appends, want one per run and at least 3 runs", runs, totalOps)
	}

	for off := uint64(1); off <= totalOps; off++ {
		ffs, d := diskStack(t)
		victim, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), d)
		if err != nil {
			t.Fatal(err)
		}
		ffs.CrashAtWriteOp(ffs.WriteOps() + off)
		imported, err := insertRuns(victim, blocks, crashRun)
		if err == nil {
			t.Fatalf("off %d: import survived an armed crash", off)
		}
		if uint64(imported) != victim.Head().Number() {
			t.Fatalf("off %d: memory head %d does not match %d acknowledged imports",
				off, victim.Head().Number(), imported)
		}

		// The process restarts over the surviving files: close the dead
		// store, clear the crash, replay the segments, then WAL redo.
		d.Close()
		ffs.Reopen()
		d2, err := diskdb.Open(ffs, diskdb.Options{})
		if err != nil {
			t.Fatalf("off %d: diskdb.Open after crash: %v", off, err)
		}
		re, err := Open(MainnetLikeConfig(), d2)
		if err != nil {
			t.Fatalf("off %d: chain.Open after crash: %v", off, err)
		}
		checkRecovered(t, off, donor, re, imported)

		// Resuming the import must converge on the donor head.
		if _, err := insertRuns(re, blocks, crashRun); err != nil {
			t.Fatalf("off %d: resumed import: %v", off, err)
		}
		if re.Head().Hash() != donor.Head().Hash() {
			t.Fatalf("off %d: resumed head %s, want %s", off, re.Head().Hash(), donor.Head().Hash())
		}
		d2.Close()
	}
}

// TestOneAppendPerCommit pins the write count a commit costs on disk: a
// mined or inserted block is one append (one fsync), and an import of N
// blocks is one append per run of MaxRun.
func TestOneAppendPerCommit(t *testing.T) {
	srcFS, srcDB := diskStack(t)
	defer srcDB.Close()
	src := mineDense(t, srcDB, MaxRun+3, 2)
	before := srcFS.WriteOps()
	blk, err := src.MineBlock(pool1, src.Head().Header.Time+14, nil, nil, testSeal)
	if err != nil {
		t.Fatal(err)
	}
	if got := srcFS.WriteOps() - before; got != 1 {
		t.Fatalf("MineBlock made %d appends, want 1", got)
	}
	var buf bytes.Buffer
	if err := src.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	last := src.Head().Number()

	_, gen := mineUsers(64)
	dstFS, dstDB := diskStack(t)
	defer dstDB.Close()
	dst, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, dstDB)
	if err != nil {
		t.Fatal(err)
	}
	// Import all but the last block, then insert that one alone.
	stream := buf.Bytes()[:buf.Len()-4-len(blk.Encode())]
	before = dstFS.WriteOps()
	n, err := dst.ImportChain(bytes.NewReader(stream))
	if err != nil || uint64(n) != last-1 {
		t.Fatalf("imported %d of %d blocks: %v", n, last-1, err)
	}
	if got, want := dstFS.WriteOps()-before, uint64(n+MaxRun-1)/MaxRun; got != want {
		t.Fatalf("importing %d blocks made %d appends, want %d", n, got, want)
	}
	before = dstFS.WriteOps()
	if err := dst.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	if got := dstFS.WriteOps() - before; got != 1 {
		t.Fatalf("InsertBlock made %d appends, want 1", got)
	}
}

// TestDiskReopenAcrossProcessModel is the plain (no-crash) durability
// round trip on the real filesystem: mine, close cleanly, reopen from
// the directory alone, and keep mining.
func TestDiskReopenAcrossProcessModel(t *testing.T) {
	dir := t.TempDir()
	osfs, err := dbfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diskdb.Open(osfs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), d)
	if err != nil {
		t.Fatal(err)
	}
	mine(t, bc, 13, transfer(0, alice, bob, 500, 0))
	mine(t, bc, 13)
	head := bc.Head().Hash()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	osfs2, err := dbfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := diskdb.Open(osfs2, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	re, err := Open(MainnetLikeConfig(), d2)
	if err != nil {
		t.Fatalf("Open from directory: %v", err)
	}
	if re.Head().Hash() != head {
		t.Fatalf("reopened head %s, want %s", re.Head().Hash(), head)
	}
	mine(t, re, 13, transfer(1, alice, bob, 100, 0))
}
