package chain

import (
	"bytes"
	"fmt"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/diskdb"
)

// buildBenchExport mines a chain with transfer traffic and returns its
// export stream.
func buildBenchExport(b *testing.B, blocks, txsPer int) []byte {
	b.Helper()
	bc, err := NewBlockchain(MainnetLikeConfig(), testGenesis())
	if err != nil {
		b.Fatal(err)
	}
	nonce := uint64(0)
	for i := 0; i < blocks; i++ {
		txs := make([]*Transaction, txsPer)
		for j := range txs {
			txs[j] = transfer(nonce, alice, bob, 1, 0)
			nonce++
		}
		blk, err := bc.BuildBlock(pool1, bc.Head().Header.Time+14, txs)
		if err != nil {
			b.Fatal(err)
		}
		if err := bc.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := bc.WriteChain(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkImportChainWorkers measures the import with frames decoded
// inline (workers=1, the reference loop) and by the decode-ahead goroutine
// (workers=2). The insert path (state execution, WAL commit) is the same
// in both, so the delta is the decode + keccak + signature + tx-root work
// taken off the insert loop.
func BenchmarkImportChainWorkers(b *testing.B) {
	enc := buildBenchExport(b, 50, 20)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				dst, err := NewBlockchain(MainnetLikeConfig(), testGenesis())
				if err != nil {
					b.Fatal(err)
				}
				n, err := dst.ImportChainWorkers(bytes.NewReader(enc), workers)
				if err != nil {
					b.Fatal(err)
				}
				if n != 50 {
					b.Fatalf("imported %d blocks, want 50", n)
				}
			}
		})
	}
}

// BenchmarkImportChainDisk is a replica's sync and restart on disk, the
// shape of bench/'s replica-import-disk op: import a mined dense chain into
// a fresh diskdb directory, close it, and reopen the chain from that
// directory alone. `make profile` writes its CPU and heap profiles to
// profiles/import/.
func BenchmarkImportChainDisk(b *testing.B) {
	const blocks, perBlock = 600, 8
	src := mineDense(b, db.NewMemDB(), blocks, perBlock)
	var buf bytes.Buffer
	if err := src.WriteChain(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	_, gen := mineUsers(64)
	open := func(dir string) *diskdb.DB {
		fs, err := diskdb.NewOSFS(dir)
		if err != nil {
			b.Fatal(err)
		}
		d, err := diskdb.Open(fs, diskdb.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		d := open(dir)
		dst, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, d)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := dst.ImportChain(bytes.NewReader(enc)); err != nil || n != blocks {
			b.Fatalf("imported %d of %d blocks: %v", n, blocks, err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		d = open(dir)
		re, err := Open(MainnetLikeConfig(), d)
		if err != nil {
			b.Fatal(err)
		}
		if re.Head().Hash() != src.Head().Hash() {
			b.Fatalf("reopened at %d, source head %d", re.Head().Number(), src.Head().Number())
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
