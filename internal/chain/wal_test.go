package chain

import (
	"bytes"
	"errors"
	"math/big"
	"strings"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// donorChain mines a short canonical chain on a pristine store and
// returns it with its WriteChain stream.
func donorChain(t *testing.T) (*Blockchain, []byte) {
	t.Helper()
	bc := newTestChain(t, MainnetLikeConfig())
	nonce := uint64(0)
	for i := 0; i < 6; i++ {
		var txs []*Transaction
		if i%2 == 0 {
			txs = append(txs, transfer(nonce, alice, bob, 1_000, 0))
			nonce++
		}
		mine(t, bc, 13, txs...)
	}
	var buf bytes.Buffer
	if err := bc.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	return bc, buf.Bytes()
}

func TestOpenRoundTrip(t *testing.T) {
	kv := db.NewMemDB()
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	mine(t, bc, 13, transfer(0, alice, bob, 500, 0))
	mine(t, bc, 13)
	mine(t, bc, 13, transfer(1, alice, bob, 250, 0))

	re, err := Open(MainnetLikeConfig(), kv)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.Head().Hash() != bc.Head().Hash() {
		t.Fatalf("reopened head %s, want %s", re.Head().Hash(), bc.Head().Hash())
	}
	if re.Genesis().Hash() != bc.Genesis().Hash() {
		t.Fatal("reopened genesis diverged")
	}
	for n := uint64(0); n <= bc.Head().Number(); n++ {
		a, _ := bc.BlockByNumber(n)
		b, ok := re.BlockByNumber(n)
		if !ok || a.Hash() != b.Hash() {
			t.Fatalf("canonical block %d diverged after reopen", n)
		}
		td1, _ := bc.TD(a.Hash())
		td2, _ := re.TD(a.Hash())
		if td1.Cmp(td2) != 0 {
			t.Fatalf("TD at %d diverged after reopen", n)
		}
	}
	// The reopened chain must accept new blocks (head state intact, WAL
	// sequence continues).
	mine(t, re, 13, transfer(2, alice, bob, 100, 0))
}

func TestOpenEmptyStore(t *testing.T) {
	if _, err := Open(MainnetLikeConfig(), db.NewMemDB()); !errors.Is(err, ErrNoChain) {
		t.Fatalf("Open(empty) = %v, want ErrNoChain", err)
	}
}

// insertRuns hands blocks to bc.InsertChain in runs of size, stopping at
// the first error, and returns how many blocks were inserted.
func insertRuns(bc *Blockchain, blocks []*Block, size int) (int, error) {
	inserted := 0
	for i := 0; i < len(blocks); i += size {
		n, err := bc.InsertChain(blocks[i:min(i+size, len(blocks))])
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// crashRun is the run length the crash sweeps import in: small enough that
// the donor's six blocks make three commits.
const crashRun = 2

// checkRecovered asserts what a restart after a crash mid-import must
// find: the acknowledged head or the end of the run in flight — never a
// block inside a run — a WAL sequence that counts commits (genesis, then
// one per run), and the donor's blocks all the way up. It reports whether
// the run in flight landed.
func checkRecovered(t *testing.T, off uint64, donor, re *Blockchain, imported int) bool {
	t.Helper()
	got := re.Head().Number()
	inFlight := min(uint64(imported+crashRun), donor.Head().Number())
	if got != uint64(imported) && got != inFlight {
		t.Fatalf("off %d: recovered head %d, want the acknowledged %d or the in-flight run's end %d",
			off, got, imported, inFlight)
	}
	if commits := re.Store().walSeq - 1; commits != (got+crashRun-1)/crashRun {
		t.Fatalf("off %d: recovered head %d after %d run commits", off, got, commits)
	}
	for n := uint64(0); n <= got; n++ {
		want, _ := donor.BlockByNumber(n)
		b, ok := re.BlockByNumber(n)
		if !ok || b.Hash() != want.Hash() {
			t.Fatalf("off %d: recovered canon %d diverged from donor", off, n)
		}
	}
	return got != uint64(imported)
}

// TestCrashMidImportRecovers is the crash-restart round trip: kill the
// store at every write operation of an import that lands the donor's blocks
// as runs, reopen, and require that recovery lands on a run boundary —
// the last acknowledged run or the one in flight, never a block inside a
// run — and that resuming the import converges on the donor chain.
func TestCrashMidImportRecovers(t *testing.T) {
	donor, _ := donorChain(t)
	blocks := donor.CanonicalBlocks(1, donor.Head().Number())

	// Measure the import's total write footprint on a clean run.
	calibKV := &tearKV{KV: db.NewMemDB()}
	calib, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), calibKV)
	if err != nil {
		t.Fatal(err)
	}
	importStart := calibKV.WriteOps()
	if _, err := insertRuns(calib, blocks, crashRun); err != nil {
		t.Fatal(err)
	}
	totalOps := calibKV.WriteOps() - importStart
	if totalOps < 20 {
		t.Fatalf("import footprint suspiciously small: %d write ops", totalOps)
	}

	var lost, landed int // crashes that lost the run in flight, and that did not
	for off := uint64(1); off <= totalOps; off++ {
		fkv := &tearKV{KV: db.NewMemDB()}
		victim, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), fkv)
		if err != nil {
			t.Fatal(err)
		}
		fkv.CrashAtWriteOp(fkv.WriteOps() + off)
		imported, err := insertRuns(victim, blocks, crashRun)
		if err == nil {
			t.Fatalf("off %d: import survived an armed crash", off)
		}
		if uint64(imported) != victim.Head().Number() {
			t.Fatalf("off %d: memory head %d does not match %d acknowledged imports",
				off, victim.Head().Number(), imported)
		}

		fkv.Reopen()
		re, err := Open(MainnetLikeConfig(), fkv)
		if err != nil {
			t.Fatalf("off %d: Open after crash: %v", off, err)
		}
		if checkRecovered(t, off, donor, re, imported) {
			landed++
		} else {
			lost++
		}

		// Resuming the import must converge on the donor head.
		if _, err := insertRuns(re, blocks, crashRun); err != nil {
			t.Fatalf("off %d: resumed import: %v", off, err)
		}
		if re.Head().Hash() != donor.Head().Hash() {
			t.Fatalf("off %d: resumed head %s, want %s", off, re.Head().Hash(), donor.Head().Hash())
		}
	}
	t.Logf("%d write ops swept: %d crashes lost the run in flight, %d landed it by redo", totalOps, lost, landed)
	if lost == 0 || landed == 0 {
		t.Fatal("the sweep never tore a run on one side of its WAL record")
	}
}

// TestWALRedoRepairsTornBatch exercises the store-level protocol: a commit
// batch torn after its WAL record landed is finished by RecoverWAL.
func TestWALRedoRepairsTornBatch(t *testing.T) {
	inner := db.NewMemDB()
	fkv := &tearKV{KV: inner}
	store := NewStore(fkv)

	batch := fkv.NewBatch()
	batch.Put(types.HexToHash("0x5ade").Bytes(), []byte("a state node"))
	wb := store.NewWALBatch()
	h := types.HexToHash("0xabc123")
	store.PutTD(wb, h, big.NewInt(77))
	store.PutStateRoot(wb, h, types.HexToHash("0xdef"))
	store.PutCanon(wb, 9, h)

	// The batch is [state node, WAL record, TD, state root, canon,
	// watermark]: tear it after the TD, so the record is durable but its
	// operations only half applied.
	fkv.CrashAtWriteOp(fkv.WriteOps() + 4)
	err := store.CommitWAL(batch, wb)
	if !errors.Is(err, errTorn) {
		t.Fatalf("CommitWAL under tear = %v, want ErrCrashed", err)
	}
	if _, ok, _ := store.CanonHash(9); ok {
		t.Fatal("torn batch applied its canon entry")
	}
	if store.walSeq != 0 {
		t.Fatalf("a torn commit advanced walSeq to %d", store.walSeq)
	}

	fkv.Reopen()
	re := NewStore(fkv)
	if err := re.RecoverWAL(); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	td, ok, err := re.TD(h)
	if err != nil || !ok || td.Uint64() != 77 {
		t.Fatalf("TD after redo = %v %v %v", td, ok, err)
	}
	if ch, ok, _ := re.CanonHash(9); !ok || ch != h {
		t.Fatal("redo did not finish the torn batch")
	}
	if re.walSeq != 1 {
		t.Fatalf("recovered walSeq %d, the torn commit was record 1", re.walSeq)
	}
}

// TestWALTruncatesCorruptRecord: a bit-rotted WAL record is removed
// during recovery, and the (fully applied) store still verifies.
func TestWALTruncatesCorruptRecord(t *testing.T) {
	kv := db.NewMemDB()
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	mine(t, bc, 13)
	slot := walSlotKey(bc.Store().walSeq % walSlots)
	rec, ok, err := kv.Get(slot)
	if err != nil || !ok {
		t.Fatalf("no WAL record in the live slot: %v %v", ok, err)
	}
	rotted := append([]byte(nil), rec...)
	rotted[len(rotted)/2] ^= 0x40
	if err := kv.Put(slot, rotted); err != nil {
		t.Fatal(err)
	}

	re, err := Open(MainnetLikeConfig(), kv)
	if err != nil {
		t.Fatalf("Open with rotted WAL record: %v", err)
	}
	if re.Head().Hash() != bc.Head().Hash() {
		t.Fatal("head changed although the data was fully applied")
	}
	if ok, _ := kv.Has(slot); ok {
		t.Fatal("corrupt WAL record not truncated")
	}
}

// TestDoubleFaultFallsBackToPreviousHead: the newest commit's batch tears
// AND its WAL record rots. The commit is unrecoverable, but the store
// must still open consistently at the previous head (the documented
// data-loss-not-corruption semantics).
func TestDoubleFaultFallsBackToPreviousHead(t *testing.T) {
	inner := db.NewMemDB()
	fkv := &tearKV{KV: inner}
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), fkv)
	if err != nil {
		t.Fatal(err)
	}
	mine(t, bc, 13)
	prevHead := bc.Head().Hash()

	// Build block 2 by hand so the crash cannot land in BuildBlock.
	blk, err := bc.BuildBlock(pool1, bc.Head().Header.Time+13, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the WAL record inside the block's one batch: crash right after
	// it, tearing the chain records (offset past the state nodes, probed
	// upward).
	inserted := false
	for off := uint64(1); off < 200; off++ {
		snap := cloneMemDB(t, inner)
		fkv.CrashAtWriteOp(fkv.WriteOps() + off)
		err := bc.InsertBlock(blk)
		fkv.Reopen()
		if err == nil {
			inserted = true
			break
		}
		seq := bc.Store().walSeq + 1 // the torn commit's record
		rec, ok, _ := inner.Get(walSlotKey(seq % walSlots))
		if ok {
			if gotSeq, _, derr := decodeWALRecord(rec); derr == nil && gotSeq == seq && seq >= 3 {
				// The block's WAL record landed but its batch tore: the
				// double-fault setup. Rot the record and recover.
				rec[len(rec)-1] ^= 0x01
				if err := inner.Put(walSlotKey(seq%walSlots), rec); err != nil {
					t.Fatal(err)
				}
				re, err := Open(MainnetLikeConfig(), fkv)
				if err != nil {
					t.Fatalf("off %d: double fault made the store unopenable: %v", off, err)
				}
				if re.Head().Hash() != prevHead {
					t.Fatalf("off %d: double fault recovered to %s, want previous head %s",
						off, re.Head().Hash(), prevHead)
				}
				return
			}
		}
		restoreMemDB(t, inner, snap)
	}
	if inserted {
		t.Skip("no probed offset tore the data batch after the WAL record")
	}
	t.Fatal("never reached the commit point")
}

// TestVerifyHeadDetectsInconsistency: a manufactured store whose head
// marker points at a missing block must surface ErrCorruptStore (the
// resync fallback signal).
func TestVerifyHeadDetectsInconsistency(t *testing.T) {
	kv := db.NewMemDB()
	if err := kv.Put(keyHead, types.HexToHash("0xdead").Bytes()); err != nil {
		t.Fatal(err)
	}
	store := NewStore(kv)
	if err := store.RecoverWAL(); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("RecoverWAL over inconsistent store = %v, want ErrCorruptStore", err)
	}
	if _, err := Open(MainnetLikeConfig(), kv); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("Open over inconsistent store = %v, want ErrCorruptStore", err)
	}
}

// TestOpenRejectsStateRootMismatch: a canonical block's state-root record
// must equal its header's root; a store where the two disagree is
// corrupt, not a chain whose state is the record's.
func TestOpenRejectsStateRootMismatch(t *testing.T) {
	kv := db.NewMemDB()
	bc := mineDense(t, kv, 4, 2)
	if _, err := Open(MainnetLikeConfig(), kv); err != nil {
		t.Fatalf("Open over the intact store: %v", err)
	}
	h := bc.CanonicalBlocks(2, 2)[0].Hash()
	if err := kv.Put(hashKey(prefixStateRoot, h), types.HexToHash("0xbad").Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(MainnetLikeConfig(), kv); !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), "block 2") {
		t.Fatalf("Open over a mismatched state-root record = %v, want ErrCorruptStore naming block 2", err)
	}
}

// cloneMemDB snapshots every key of a MemDB.
func cloneMemDB(t *testing.T, m *db.MemDB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, k := range m.Keys() {
		v, ok, err := m.Get(k)
		if err != nil || !ok {
			t.Fatalf("clone read: %v %v", ok, err)
		}
		out[string(k)] = append([]byte(nil), v...)
	}
	return out
}

// restoreMemDB rewinds a MemDB to a snapshot.
func restoreMemDB(t *testing.T, m *db.MemDB, snap map[string][]byte) {
	t.Helper()
	for _, k := range m.Keys() {
		if _, ok := snap[string(k)]; !ok {
			if err := m.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, v := range snap {
		if err := m.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
}
