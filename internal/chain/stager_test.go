package chain

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/db"
)

// coalescers collects every distinct *db.Coalescer reachable from v.
func coalescers(v reflect.Value, seen map[uintptr]bool, found map[uintptr]bool) {
	coalType := reflect.TypeOf((*db.Coalescer)(nil))
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if v.Type() == coalType {
			found[v.Pointer()] = true
		}
		coalescers(v.Elem(), seen, found)
	case reflect.Interface:
		if !v.IsNil() {
			coalescers(v.Elem(), seen, found)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			coalescers(v.Field(i), seen, found)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			coalescers(v.Index(i), seen, found)
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			coalescers(it.Key(), seen, found)
			coalescers(it.Value(), seen, found)
		}
	}
}

// TestChainHoldsOneStager: whatever a chain has been through — genesis,
// mined blocks, an imported run, a flush — exactly one db.Coalescer is
// reachable from it, and its store reads through that one.
func TestChainHoldsOneStager(t *testing.T) {
	src := mineDense(t, db.NewMemDB(), 6, 2)
	blocks := src.CanonicalBlocks(1, src.Head().Number())
	_, gen := mineUsers(64)
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, db.NewMemDB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.InsertChain(blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, nil, nil, testSeal); err != nil {
		t.Fatal(err)
	}
	found := map[uintptr]bool{}
	coalescers(reflect.ValueOf(bc), map[uintptr]bool{}, found)
	if len(found) != 1 {
		t.Fatalf("%d db.Coalescers reachable from the chain, want 1", len(found))
	}
	if bc.Store().KV() != db.KV(bc.coal) {
		t.Fatal("the chain's store does not read through its stager")
	}
}

// TestMineBlockStagesUntilFlush: a mined block is the head and readable
// through the chain at once, but a store reopened before the caller's
// Flush does not hold it.
func TestMineBlockStagesUntilFlush(t *testing.T) {
	kv := db.NewMemDB()
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(MainnetLikeConfig(), kv); !errors.Is(err, ErrNoChain) {
		t.Fatalf("Open before genesis was flushed = %v, want ErrNoChain", err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	tx := transfer(0, alice, bob, 500, 0)
	b, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, []*Transaction{tx}, nil, testSeal)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Head() != b {
		t.Fatal("the mined block is not the head")
	}
	if _, bh, _, _, ok, err := bc.TransactionByHash(tx.Hash()); !ok || err != nil || bh != b.Hash() {
		t.Fatalf("the mined transaction is not readable through the chain: ok=%v %v", ok, err)
	}
	re, err := Open(MainnetLikeConfig(), kv)
	if err != nil {
		t.Fatal(err)
	}
	if re.Head().Number() != 0 || re.HasBlock(b.Hash()) {
		t.Fatalf("a store reopened before Flush holds the mined block (head %d)", re.Head().Number())
	}
	if has, err := NewStore(kv).HasBlock(b.Hash()); has || err != nil {
		t.Fatalf("the unflushed block reached the store (%v)", err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	if re, err = Open(MainnetLikeConfig(), kv); err != nil || re.Head().Hash() != b.Hash() {
		t.Fatalf("after Flush the store reopens at %v (%v), want the mined block", re, err)
	}
}

// gateKV is a store whose batch writes, once armed, wait at the gate and
// then fail: a flush that is slow to fail.
type gateKV struct {
	db.KV
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

var errGate = errors.New("gateKV: write refused")

func (k *gateKV) NewBatch() db.Batch { return gateBatch{Batch: k.KV.NewBatch(), kv: k} }

type gateBatch struct {
	db.Batch
	kv *gateKV
}

func (b gateBatch) Write() error {
	if !b.kv.armed.Load() {
		return b.Batch.Write()
	}
	b.kv.entered <- struct{}{}
	<-b.kv.release
	return errGate
}

// TestTxByHashNeverSeesAFailedRun: a reader asking for a transaction of a
// run whose flush is under way waits for the outcome, and when the flush
// fails, the transaction is unknown — the run's records are staged while
// the flush runs, but nothing reads them before they are durable.
func TestTxByHashNeverSeesAFailedRun(t *testing.T) {
	src := mineDense(t, db.NewMemDB(), 4, 3)
	blocks := src.CanonicalBlocks(1, src.Head().Number())
	_, gen := mineUsers(64)
	kv := &gateKV{KV: db.NewMemDB(), entered: make(chan struct{}), release: make(chan struct{})}
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, kv)
	if err == nil {
		err = bc.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	kv.armed.Store(true)
	inserted := make(chan error, 1)
	go func() {
		_, err := bc.InsertChain(blocks)
		inserted <- err
	}()
	<-kv.entered // the run is staged and its flush is writing

	type lookup struct {
		ok  bool
		err error
	}
	read := make(chan lookup, 1)
	go func() {
		_, _, _, _, ok, err := bc.TransactionByHash(blocks[0].Txs[0].Hash())
		read <- lookup{ok, err}
	}()
	select {
	case r := <-read:
		t.Fatalf("TransactionByHash answered (ok=%v, %v) while the run's flush was under way", r.ok, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(kv.release)
	if err := <-inserted; !errors.Is(err, errGate) {
		t.Fatalf("InsertChain = %v, want the failed flush", err)
	}
	if r := <-read; r.ok || r.err != nil {
		t.Fatalf("TransactionByHash of a run whose flush failed: ok=%v %v", r.ok, r.err)
	}
	if bc.Head().Number() != 0 {
		t.Fatalf("head %d after a failed run", bc.Head().Number())
	}
}
