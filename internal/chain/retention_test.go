//go:build go1.24

package chain

import (
	"bytes"
	"runtime"
	"testing"
	"weak"

	"forkwatch/internal/db"
)

// TestWALBatchResetDropsValues: a reset WALBatch, kept for reuse, pins
// none of the values it had staged.
func TestWALBatchResetDropsValues(t *testing.T) {
	b := new(Store).NewWALBatch()
	ptrs := make([]weak.Pointer[byte], 64)
	for i := range ptrs {
		v := bytes.Repeat([]byte{byte(i)}, 1024)
		ptrs[i] = weak.Make(&v[0])
		b.Put([]byte{'k', byte(i)}, v)
	}
	b.Reset()
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Fatalf("staged value %d is still reachable after Reset", i)
		}
	}
	if b.Len() != 0 {
		t.Errorf("after Reset: Len %d", b.Len())
	}
	runtime.KeepAlive(b)
}

// TestFlushedChainPinsNothing: once the chain's Flush succeeds, neither
// its stager nor its record of what to undo keeps anything staged alive.
func TestFlushedChainPinsNothing(t *testing.T) {
	kv := db.NewMemDB()
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, nil, nil, testSeal); err != nil {
		t.Fatal(err)
	}
	b := bc.Store().KV().NewBatch()
	ptrs := make([]weak.Pointer[byte], 64)
	for i := range ptrs {
		v := bytes.Repeat([]byte{byte(i)}, 1024)
		ptrs[i] = weak.Make(&v[0])
		b.Put([]byte{'k', byte(i)}, v)
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	if bc.staged != nil {
		t.Fatal("a flushed chain kept its record of what to undo")
	}
	// Only the stager could still reach the values once the store forgets
	// them.
	forget := kv.NewBatch()
	for i := range ptrs {
		forget.Delete([]byte{'k', byte(i)})
	}
	if err := forget.Write(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Fatalf("staged value %d is still reachable after the chain's Flush", i)
		}
	}
	runtime.KeepAlive(bc)
}
