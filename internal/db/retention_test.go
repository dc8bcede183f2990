//go:build go1.24

package db

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// putFresh hands n fresh 1 KiB values to put, under keys k0..k<n-1>, and
// returns weak pointers to them: nothing but put's store references them.
func putFresh(n int, put func(key, value []byte)) []weak.Pointer[byte] {
	ptrs := make([]weak.Pointer[byte], n)
	for i := range ptrs {
		v := bytes.Repeat([]byte{byte(i)}, 1024)
		ptrs[i] = weak.Make(&v[0])
		put(retentionKey(i), v)
	}
	return ptrs
}

func retentionKey(i int) []byte { return []byte(fmt.Sprintf("k%d", i)) }

// requireReclaimed fails if any value survives a full GC.
func requireReclaimed(t *testing.T, ptrs []weak.Pointer[byte]) {
	t.Helper()
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Fatalf("value %d of %d is still reachable after GC", i, len(ptrs))
		}
	}
}

// forget deletes k0..k<n-1> from a MemDB, so only what a batch or overlay
// kept can still reach their values.
func forget(t *testing.T, m *MemDB, n int) {
	t.Helper()
	b := m.NewBatch()
	for i := 0; i < n; i++ {
		b.Delete(retentionKey(i))
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
}

// TestWrittenValuesAreNotPinned: once a batch is written or reset, or an
// overlay flushed, nothing of it keeps the values it was handed alive.
func TestWrittenValuesAreNotPinned(t *testing.T) {
	const n = 64
	t.Run("memBatch_write", func(t *testing.T) {
		m := NewMemDB()
		b := m.NewBatch()
		ptrs := putFresh(n, b.Put)
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
		forget(t, m, n)
		requireReclaimed(t, ptrs)
		runtime.KeepAlive(b)
	})
	t.Run("memBatch_reset", func(t *testing.T) {
		b := NewMemDB().NewBatch()
		ptrs := putFresh(n, b.Put)
		b.Reset()
		requireReclaimed(t, ptrs)
		runtime.KeepAlive(b)
	})
	t.Run("coalesceBatch_reset", func(t *testing.T) {
		c := NewCoalescer(NewMemDB())
		b := c.NewBatch()
		ptrs := putFresh(n, b.Put)
		b.Reset()
		requireReclaimed(t, ptrs)
		runtime.KeepAlive(b)
	})
	t.Run("coalesceBatch_write_flush", func(t *testing.T) {
		m := NewMemDB()
		c := NewCoalescer(m)
		b := c.NewBatch()
		ptrs := putFresh(n, b.Put)
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		forget(t, m, n)
		requireReclaimed(t, ptrs)
		runtime.KeepAlive(b)
		// The emptied overlay still takes writes.
		put(t, c, "again", "1")
		if v, ok, _ := c.Get([]byte("again")); !ok || string(v) != "1" {
			t.Fatalf("overlay after flush: Get = %q %v", v, ok)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := m.Get([]byte("again")); !ok || string(v) != "1" {
			t.Fatalf("second flush: inner Get = %q %v", v, ok)
		}
	})
}

// failingKV is a MemDB whose batch writes fail while fail is set.
type failingKV struct {
	*MemDB
	fail bool
}

func (f *failingKV) NewBatch() Batch { return &failingBatch{Batch: f.MemDB.NewBatch(), kv: f} }

type failingBatch struct {
	Batch
	kv *failingKV
}

func (b *failingBatch) Write() error {
	if b.kv.fail {
		return errors.New("injected write failure")
	}
	return b.Batch.Write()
}

// TestCoalescerFailedFlushKeepsOverlay: a flush whose batch fails keeps
// every staged op readable, and the next flush lands them.
func TestCoalescerFailedFlushKeepsOverlay(t *testing.T) {
	inner := &failingKV{MemDB: NewMemDB(), fail: true}
	c := NewCoalescer(inner)
	put(t, c, "a", "1")
	del(t, c, "b")
	if err := c.Flush(); err == nil {
		t.Fatal("Flush over a failing batch succeeded")
	}
	if v, ok, _ := c.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("after a failed flush Get(a) = %q %v, want the staged 1", v, ok)
	}
	inner.fail = false
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := inner.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("retried flush: inner Get(a) = %q %v", v, ok)
	}
}
