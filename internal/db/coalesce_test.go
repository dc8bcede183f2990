package db

import (
	"bytes"
	"testing"
)

func TestCoalescerReadYourWrites(t *testing.T) {
	inner := NewMemDB()
	c := NewCoalescer(inner)

	if err := c.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte("a"))
	if err != nil || !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("overlay read = %q %v %v, want \"1\"", v, ok, err)
	}
	// The inner store must not have seen the write yet.
	if _, ok, _ := inner.Get([]byte("a")); ok {
		t.Fatal("write reached inner store before Flush")
	}
	if has, _ := c.Has([]byte("a")); !has {
		t.Fatal("Has missed a staged key")
	}

	// Delete shadows an inner-store key until flushed.
	if err := inner.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get([]byte("b")); ok {
		t.Fatal("staged delete not visible through overlay")
	}
	if has, _ := c.Has([]byte("b")); has {
		t.Fatal("Has saw a key with a staged delete")
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := inner.Get([]byte("a")); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("flush lost a = %q %v", v, ok)
	}
	if _, ok, _ := inner.Get([]byte("b")); ok {
		t.Fatal("flush did not apply the delete")
	}
	// The overlay is empty: the inner store answers again.
	if err := inner.Put([]byte("a"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get([]byte("a")); !bytes.Equal(v, []byte("3")) {
		t.Fatalf("read after flush = %q, want the inner store's \"3\"", v)
	}
}

func TestCoalescerBatchStagesWithoutInnerWrite(t *testing.T) {
	inner := NewMemDB()
	c := NewCoalescer(inner)

	b := c.NewBatch()
	b.Put([]byte("x"), []byte("10"))
	b.Put([]byte("y"), []byte("20"))
	b.Put([]byte("x"), []byte("11")) // last write wins
	if b.Len() != 3 || b.ValueSize() != 6 {
		t.Fatalf("Len/ValueSize = %d/%d, want 3/6", b.Len(), b.ValueSize())
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get([]byte("x")); !ok || !bytes.Equal(v, []byte("11")) {
		t.Fatalf("batch staging lost last write: %q %v", v, ok)
	}
	if got := inner.Stats().Writes; got != 0 {
		t.Fatalf("inner saw %d writes before Flush", got)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := inner.Stats().Writes; got != 2 {
		t.Fatalf("Flush wrote %d ops, want 2: one per distinct key", got)
	}
	if v, ok, _ := inner.Get([]byte("x")); !ok || !bytes.Equal(v, []byte("11")) {
		t.Fatalf("flushed x = %q %v", v, ok)
	}
	// Flushing an empty overlay is a no-op, not an empty inner batch.
	writes := inner.Stats().Writes
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if inner.Stats().Writes != writes {
		t.Fatal("empty Flush touched the inner store")
	}
}

func TestCoalescerStatsCountOverlayHits(t *testing.T) {
	c := NewCoalescer(NewMemDB())
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for i := 0; i < 3; i++ {
		if _, ok, _ := c.Get([]byte("k")); !ok {
			t.Fatal("lost staged key")
		}
	}
	after := c.Stats()
	if after.Reads-before.Reads != 3 || after.Hits-before.Hits != 3 {
		t.Fatalf("overlay reads not counted: before %+v after %+v", before, after)
	}
}
