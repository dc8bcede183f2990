package db

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCoalescerReadYourWrites(t *testing.T) {
	inner := NewMemDB()
	c := NewCoalescer(inner)

	put(t, c, "a", "1")
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
	put(t, inner, "b", "2")
	del(t, c, "b")
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
	put(t, inner, "a", "3")
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
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
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
	put(t, c, "k", "v")
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

// TestCoalescerFlushAllocs: a Flush hands its staged keys to the inner
// batch as they are, so one Flush of n ops over a MemDB allocates the
// inner batch's own n key copies plus a constant, not a conversion per
// key besides. The keys already exist in the MemDB, so its map does not
// grow; staging costs the same in both measured loops and cancels out.
func TestCoalescerFlushAllocs(t *testing.T) {
	const n = 512
	inner := NewMemDB()
	c := NewCoalescer(inner)
	keys := make([][]byte, n)
	value := []byte("v")
	seed := inner.NewBatch()
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		seed.Put(keys[i], value)
	}
	if err := seed.Write(); err != nil {
		t.Fatal(err)
	}
	stage := func() {
		b := c.NewBatch()
		for _, k := range keys {
			b.Put(k, value)
		}
		if err := b.Write(); err != nil {
			t.Fatal(err)
		}
	}
	flushed := testing.AllocsPerRun(20, func() {
		stage()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	discarded := testing.AllocsPerRun(20, func() {
		stage()
		c.Discard()
	})
	const slack = 32 // the inner batch and its op slice's growth
	got := flushed - discarded
	t.Logf("a Flush of %d ops: %.0f allocations", n, got)
	if got > n+slack {
		t.Fatalf("a Flush of %d ops allocated %.0f times, want at most %d (the inner batch's key copies) + %d", n, got, n, slack)
	}
}

// TestCoalescerDiscard: Discard drops every staged op unwritten, and reads
// answer from the inner store again.
func TestCoalescerDiscard(t *testing.T) {
	inner := NewMemDB()
	put(t, inner, "a", "1")
	c := NewCoalescer(inner)
	put(t, c, "a", "2")
	put(t, c, "b", "3")
	c.Discard()
	if v, ok, err := c.Get([]byte("a")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("after Discard: a = %q %v %v, want the inner store's \"1\"", v, ok, err)
	}
	if has, _ := c.Has([]byte("b")); has {
		t.Fatal("a discarded put is still visible")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := inner.Get([]byte("b")); ok {
		t.Fatal("a Flush after Discard wrote a discarded op")
	}
}
