//go:build go1.24

package diskdb

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// liveHeap is the heap in use after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBatchDropsValues: a batch holds what it was handed only until Write
// or Reset. After either, neither the values nor any copy of them stay
// reachable from the batch, which lives on for reuse; on real files the
// store keeps only its index.
func TestBatchDropsValues(t *testing.T) {
	const n, size = 64, 64 << 10 // 4 MiB in all
	for _, end := range []string{"write", "reset"} {
		t.Run(end, func(t *testing.T) {
			d, _ := openTmp(t, Options{})
			defer d.Close()
			b := d.NewBatch()
			before := liveHeap()
			ptrs := make([]weak.Pointer[byte], n)
			for i := range ptrs {
				v := bytes.Repeat([]byte{byte(i)}, size)
				ptrs[i] = weak.Make(&v[0])
				b.Put([]byte(fmt.Sprintf("k%d", i)), v)
			}
			if end == "write" {
				if err := b.Write(); err != nil {
					t.Fatal(err)
				}
			} else {
				b.Reset()
			}
			grown := int64(liveHeap()) - int64(before)
			for i, p := range ptrs {
				if p.Value() != nil {
					t.Fatalf("value %d is still reachable after %s", i, end)
				}
			}
			if grown > 1<<20 {
				t.Errorf("live heap grew %d KiB across a %s of %d KiB of values", grown>>10, end, n*size>>10)
			}
			runtime.KeepAlive(b)
		})
	}
}

// TestBatchPutAliasesValue: queueing a 1 MiB value allocates next to
// nothing; the batch keeps the caller's slice until Write or Reset.
func TestBatchPutAliasesValue(t *testing.T) {
	d, _ := openTmp(t, Options{})
	defer d.Close()
	b := d.NewBatch()
	v := make([]byte, 1<<20)
	var before, after runtime.MemStats
	const puts = 8
	runtime.ReadMemStats(&before)
	for i := 0; i < puts; i++ {
		b.Put([]byte{'k', byte(i)}, v)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / puts; per > 4<<10 {
		t.Errorf("Put of a 1 MiB value allocates %d bytes, want well under 1 MiB", per)
	}
	if b.ValueSize() != puts<<20 {
		t.Errorf("ValueSize = %d, want %d", b.ValueSize(), puts<<20)
	}
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get([]byte{'k', 3})
	if err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("Get after Write: %d bytes, ok %v, err %v", len(got), ok, err)
	}
}
