//go:build go1.24

package chain

import (
	"bytes"
	"runtime"
	"testing"
	"weak"
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
	if b.Len() != 0 || b.ValueSize() != 0 {
		t.Errorf("after Reset: Len %d, ValueSize %d", b.Len(), b.ValueSize())
	}
	runtime.KeepAlive(b)
}
