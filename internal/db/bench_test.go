package db

import (
	"encoding/binary"
	"testing"
)

// benchKeys returns n distinct 32-byte (hash-shaped) keys.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 32)
		binary.BigEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15)
		keys[i] = k
	}
	return keys
}

// BenchmarkKVBatchWrite measures committing a trie-commit-sized batch
// (256 nodes of ~100 bytes) into the sharded store.
func BenchmarkKVBatchWrite(b *testing.B) {
	kv := NewMemDB()
	keys := benchKeys(256)
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := kv.NewBatch()
		for _, k := range keys {
			batch.Put(k, val)
		}
		batch.Write()
	}
}

// BenchmarkKVPut measures unbatched single writes for comparison.
func BenchmarkKVPut(b *testing.B) {
	kv := NewMemDB()
	keys := benchKeys(256)
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Put(keys[i%len(keys)], val)
	}
}

// BenchmarkKVGet measures reads from the sharded store.
func BenchmarkKVGet(b *testing.B) {
	kv := NewMemDB()
	keys := benchKeys(1024)
	val := make([]byte, 100)
	for _, k := range keys {
		kv.Put(k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Get(keys[i%len(keys)])
	}
}
