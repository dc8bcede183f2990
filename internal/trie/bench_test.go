package trie

import (
	"encoding/binary"
	"testing"

	"forkwatch/internal/db"
)

// benchEntries returns n hash-shaped keys with short values, the shape of
// an account-trie update set.
func benchEntries(n int) ([][]byte, [][]byte) {
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 32)
		binary.BigEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15)
		keys[i] = k
		v := make([]byte, 40)
		binary.BigEndian.PutUint64(v, uint64(i))
		vals[i] = v
	}
	return keys, vals
}

// BenchmarkTrieCommit measures building a 256-entry trie and committing it
// through a single batch into the in-memory store — the per-block cost of a
// full-mode state commit.
func BenchmarkTrieCommit(b *testing.B) {
	keys, vals := benchEntries(256)
	store := db.NewMemDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewEmpty(store)
		for j := range keys {
			tr.Update(keys[j], vals[j])
		}
		batch := store.NewBatch()
		tr.CommitTo(batch)
		batch.Write()
	}
}

// BenchmarkTrieHash measures hashing (commit into a throwaway batch) the
// same trie without mutating the backing store between iterations.
func BenchmarkTrieHash(b *testing.B) {
	keys, vals := benchEntries(256)
	store := db.NewMemDB()
	tr := NewEmpty(store)
	for j := range keys {
		tr.Update(keys[j], vals[j])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Hash()
	}
}

// BenchmarkTrieGetCommitted measures reads that resolve nodes through the
// store after a commit.
func BenchmarkTrieGetCommitted(b *testing.B) {
	keys, vals := benchEntries(256)
	store := db.NewMemDB()
	tr := NewEmpty(store)
	for j := range keys {
		tr.Update(keys[j], vals[j])
	}
	root := mustHash(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reopened, err := New(root, store)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reopened.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
