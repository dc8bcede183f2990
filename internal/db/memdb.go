package db

import (
	"sync"
	"sync/atomic"
)

// MemDB is the in-memory key-value store: the default backend. One map
// under one RWMutex: readers share the read lock, and a batch applies
// under the write lock, so no reader ever sees part of one. MemDB never
// fails; a store with injected faults is diskdb over an in-memory
// dbfs.MemFS instead (see internal/sim's OpenChainStore).
type MemDB struct {
	mu sync.RWMutex
	m  map[string][]byte

	reads   atomic.Uint64
	writes  atomic.Uint64
	deletes atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewMemDB returns an empty in-memory store.
func NewMemDB() *MemDB {
	return &MemDB{m: make(map[string][]byte)}
}

// Get implements KV.
func (db *MemDB) Get(key []byte) ([]byte, bool, error) {
	db.reads.Add(1)
	db.mu.RLock()
	v, ok := db.m[string(key)]
	db.mu.RUnlock()
	if ok {
		db.hits.Add(1)
	} else {
		db.misses.Add(1)
	}
	return v, ok, nil
}

// Has implements KV.
func (db *MemDB) Has(key []byte) (bool, error) {
	db.mu.RLock()
	_, ok := db.m[string(key)]
	db.mu.RUnlock()
	return ok, nil
}

// NewBatch implements KV.
func (db *MemDB) NewBatch() Batch { return &memBatch{db: db} }

// Len returns the number of stored keys.
func (db *MemDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.m)
}

// Keys snapshots every stored key, in no particular order. Intended for
// tests and debugging tools that need to enumerate a content-addressed
// store (the KV interface itself is deliberately iteration-free).
func (db *MemDB) Keys() [][]byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := make([][]byte, 0, len(db.m))
	for k := range db.m {
		keys = append(keys, []byte(k))
	}
	return keys
}

// Stats implements KV.
func (db *MemDB) Stats() Stats {
	return Stats{
		Reads:   db.reads.Load(),
		Writes:  db.writes.Load(),
		Deletes: db.deletes.Load(),
		Hits:    db.hits.Load(),
		Misses:  db.misses.Load(),
		Entries: db.Len(),
	}
}

// batchOp is one queued batch operation (a removal when del is set).
type batchOp struct {
	key   string
	value []byte
	del   bool
}

// memBatch queues writes against a MemDB.
type memBatch struct {
	db  *MemDB
	ops []batchOp
}

// Put implements Batch.
func (b *memBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), value: value})
}

// Delete implements Batch.
func (b *memBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), del: true})
}

// Len implements Batch.
func (b *memBatch) Len() int { return len(b.ops) }

// Write implements Batch: every op applies, in queue order (a later Put
// of the same key wins), under the store's write lock.
func (b *memBatch) Write() error {
	db := b.db
	var writes, deletes uint64
	db.mu.Lock()
	for _, op := range b.ops {
		if op.del {
			deletes++
			delete(db.m, op.key)
		} else {
			writes++
			db.m[op.key] = op.value
		}
	}
	db.mu.Unlock()
	db.writes.Add(writes)
	db.deletes.Add(deletes)
	b.Reset()
	return nil
}

// Reset implements Batch.
func (b *memBatch) Reset() { b.ops = resetOps(b.ops) }

// resetOps empties a reusable op queue, zeroing the dropped ops first so
// the kept backing array pins none of their keys or values.
func resetOps(ops []batchOp) []batchOp {
	clear(ops)
	return ops[:0]
}
