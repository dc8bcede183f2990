package db

import (
	"sort"
	"sync"
	"sync/atomic"
)

// memShards is MemDB's shard count, a power of two. Trie nodes, code and
// block bodies are all keyed by (or prefixed with) uniformly distributed
// hashes, so a modest power of two spreads lock contention well.
const memShards = 16

// MemDB is a sharded, mutex-striped in-memory key-value store: the default
// backend. Keys are striped over shards by a byte-mix of the key, so
// concurrent committers and readers (one chain writing state while p2p
// peers serve historical nodes) contend only per shard. MemDB never fails;
// a store with injected faults is diskdb over an in-memory dbfs.MemFS
// instead (see internal/sim's OpenChainStore).
type MemDB struct {
	shards [memShards]memShard

	reads   atomic.Uint64
	writes  atomic.Uint64
	deletes atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type memShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemDB returns an empty sharded in-memory store.
func NewMemDB() *MemDB {
	db := &MemDB{}
	for i := range db.shards {
		db.shards[i].m = make(map[string][]byte)
	}
	return db
}

// shardIndex mixes the key into a shard index. Keys here are nearly always
// keccak digests (or short prefixed digests), so a cheap FNV-1a over the
// first bytes distributes uniformly.
func (db *MemDB) shardIndex(key []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key) && i < 8; i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & (memShards - 1)
}

func (db *MemDB) shardFor(key []byte) *memShard {
	return &db.shards[db.shardIndex(key)]
}

// Get implements KV.
func (db *MemDB) Get(key []byte) ([]byte, bool, error) {
	db.reads.Add(1)
	s := db.shardFor(key)
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		db.hits.Add(1)
	} else {
		db.misses.Add(1)
	}
	return v, ok, nil
}

// Has implements KV.
func (db *MemDB) Has(key []byte) (bool, error) {
	s := db.shardFor(key)
	s.mu.RLock()
	_, ok := s.m[string(key)]
	s.mu.RUnlock()
	return ok, nil
}

// Put implements KV.
func (db *MemDB) Put(key, value []byte) error {
	db.writes.Add(1)
	s := db.shardFor(key)
	s.mu.Lock()
	s.m[string(key)] = value
	s.mu.Unlock()
	return nil
}

// Delete implements KV.
func (db *MemDB) Delete(key []byte) error {
	db.deletes.Add(1)
	s := db.shardFor(key)
	s.mu.Lock()
	delete(s.m, string(key))
	s.mu.Unlock()
	return nil
}

// NewBatch implements KV.
func (db *MemDB) NewBatch() Batch { return &memBatch{db: db} }

// Len returns the number of stored keys across all shards.
func (db *MemDB) Len() int {
	n := 0
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Keys snapshots every stored key, in no particular order. Intended for
// tests and debugging tools that need to enumerate a content-addressed
// store (the KV interface itself is deliberately iteration-free).
func (db *MemDB) Keys() [][]byte {
	var keys [][]byte
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for k := range s.m {
			keys = append(keys, []byte(k))
		}
		s.mu.RUnlock()
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

// batchOp is one queued batch operation (delete when value is nil and del
// is set).
type batchOp struct {
	key   string
	value []byte
	del   bool
}

// memBatch queues writes against a MemDB. Write locks every involved
// shard (in index order, so concurrent batches never deadlock) for the
// whole apply, so concurrent readers never observe a partially applied
// batch, even across shards.
type memBatch struct {
	db   *MemDB
	ops  []batchOp
	size int
}

// Put implements Batch.
func (b *memBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), value: value})
	b.size += len(value)
}

// Delete implements Batch.
func (b *memBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), del: true})
}

// Len implements Batch.
func (b *memBatch) Len() int { return len(b.ops) }

// ValueSize implements Batch.
func (b *memBatch) ValueSize() int { return b.size }

// Write implements Batch: lock the touched shards, then apply.
func (b *memBatch) Write() error {
	db := b.db

	// Stage: which shards does this batch touch?
	touched := make(map[uint32]bool)
	for _, op := range b.ops {
		touched[db.shardIndex([]byte(op.key))] = true
	}
	indices := make([]uint32, 0, len(touched))
	for idx := range touched {
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })

	// Lock every involved shard in index order (total order prevents
	// deadlock against concurrent batches).
	for _, idx := range indices {
		db.shards[idx].mu.Lock()
	}
	// Apply in queue order (a later Put of the same key wins).
	for _, op := range b.ops {
		s := db.shardFor([]byte(op.key))
		if op.del {
			db.deletes.Add(1)
			delete(s.m, op.key)
		} else {
			db.writes.Add(1)
			s.m[op.key] = op.value
		}
	}
	for _, idx := range indices {
		db.shards[idx].mu.Unlock()
	}
	b.Reset()
	return nil
}

// Reset implements Batch.
func (b *memBatch) Reset() {
	b.ops = resetOps(b.ops)
	b.size = 0
}

// resetOps empties a reusable op queue, zeroing the dropped ops first so
// the kept backing array pins none of their keys or values.
func resetOps(ops []batchOp) []batchOp {
	clear(ops)
	return ops[:0]
}
