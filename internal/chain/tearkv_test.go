package chain

import (
	"cmp"
	"errors"
	"sync"

	"forkwatch/internal/db"
)

var errTorn = errors.New("tearKV: store crashed (reopen and recover)")

// tearKV is a db.KV that dies on an armed write operation, tearing the
// batch it lands in: the operations before the crash point apply, the
// rest never do, and every write fails until Reopen. No production store
// tears a batch (diskdb commits one as a single append, and recovery drops
// a torn append whole); this is the device the WAL's redo path is for.
type tearKV struct {
	db.KV
	mu              sync.Mutex
	writes, crashAt uint64 // operations applied; the one that crashes (0 = unarmed)
	crashed         bool
}

func (k *tearKV) WriteOps() uint64            { k.mu.Lock(); defer k.mu.Unlock(); return k.writes }
func (k *tearKV) CrashAtWriteOp(n uint64)     { k.mu.Lock(); k.crashAt = n; k.mu.Unlock() }
func (k *tearKV) Reopen()                     { k.mu.Lock(); k.crashed, k.crashAt = false, 0; k.mu.Unlock() }
func (k *tearKV) Put(key, value []byte) error { b := k.NewBatch(); b.Put(key, value); return b.Write() }
func (k *tearKV) Delete(key []byte) error     { b := k.NewBatch(); b.Delete(key); return b.Write() }
func (k *tearKV) NewBatch() db.Batch          { return &tearBatch{kv: k} }

// tearBatch queues operations as writes into a batch of the inner store.
type tearBatch struct {
	kv  *tearKV
	ops []func(db.Batch)
}

func (b *tearBatch) Len() int       { return len(b.ops) }
func (b *tearBatch) ValueSize() int { return 0 } // unused by the chain
func (b *tearBatch) Reset()         { b.ops = b.ops[:0] }
func (b *tearBatch) Put(k, v []byte) {
	k = append([]byte(nil), k...)
	b.ops = append(b.ops, func(w db.Batch) { w.Put(k, v) })
}
func (b *tearBatch) Delete(k []byte) {
	k = append([]byte(nil), k...)
	b.ops = append(b.ops, func(w db.Batch) { w.Delete(k) })
}

func (b *tearBatch) Write() error {
	k, n := b.kv, len(b.ops)
	k.mu.Lock()
	torn := k.crashed || k.crashAt != 0 && k.writes+uint64(n) >= k.crashAt
	if torn {
		n, k.crashed = max(0, int(k.crashAt)-int(k.writes)-1), true
	}
	k.writes += uint64(n)
	k.mu.Unlock()
	w := k.KV.NewBatch()
	for _, op := range b.ops[:n] {
		op(w)
	}
	if err := w.Write(); err != nil || torn {
		return cmp.Or(err, errTorn)
	}
	b.Reset()
	return nil
}
