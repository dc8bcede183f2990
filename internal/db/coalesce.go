package db

import (
	"sync"
	"sync/atomic"
)

// Coalescer is a write-coalescing overlay over a KV: Put/Delete and batch
// Writes land in an in-memory overlay that reads consult first, and Flush
// pushes everything accumulated since the last flush into the inner store
// through one atomic batch. Layered under a full-fidelity ledger it turns
// the per-block state commits of a simulated day into a single backend
// write, which is where the disk backend's fsync and record-framing costs
// live.
//
// The trade is durability granularity: between flushes the inner store is
// one coherent-but-stale snapshot, so the engine only installs a Coalescer
// when the scenario injects no storage faults and schedules no crashes —
// crash recovery (recoverMine) depends on per-block durability.
//
// All methods are safe for concurrent use. Values put into the overlay are
// aliased, not copied, and retained until the Flush that writes them;
// once a flush succeeds the overlay holds no reference to anything it
// wrote. A failed flush keeps every staged op.
type Coalescer struct {
	inner KV

	mu  sync.RWMutex
	ops []batchOp      // insertion-ordered pending writes
	idx map[string]int // key -> position in ops (rewritten in place)

	// overlayReads counts Gets served by the overlay; Stats reports them
	// as reads and hits so coalescing doesn't hide traffic from the
	// cache-efficiency counters the figure pipelines assert on.
	overlayReads atomic.Uint64
}

// NewCoalescer wraps inner in a write-coalescing overlay.
func NewCoalescer(inner KV) *Coalescer {
	return &Coalescer{inner: inner, idx: make(map[string]int)}
}

// Get implements KV, consulting the overlay before the inner store.
func (c *Coalescer) Get(key []byte) ([]byte, bool, error) {
	c.mu.RLock()
	i, ok := c.idx[string(key)]
	if ok {
		op := c.ops[i]
		c.mu.RUnlock()
		c.overlayReads.Add(1)
		if op.del {
			return nil, false, nil
		}
		return op.value, true, nil
	}
	c.mu.RUnlock()
	return c.inner.Get(key)
}

// Has implements KV.
func (c *Coalescer) Has(key []byte) (bool, error) {
	c.mu.RLock()
	i, ok := c.idx[string(key)]
	if ok {
		del := c.ops[i].del
		c.mu.RUnlock()
		return !del, nil
	}
	c.mu.RUnlock()
	return c.inner.Has(key)
}

// Put implements KV; the write is deferred until the next Flush.
func (c *Coalescer) Put(key, value []byte) error {
	c.mu.Lock()
	c.stage(batchOp{key: string(key), value: value})
	c.mu.Unlock()
	return nil
}

// Delete implements KV; the removal is deferred until the next Flush.
func (c *Coalescer) Delete(key []byte) error {
	c.mu.Lock()
	c.stage(batchOp{key: string(key), del: true})
	c.mu.Unlock()
	return nil
}

// stage records one operation, overwriting any pending op on the same key
// in place so the overlay stays last-write-wins. Callers hold c.mu.
func (c *Coalescer) stage(op batchOp) {
	if i, ok := c.idx[op.key]; ok {
		c.ops[i] = op
		return
	}
	c.idx[op.key] = len(c.ops)
	c.ops = append(c.ops, op)
}

// NewBatch implements KV. Write moves the batch's operations into the
// overlay atomically; nothing reaches the inner store until Flush.
func (c *Coalescer) NewBatch() Batch {
	return &coalesceBatch{c: c}
}

// Flush applies every staged operation to the inner store as one atomic
// batch and empties the overlay. A flush error leaves the overlay intact
// (the inner batch is atomic), so the caller may retry or abort with the
// pending state still readable.
func (c *Coalescer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ops) == 0 {
		return nil
	}
	batch := c.inner.NewBatch()
	for _, op := range c.ops {
		if op.del {
			batch.Delete([]byte(op.key))
		} else {
			batch.Put([]byte(op.key), op.value)
		}
	}
	if err := batch.Write(); err != nil {
		return err
	}
	// Drop the arrays, not just their lengths: a truncated slice and a
	// cleared map would keep the last flush's keys and values (a whole
	// day's trie nodes and block records) reachable until the next one.
	c.ops = nil
	c.idx = make(map[string]int)
	return nil
}

// Stats implements KV: the inner store's counters plus the overlay-served
// reads (reported as read+hit, like a cache layer).
func (c *Coalescer) Stats() Stats {
	s := c.inner.Stats()
	o := c.overlayReads.Load()
	s.Reads += o
	s.Hits += o
	return s
}

// coalesceBatch tightens the Batch contract: values are retained past
// Write, until the Coalescer's next successful Flush. Callers that encode
// into reusable buffers must copy before Put when a Coalescer may sit in
// the stack (no current writer does either).
type coalesceBatch struct {
	c    *Coalescer
	ops  []batchOp
	size int
}

func (b *coalesceBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), value: value})
	b.size += len(value)
}

func (b *coalesceBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), del: true})
}

func (b *coalesceBatch) Len() int       { return len(b.ops) }
func (b *coalesceBatch) ValueSize() int { return b.size }

func (b *coalesceBatch) Write() error {
	c := b.c
	c.mu.Lock()
	for _, op := range b.ops {
		c.stage(op)
	}
	c.mu.Unlock()
	b.Reset()
	return nil
}

func (b *coalesceBatch) Reset() {
	b.ops = resetOps(b.ops)
	b.size = 0
}
