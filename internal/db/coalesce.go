package db

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Coalescer is a write-coalescing overlay over a KV: batch Writes land in
// an in-memory overlay that reads consult first, and Flush pushes
// everything accumulated since the last flush into the inner store
// through one atomic batch. Every chain.Blockchain stages its commits in
// one: a simulated day of block commits, or an imported run of blocks,
// reaches the backend as a single write, which is where the disk
// backend's fsync and record-framing costs live. Between flushes the
// inner store is one coherent-but-stale snapshot.
//
// All methods are safe for concurrent use. Values put into the overlay are
// aliased, not copied, and retained until the Flush that writes them or a
// Discard; once either returns, the overlay holds no reference to anything
// it staged. A failed flush keeps every staged op.
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
// (the inner batch is atomic), so the caller may retry, or Discard with
// the store at its last flush.
func (c *Coalescer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ops) == 0 {
		return nil
	}
	batch := c.inner.NewBatch()
	for _, op := range c.ops {
		// Put and Delete copy the key (Batch), so the string is lent as is.
		key := unsafe.Slice(unsafe.StringData(op.key), len(op.key))
		if op.del {
			batch.Delete(key)
		} else {
			batch.Put(key, op.value)
		}
	}
	if err := batch.Write(); err != nil {
		return err
	}
	c.drop()
	return nil
}

// Discard drops every staged operation unwritten.
func (c *Coalescer) Discard() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop()
}

// drop empties the overlay, arrays and all: a truncated slice and a
// cleared map would keep a day's trie nodes and records reachable.
func (c *Coalescer) drop() { c.ops, c.idx = nil, make(map[string]int) }

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
// Write, until the Coalescer's next successful Flush or its Discard.
// Callers that encode into reusable buffers must copy before Put (no
// current writer does).
type coalesceBatch struct {
	c   *Coalescer
	ops []batchOp
}

func (b *coalesceBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), value: value})
}

func (b *coalesceBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: string(key), del: true})
}

func (b *coalesceBatch) Len() int { return len(b.ops) }

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

func (b *coalesceBatch) Reset() { b.ops = resetOps(b.ops) }
