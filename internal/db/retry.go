package db

// Retry absorbs transient storage faults: an operation that fails with an
// error marked Transient (see IsTransient) is re-attempted at once, up to
// a bounded number of attempts, before the error is surfaced.
// Non-transient errors — crashes, corruption, read-only degradation —
// pass through immediately, so a torn store is recovered rather than
// hammered.
//
// Retrying at this layer keeps the trie/state/chain code honest: those
// layers treat every surviving error as a reason to abort the current
// commit, while the retry budget turns the storm of individually
// retriable hiccups a flaky device produces into either clean success or
// a single, meaningful failure.
//
// Operations are idempotent at this interface (a read, or a batch Write,
// which on failure applied nothing), so re-running a failed attempt is
// always safe.
type Retry struct {
	inner    KV
	attempts int
}

// NewRetry wraps inner, trying each operation up to attempts times
// (minimum 1, i.e. no retry).
func NewRetry(inner KV, attempts int) *Retry {
	return &Retry{inner: inner, attempts: max(attempts, 1)}
}

func (r *Retry) do(op func() error) error {
	var err error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}

// Get implements KV.
func (r *Retry) Get(key []byte) (v []byte, ok bool, err error) {
	err = r.do(func() error {
		var e error
		v, ok, e = r.inner.Get(key)
		return e
	})
	return v, ok, err
}

// Has implements KV.
func (r *Retry) Has(key []byte) (ok bool, err error) {
	err = r.do(func() error {
		var e error
		ok, e = r.inner.Has(key)
		return e
	})
	return ok, err
}

// Stats implements KV.
func (r *Retry) Stats() Stats { return r.inner.Stats() }

// NewBatch implements KV: Write retries the whole (atomic) inner write.
func (r *Retry) NewBatch() Batch { return &retryBatch{r: r, inner: r.inner.NewBatch()} }

type retryBatch struct {
	r     *Retry
	inner Batch
}

func (b *retryBatch) Put(key, value []byte) { b.inner.Put(key, value) }
func (b *retryBatch) Delete(key []byte)     { b.inner.Delete(key) }
func (b *retryBatch) Len() int              { return b.inner.Len() }
func (b *retryBatch) Reset()                { b.inner.Reset() }

func (b *retryBatch) Write() error {
	// A transient batch failure applied nothing (Batch.Write contract),
	// so re-running the same queued operations is safe. The inner batch
	// resets itself only on success, which is exactly what retrying
	// needs.
	return b.r.do(b.inner.Write)
}
