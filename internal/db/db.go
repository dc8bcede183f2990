// Package db is forkwatch's storage backbone: a minimal key-value
// abstraction every persistent layer (trie nodes, contract code, block
// bodies, receipts, chain indices) stores through.
//
// The paper's methodology is "export every block and transaction into a
// database, then join and aggregate" (§3.1); measurement pipelines at that
// scale live or die by their ingest store. forkwatch's equivalent hot path
// — trie commits and ledger persistence over the ~3.3M-block nine-month
// runs — flows through the KV interface defined here, so the backend
// (sharded memory, or the log-structured files of the diskdb sub-package)
// is chosen by Config without touching the trie, state or chain layers.
//
// Every operation can fail: the interface models a real storage device,
// not a map. The in-memory backends never return errors on their own, but
// a fault-injected store — diskdb over a medium that the diskdb/faultfile
// package wraps with deterministic I/O errors, short and torn appends,
// bit-rot and stalls — does, and the trie/state/chain layers above are
// built to survive whatever this interface surfaces.
// Transient failures (a retriable I/O hiccup) are distinguished from fatal
// ones via IsTransient; the Retry wrapper turns bounded transience into
// success so higher layers only ever see faults worth aborting over.
//
// Implementations shipping in this package:
//
//   - MemDB: a sharded, mutex-striped in-memory store (the default).
//   - Coalescer: a write-coalescing overlay that turns many commits into
//     one backend batch per Flush.
//   - Retry: a wrapper that re-attempts transient errors.
//
// How they stack per chain is decided in one place, internal/sim's
// OpenChainStore.
//
// All implementations are safe for concurrent use.
package db

import "errors"

// ErrCorrupt reports a stored record that failed an integrity check
// (checksum mismatch, undecodable payload). It is never transient:
// callers fall back to re-import or resync.
var ErrCorrupt = errors.New("db: corrupt record")

// ErrReadOnly reports a write against a store that has degraded to
// read-only after an unrepairable medium failure (a failed append whose
// truncate-repair also failed, an unwritable disk). Reads keep working;
// writes fail with this error instead of panicking, and the RPC layer
// surfaces it as a storage error (-32010) so a node can keep serving its
// archive while its disk is dying. Never transient.
var ErrReadOnly = errors.New("db: store is read-only")

// KV is the storage interface. Keys and values are arbitrary byte strings;
// implementations must not retain or mutate the caller's key slice after a
// call returns, and callers must not mutate a returned value (it may alias
// the store's copy).
type KV interface {
	// Get returns the value stored under key and whether it exists. A
	// non-nil error means the read itself failed (the existence of the
	// key is then unknown).
	Get(key []byte) ([]byte, bool, error)
	// Put stores value under key, replacing any previous value.
	Put(key, value []byte) error
	// Has reports whether key exists without counting as a data read in
	// hit/miss statistics.
	Has(key []byte) (bool, error)
	// Delete removes key. Deleting an absent key is a no-op.
	Delete(key []byte) error
	// NewBatch returns an empty write batch whose Write applies every
	// queued operation atomically: either all operations land or none do
	// (a Write that returns a transient error must leave the store
	// untouched). No store here exposes a partially applied batch, even
	// across a crash (diskdb's recovery drops a torn append whole); the
	// chain WAL still recovers one if a device ever did.
	NewBatch() Batch
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
}

// Batch queues writes for a single atomic application. Batches are not
// safe for concurrent use; each goroutine builds its own.
//
// Values are aliased, not copied: a batch references each queued value
// until a Write succeeds or Reset is called, so the caller must not
// change it before then, and no reference survives either one — a batch
// kept for reuse pins nothing it was handed. A failed Write keeps the
// queue for a retry. Keys are copied.
type Batch interface {
	// Put queues a write. The value is retained until Write or Reset.
	Put(key, value []byte)
	// Delete queues a removal.
	Delete(key []byte)
	// Len returns the number of queued operations.
	Len() int
	// ValueSize returns the total queued value bytes (for flush
	// heuristics in future disk backends).
	ValueSize() int
	// Write applies every queued operation to the backing store and
	// resets the batch for reuse. On error nothing was applied; after a
	// crash the store must be reopened and recovered before further use.
	Write() error
	// Reset drops all queued operations.
	Reset()
}

// transientError is implemented by errors that are worth retrying (the
// storage equivalent of EINTR). faultfile's injected I/O errors implement
// it; crashes and corruption do not.
type transientError interface {
	Transient() bool
}

// IsTransient reports whether err (or anything it wraps) marks itself as
// a retriable storage fault.
func IsTransient(err error) bool {
	var te transientError
	return errors.As(err, &te) && te.Transient()
}

// Stats is a snapshot of a store's activity counters. Reads and writes
// count Get/Put/Delete calls (batch operations count individually); Hits
// and Misses split reads by whether the key was found (a Coalescer counts
// a read its overlay answered as a hit).
type Stats struct {
	Reads   uint64
	Writes  uint64
	Deletes uint64
	Hits    uint64
	Misses  uint64
	// Entries is the number of keys currently stored.
	Entries int
	// Repairs counts recovery actions a durable backend performed while
	// opening or reading: torn tails truncated, checksum-failed records
	// skipped, uncommitted batch groups dropped. Always zero for the
	// in-memory backends.
	Repairs uint64
}

// Add returns the field-wise sum of two snapshots (for aggregating the
// per-chain stores of a simulation).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:   s.Reads + o.Reads,
		Writes:  s.Writes + o.Writes,
		Deletes: s.Deletes + o.Deletes,
		Hits:    s.Hits + o.Hits,
		Misses:  s.Misses + o.Misses,
		Entries: s.Entries + o.Entries,
		Repairs: s.Repairs + o.Repairs,
	}
}

// HitRate returns Hits/(Hits+Misses), or 0 when no reads happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
