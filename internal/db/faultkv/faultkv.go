// Package faultkv wraps any db.KV with deterministic, seeded storage
// fault injection: scripted I/O errors, torn (partially applied) batches,
// bit-rot read corruption and latency stalls — the storage counterpart of
// internal/faultnet's network faults.
//
// The paper's observations are stories about nodes surviving hostile
// events: O2's two-day recovery and O5's months-long replay window both
// presume ledgers that keep serving a consistent view through crashes and
// flaky disks. faultkv makes that survivable path testable: every fault
// decision comes from a seeded RNG and is journaled, so a chaos run that
// finds a bug replays bit-for-bit.
//
// Fault classes and how the stack above is expected to react:
//
//   - Injected I/O errors (ReadErrRate/WriteErrRate) are transient in the
//     db.IsTransient sense: db.Retry absorbs bounded runs of them, and
//     the trie/state/chain layers abort the current commit cleanly if the
//     budget is exhausted. Failed writes are atomic: nothing was applied.
//   - Torn batches (TornBatchRate, or an armed CrashAtWriteOp) apply a
//     strict prefix of the batch and crash the store, modelling power
//     loss mid-write. Every later operation fails with ErrCrashed until
//     Reopen; chain.Open then replays its write-ahead log to repair the
//     tear.
//   - Bit-rot (CorruptRate) flips one bit in a copy of a read value. The
//     layers above detect it structurally (RLP decode, WAL checksums)
//     and either retry or fall back to re-import/resync.
//   - Stalls (StallEvery/Stall) sleow individual operations down without
//     failing them, for watchdog and latency testing.
package faultkv

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"forkwatch/internal/db"
)

// ErrInjected is the transient injected I/O failure. db.IsTransient
// returns true for it, so db.Retry will re-attempt the operation.
var ErrInjected error = injectedError{}

type injectedError struct{}

func (injectedError) Error() string   { return "faultkv: injected I/O error" }
func (injectedError) Transient() bool { return true }

// ErrCrashed reports an operation against a crashed (torn) store. It is
// not transient: the caller must Reopen and run recovery.
var ErrCrashed = errors.New("faultkv: store crashed (reopen and recover)")

// Faults is the injection plan. The zero value injects nothing.
type Faults struct {
	// Seed drives every fault decision; equal seeds reproduce runs.
	Seed int64
	// ReadErrRate is the probability a Get/Has fails with ErrInjected.
	ReadErrRate float64
	// WriteErrRate is the probability a Put/Delete/Batch.Write fails
	// atomically (nothing applied) with ErrInjected.
	WriteErrRate float64
	// TornBatchRate is the probability a Batch.Write applies only a
	// random strict prefix of its operations and crashes the store.
	TornBatchRate float64
	// CorruptRate is the probability a successful Get returns a copy of
	// the value with one bit flipped (read-path bit-rot).
	CorruptRate float64
	// StallEvery injects a Stall-long sleep into every Nth operation
	// (0 disables).
	StallEvery int
	// Stall is the duration of an injected stall.
	Stall time.Duration
}

// Enabled reports whether the plan injects any fault at all.
func (f Faults) Enabled() bool {
	return f.ReadErrRate > 0 || f.WriteErrRate > 0 || f.TornBatchRate > 0 ||
		f.CorruptRate > 0 || (f.StallEvery > 0 && f.Stall > 0)
}

// journalCap bounds the recorded fault decisions.
const journalCap = 4096

// Event is one journaled fault decision.
type Event struct {
	// Seq is the value of the global operation counter when the fault
	// fired.
	Seq uint64
	// Op names the operation ("get", "has", "put", "delete", "batch").
	Op string
	// Kind names the fault ("ioerr", "bitrot", "torn", "stall",
	// "crashed", "reopen").
	Kind string
	// Key is the first byte of the affected key (the schema namespace
	// prefix), 0 for batch-level events.
	Key byte
	// TornAt is, for torn batches, how many operations were applied
	// before the tear.
	TornAt int
}

// KV decorates an inner store with the fault plan. Safe for concurrent
// use; fault decisions are serialized so runs stay deterministic given a
// deterministic operation order.
type KV struct {
	inner db.KV
	f     Faults

	mu           sync.Mutex
	rng          *rand.Rand
	ops          uint64 // all operations, for StallEvery
	writeOps     uint64 // applied write operations, for CrashAtWriteOp
	crashAtWrite uint64 // crash when writeOps would reach this (0 = unarmed)
	crashed      bool
	disabled     bool // random injection paused (crashes still honoured)
	journal      []Event
}

// Wrap decorates inner with the fault plan.
func Wrap(inner db.KV, f Faults) *KV {
	return &KV{inner: inner, f: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// SetEnabled toggles the random fault plan. While disabled, no stalls,
// errors, tears or bit-rot are injected and the seeded RNG is not drawn,
// but explicit crashes (Crash, CrashAtWriteOp) and an already-crashed
// state are still honoured. Chaos harnesses disable injection around
// bootstrap writes (genesis) that have no recovery path, then enable it
// at a deterministic point so runs stay reproducible.
func (k *KV) SetEnabled(on bool) {
	k.mu.Lock()
	k.disabled = !on
	k.mu.Unlock()
}

// Journal returns a copy of the recorded fault decisions.
func (k *KV) Journal() []Event {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]Event(nil), k.journal...)
}

// JournalLen counts the recorded fault decisions.
func (k *KV) JournalLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.journal)
}

// WriteOps returns the number of write operations applied so far (batch
// operations count individually). Use with CrashAtWriteOp to land a
// crash mid-batch deterministically.
func (k *KV) WriteOps() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.writeOps
}

// CrashAtWriteOp arms a crash: the n-th write operation from the start of
// the store's life (see WriteOps for the current count) fails with
// ErrCrashed instead of applying, tearing any batch it lands inside. Every
// subsequent operation fails with ErrCrashed until Reopen.
func (k *KV) CrashAtWriteOp(n uint64) {
	k.mu.Lock()
	k.crashAtWrite = n
	k.mu.Unlock()
}

// Crash kills the store immediately: every operation fails with
// ErrCrashed until Reopen.
func (k *KV) Crash() {
	k.mu.Lock()
	k.setCrashed("crash")
	k.mu.Unlock()
}

// Crashed reports whether the store is dead.
func (k *KV) Crashed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.crashed
}

// Reopen models the process restarting with the same underlying medium:
// the crash flag clears and any armed crash point is disarmed. Whatever
// half-applied state the tear left behind is still there — running
// recovery (chain.Open) is the caller's job.
func (k *KV) Reopen() {
	k.mu.Lock()
	k.crashed = false
	k.crashAtWrite = 0
	k.record(Event{Seq: k.ops, Op: "reopen", Kind: "reopen"})
	k.mu.Unlock()
}

// record appends ev to the bounded journal. Caller holds k.mu.
func (k *KV) record(ev Event) {
	if len(k.journal) < journalCap {
		k.journal = append(k.journal, ev)
	}
}

// setCrashed marks the store dead. Caller holds k.mu.
func (k *KV) setCrashed(op string) {
	if !k.crashed {
		k.crashed = true
		k.record(Event{Seq: k.ops, Op: op, Kind: "crashed"})
	}
}

func keyByte(key []byte) byte {
	if len(key) == 0 {
		return 0
	}
	return key[0]
}

// step runs the common per-operation bookkeeping: stall injection and the
// crashed check. Caller holds k.mu. Returns ErrCrashed when dead.
func (k *KV) step(op string, key []byte) error {
	k.ops++
	if k.crashed {
		return ErrCrashed
	}
	if !k.disabled && k.f.StallEvery > 0 && k.f.Stall > 0 && k.ops%uint64(k.f.StallEvery) == 0 {
		k.record(Event{Seq: k.ops, Op: op, Kind: "stall", Key: keyByte(key)})
		k.mu.Unlock()
		time.Sleep(k.f.Stall)
		k.mu.Lock()
		if k.crashed { // crashed while stalled
			return ErrCrashed
		}
	}
	return nil
}

// readFault decides a read-path fault. Caller holds k.mu.
func (k *KV) readFault(op string, key []byte) error {
	if !k.disabled && k.f.ReadErrRate > 0 && k.rng.Float64() < k.f.ReadErrRate {
		k.record(Event{Seq: k.ops, Op: op, Kind: "ioerr", Key: keyByte(key)})
		return ErrInjected
	}
	return nil
}

// Get implements db.KV.
func (k *KV) Get(key []byte) ([]byte, bool, error) {
	k.mu.Lock()
	if err := k.step("get", key); err != nil {
		k.mu.Unlock()
		return nil, false, err
	}
	if err := k.readFault("get", key); err != nil {
		k.mu.Unlock()
		return nil, false, err
	}
	rot := !k.disabled && k.f.CorruptRate > 0 && k.rng.Float64() < k.f.CorruptRate
	var flip int
	if rot {
		flip = k.rng.Int()
		k.record(Event{Seq: k.ops, Op: "get", Kind: "bitrot", Key: keyByte(key)})
	}
	k.mu.Unlock()

	v, ok, err := k.inner.Get(key)
	if err != nil || !ok || !rot || len(v) == 0 {
		return v, ok, err
	}
	// Bit-rot: flip one deterministic bit in a copy (the inner store's
	// slice must stay pristine — the rot is on the read path).
	rotted := append([]byte(nil), v...)
	bit := flip % (len(rotted) * 8)
	rotted[bit/8] ^= 1 << (bit % 8)
	return rotted, true, nil
}

// Has implements db.KV.
func (k *KV) Has(key []byte) (bool, error) {
	k.mu.Lock()
	if err := k.step("has", key); err != nil {
		k.mu.Unlock()
		return false, err
	}
	if err := k.readFault("has", key); err != nil {
		k.mu.Unlock()
		return false, err
	}
	k.mu.Unlock()
	return k.inner.Has(key)
}

// writeFault decides the fate of the next write operation. Caller holds
// k.mu. Returns ErrCrashed for an armed crash landing on this write,
// ErrInjected for a transient failure, nil to proceed (and counts the
// write as applied).
func (k *KV) writeFault(op string, key []byte) error {
	if k.crashAtWrite != 0 && k.writeOps+1 >= k.crashAtWrite {
		k.setCrashed(op)
		return ErrCrashed
	}
	if !k.disabled && k.f.WriteErrRate > 0 && k.rng.Float64() < k.f.WriteErrRate {
		k.record(Event{Seq: k.ops, Op: op, Kind: "ioerr", Key: keyByte(key)})
		return ErrInjected
	}
	k.writeOps++
	return nil
}

// Put implements db.KV.
func (k *KV) Put(key, value []byte) error {
	k.mu.Lock()
	if err := k.step("put", key); err != nil {
		k.mu.Unlock()
		return err
	}
	if err := k.writeFault("put", key); err != nil {
		k.mu.Unlock()
		return err
	}
	k.mu.Unlock()
	return k.inner.Put(key, value)
}

// Delete implements db.KV.
func (k *KV) Delete(key []byte) error {
	k.mu.Lock()
	if err := k.step("delete", key); err != nil {
		k.mu.Unlock()
		return err
	}
	if err := k.writeFault("delete", key); err != nil {
		k.mu.Unlock()
		return err
	}
	k.mu.Unlock()
	return k.inner.Delete(key)
}

// Stats implements db.KV.
func (k *KV) Stats() db.Stats { return k.inner.Stats() }

// NewBatch implements db.KV. The batch buffers operations locally so a
// torn Write can apply a strict prefix through the inner store.
func (k *KV) NewBatch() db.Batch { return &faultBatch{kv: k} }

type faultOp struct {
	key   []byte
	value []byte
	del   bool
}

type faultBatch struct {
	kv   *KV
	ops  []faultOp
	size int
}

func (b *faultBatch) Put(key, value []byte) {
	b.ops = append(b.ops, faultOp{key: append([]byte(nil), key...), value: value})
	b.size += len(value)
}

func (b *faultBatch) Delete(key []byte) {
	b.ops = append(b.ops, faultOp{key: append([]byte(nil), key...), del: true})
}

func (b *faultBatch) Len() int       { return len(b.ops) }
func (b *faultBatch) ValueSize() int { return b.size }

func (b *faultBatch) Reset() {
	b.ops = b.ops[:0]
	b.size = 0
}

// Write implements db.Batch. Outcomes, in decision order:
//
//  1. crashed store: ErrCrashed, nothing applied;
//  2. armed crash landing inside this batch: the operations before the
//     crash point are applied individually (the tear), then ErrCrashed;
//  3. transient write error: ErrInjected, nothing applied;
//  4. torn-batch roll: a random strict prefix applies, then the store
//     crashes (ErrCrashed);
//  5. otherwise the whole batch applies atomically via the inner batch.
func (b *faultBatch) Write() error {
	k := b.kv
	if len(b.ops) == 0 {
		return nil
	}

	k.mu.Lock()
	if err := k.step("batch", nil); err != nil {
		k.mu.Unlock()
		return err
	}
	// Armed crash landing within this batch's span?
	tearAt := -1
	if k.crashAtWrite != 0 && k.writeOps+uint64(len(b.ops)) >= k.crashAtWrite {
		tearAt = int(k.crashAtWrite - k.writeOps - 1) // ops applied before the tear
		if tearAt < 0 {
			tearAt = 0
		}
	} else if !k.disabled && k.f.WriteErrRate > 0 && k.rng.Float64() < k.f.WriteErrRate {
		k.record(Event{Seq: k.ops, Op: "batch", Kind: "ioerr"})
		k.mu.Unlock()
		return ErrInjected
	} else if !k.disabled && k.f.TornBatchRate > 0 && k.rng.Float64() < k.f.TornBatchRate {
		tearAt = k.rng.Intn(len(b.ops)) // strict prefix: at least one op lost
	}

	if tearAt >= 0 {
		applied := 0
		var err error
		for _, op := range b.ops[:tearAt] {
			if op.del {
				err = k.inner.Delete(op.key)
			} else {
				err = k.inner.Put(op.key, op.value)
			}
			if err != nil {
				break
			}
			applied++
		}
		k.writeOps += uint64(applied)
		k.record(Event{Seq: k.ops, Op: "batch", Kind: "torn", TornAt: applied})
		k.setCrashed("batch")
		k.mu.Unlock()
		return ErrCrashed
	}

	k.writeOps += uint64(len(b.ops))
	k.mu.Unlock()

	inner := k.inner.NewBatch()
	for _, op := range b.ops {
		if op.del {
			inner.Delete(op.key)
		} else {
			inner.Put(op.key, op.value)
		}
	}
	if err := inner.Write(); err != nil {
		return err
	}
	b.Reset()
	return nil
}
