// Package faultfile wraps a dbfs.FS with deterministic, seeded fault
// injection on the file API — the storage counterpart of
// internal/faultnet's network faults, and the one storage fault seam:
// every fault-injected store is diskdb over a dbfs medium (OSFS or MemFS)
// under this layer. It breaks the physical medium underneath diskdb:
// short writes that leave a prefix of an append on the medium, torn
// writes that additionally kill the process model, fsync errors,
// read-path bit-rot, and a crash armed to land on an exact append —
// which is what the crash-offset sweeps and the chaos suites drive.
//
// The paper's observations are stories about nodes surviving hostile
// events: O2's two-day recovery and O5's months-long replay window both
// presume ledgers that keep serving a consistent view through crashes
// and flaky disks. Faults is the one plan behind -storage-faults.
//
// Every fault decision comes from a seeded RNG and is journaled, so a
// chaos run that finds a bug replays bit-for-bit. Expected reactions in
// the stack above:
//
//   - ErrInjected failures (read errors, clean write errors, short
//     writes, sync errors) are transient: diskdb truncate-repairs its
//     tail where needed and db.Retry re-attempts.
//   - Bit-rot flips one bit in a read's buffer; diskdb's record checksum
//     catches it and the re-read is clean.
//   - Torn writes and armed crashes (CrashAtWriteOp) leave a prefix of
//     the append durable and crash the store: every later operation
//     fails with ErrCrashed until Reopen, after which diskdb.Open
//     replays the segments and truncates the torn tail.
package faultfile

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"forkwatch/internal/db/dbfs"
)

// ErrInjected is the transient injected I/O failure. db.IsTransient
// returns true for it, so db.Retry will re-attempt the operation.
var ErrInjected error = injectedError{}

type injectedError struct{}

func (injectedError) Error() string   { return "faultfile: injected I/O error" }
func (injectedError) Transient() bool { return true }

// ErrCrashed reports an operation against a crashed medium. It is not
// transient: the caller must Reopen the FS and rebuild the store on top
// (diskdb.Open runs the recovery scan).
var ErrCrashed = errors.New("faultfile: medium crashed (reopen and recover)")

// Faults is the injection plan. The zero value injects nothing.
type Faults struct {
	// Seed drives every fault decision; equal seeds reproduce runs.
	Seed int64
	// ReadErrRate is the probability a ReadAt fails with ErrInjected.
	ReadErrRate float64
	// WriteErrRate is the probability an Append fails cleanly (nothing
	// written) with ErrInjected, or a Sync fails with ErrInjected.
	WriteErrRate float64
	// ShortWriteRate is the probability an Append writes only a random
	// strict prefix and fails with ErrInjected (a transient torn write
	// the store is expected to truncate-repair).
	ShortWriteRate float64
	// TornWriteRate is the probability an Append writes only a random
	// strict prefix and crashes the medium (power loss mid-write).
	TornWriteRate float64
	// CorruptRate is the probability a successful ReadAt flips one bit in
	// the returned buffer (read-path bit-rot).
	CorruptRate float64
	// StallEvery injects a Stall-long sleep into every Nth operation
	// (0 disables).
	StallEvery int
	// Stall is the duration of an injected stall.
	Stall time.Duration
}

// Enabled reports whether the plan injects any fault at all.
func (f Faults) Enabled() bool {
	return f.ReadErrRate > 0 || f.WriteErrRate > 0 || f.ShortWriteRate > 0 ||
		f.TornWriteRate > 0 || f.CorruptRate > 0 || (f.StallEvery > 0 && f.Stall > 0)
}

// journalCap bounds the recorded fault decisions.
const journalCap = 4096

// Event is one journaled fault decision.
type Event struct {
	// Seq is the global operation counter when the fault fired.
	Seq uint64
	// Op names the operation ("read", "append", "sync", "truncate",
	// "open", "reopen").
	Op string
	// Kind names the fault ("ioerr", "short", "torn", "bitrot", "stall",
	// "crashed", "reopen").
	Kind string
	// Name is the affected file.
	Name string
	// TornAt is, for short/torn appends, how many bytes landed.
	TornAt int
}

// FS decorates an inner dbfs.FS with the fault plan. Safe for
// concurrent use; fault decisions are serialized so runs stay
// deterministic given a deterministic operation order.
type FS struct {
	inner dbfs.FS
	f     Faults

	mu           sync.Mutex
	rng          *rand.Rand
	ops          uint64 // all operations, for StallEvery
	writeOps     uint64 // applied appends, for CrashAtWriteOp
	crashAtWrite uint64 // crash when writeOps would reach this (0 = unarmed)
	crashed      bool
	disabled     bool // random injection paused (crashes still honoured)
	journal      []Event
}

// Wrap decorates inner with the fault plan.
func Wrap(inner dbfs.FS, f Faults) *FS {
	return &FS{inner: inner, f: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// SetEnabled toggles the random fault plan. While disabled, no stalls,
// errors, tears or bit-rot are injected and the seeded RNG is not drawn,
// but explicit crashes (Crash, CrashAtWriteOp) and an already-crashed
// state are still honoured. Harnesses disable injection around recovery
// scans (diskdb.Open) and bootstrap writes that have no recovery path,
// then re-enable at a deterministic point so runs stay reproducible.
func (s *FS) SetEnabled(on bool) {
	s.mu.Lock()
	s.disabled = !on
	s.mu.Unlock()
}

// Journal returns a copy of the recorded fault decisions.
func (s *FS) Journal() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.journal...)
}

// JournalLen counts the recorded fault decisions.
func (s *FS) JournalLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.journal)
}

// WriteOps returns the number of appends fully applied so far. Use with
// CrashAtWriteOp to land a crash on an exact append.
func (s *FS) WriteOps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeOps
}

// CrashAtWriteOp arms a crash: the n-th append of the medium's life (see
// WriteOps for the current count) tears — a random strict prefix lands —
// and the medium dies. Every subsequent operation fails with ErrCrashed
// until Reopen. diskdb appends a batch group in chunks of at most 1 MiB,
// so a larger group counts one append per chunk.
func (s *FS) CrashAtWriteOp(n uint64) {
	s.mu.Lock()
	s.crashAtWrite = n
	s.mu.Unlock()
}

// Crash kills the medium immediately.
func (s *FS) Crash() {
	s.mu.Lock()
	s.setCrashed("crash", "")
	s.mu.Unlock()
}

// Crashed reports whether the medium is dead.
func (s *FS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Reopen models the process restarting over the same medium: the crash
// flag clears and any armed crash point is disarmed. Whatever torn bytes
// the crash left on the files are still there — running recovery
// (diskdb.Open) is the caller's job.
func (s *FS) Reopen() {
	s.mu.Lock()
	s.crashed = false
	s.crashAtWrite = 0
	s.record(Event{Seq: s.ops, Op: "reopen", Kind: "reopen"})
	s.mu.Unlock()
}

// record appends ev to the bounded journal. Caller holds s.mu.
func (s *FS) record(ev Event) {
	if len(s.journal) < journalCap {
		s.journal = append(s.journal, ev)
	}
}

// setCrashed marks the medium dead. Caller holds s.mu.
func (s *FS) setCrashed(op, name string) {
	if !s.crashed {
		s.crashed = true
		s.record(Event{Seq: s.ops, Op: op, Kind: "crashed", Name: name})
	}
}

// step runs the common per-operation bookkeeping: stall injection and the
// crashed check. Caller holds s.mu. Returns ErrCrashed when dead.
func (s *FS) step(op, name string) error {
	s.ops++
	if s.crashed {
		return ErrCrashed
	}
	if !s.disabled && s.f.StallEvery > 0 && s.f.Stall > 0 && s.ops%uint64(s.f.StallEvery) == 0 {
		s.record(Event{Seq: s.ops, Op: op, Kind: "stall", Name: name})
		s.mu.Unlock()
		time.Sleep(s.f.Stall)
		s.mu.Lock()
		if s.crashed { // crashed while stalled
			return ErrCrashed
		}
	}
	return nil
}

// Open implements dbfs.FS. Opening draws no random faults (there is no
// repair path for a store that cannot even open its files); only the
// crashed state gates it.
func (s *FS) Open(name string) (dbfs.File, error) {
	s.mu.Lock()
	err := s.step("open", name)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: s, name: name, inner: f}, nil
}

// List implements dbfs.FS.
func (s *FS) List() ([]string, error) {
	s.mu.Lock()
	err := s.step("list", "")
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.inner.List()
}

// file decorates one segment file with the plan.
type file struct {
	fs    *FS
	name  string
	inner dbfs.File
}

// ReadAt implements dbfs.File with injected read errors and bit-rot.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	s := f.fs
	s.mu.Lock()
	if err := s.step("read", f.name); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if !s.disabled && s.f.ReadErrRate > 0 && s.rng.Float64() < s.f.ReadErrRate {
		s.record(Event{Seq: s.ops, Op: "read", Kind: "ioerr", Name: f.name})
		s.mu.Unlock()
		return 0, ErrInjected
	}
	rot := !s.disabled && s.f.CorruptRate > 0 && s.rng.Float64() < s.f.CorruptRate
	var flip int
	if rot {
		flip = s.rng.Int()
		s.record(Event{Seq: s.ops, Op: "read", Kind: "bitrot", Name: f.name})
	}
	s.mu.Unlock()

	n, err := f.inner.ReadAt(p, off)
	if err == nil && rot && n > 0 {
		// The rot is on the read path: the medium's bytes stay pristine,
		// only this buffer is damaged.
		bit := flip % (n * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

// Append implements dbfs.File. Outcomes, in decision order:
//
//  1. crashed medium: ErrCrashed, nothing written;
//  2. armed crash landing on this append: a random strict prefix lands,
//     then the medium dies (ErrCrashed);
//  3. clean write error: ErrInjected, nothing written;
//  4. short write: a random strict prefix lands, ErrInjected (transient —
//     the store truncate-repairs and retries);
//  5. torn write: a random strict prefix lands and the medium dies;
//  6. otherwise the append goes through and counts as applied.
func (f *file) Append(p []byte) (int, error) {
	s := f.fs
	s.mu.Lock()
	if err := s.step("append", f.name); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	tear := -1
	var tearErr error
	if s.crashAtWrite != 0 && s.writeOps+1 >= s.crashAtWrite {
		tear = s.prefix(len(p))
		tearErr = ErrCrashed
		s.record(Event{Seq: s.ops, Op: "append", Kind: "torn", Name: f.name, TornAt: tear})
		s.setCrashed("append", f.name)
	} else if !s.disabled && s.f.WriteErrRate > 0 && s.rng.Float64() < s.f.WriteErrRate {
		s.record(Event{Seq: s.ops, Op: "append", Kind: "ioerr", Name: f.name})
		s.mu.Unlock()
		return 0, ErrInjected
	} else if !s.disabled && s.f.ShortWriteRate > 0 && s.rng.Float64() < s.f.ShortWriteRate {
		tear = s.prefix(len(p))
		tearErr = ErrInjected
		s.record(Event{Seq: s.ops, Op: "append", Kind: "short", Name: f.name, TornAt: tear})
	} else if !s.disabled && s.f.TornWriteRate > 0 && s.rng.Float64() < s.f.TornWriteRate {
		tear = s.prefix(len(p))
		tearErr = ErrCrashed
		s.record(Event{Seq: s.ops, Op: "append", Kind: "torn", Name: f.name, TornAt: tear})
		s.setCrashed("append", f.name)
	}
	if tear < 0 {
		s.writeOps++
	}
	s.mu.Unlock()

	if tear >= 0 {
		if tear > 0 {
			if n, err := f.inner.Append(p[:tear]); err != nil {
				return n, err // the real medium failed under the injected tear
			}
			f.inner.Sync() // the torn prefix is durable, like a real power cut
		}
		return tear, tearErr
	}
	return f.inner.Append(p)
}

// prefix picks how many bytes of an n-byte append land before a tear: a
// strict prefix, possibly empty. Caller holds s.mu.
func (s *FS) prefix(n int) int {
	if n <= 1 {
		return 0
	}
	return s.rng.Intn(n)
}

// Sync implements dbfs.File with injected fsync errors (WriteErrRate).
func (f *file) Sync() error {
	s := f.fs
	s.mu.Lock()
	if err := s.step("sync", f.name); err != nil {
		s.mu.Unlock()
		return err
	}
	if !s.disabled && s.f.WriteErrRate > 0 && s.rng.Float64() < s.f.WriteErrRate {
		s.record(Event{Seq: s.ops, Op: "sync", Kind: "ioerr", Name: f.name})
		s.mu.Unlock()
		return ErrInjected
	}
	s.mu.Unlock()
	return f.inner.Sync()
}

// Truncate implements dbfs.File. Truncation is the repair action, so it
// draws no random faults — only the crashed state gates it (a dead
// process cannot repair anything).
func (f *file) Truncate(size int64) error {
	s := f.fs
	s.mu.Lock()
	err := s.step("truncate", f.name)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Size implements dbfs.File.
func (f *file) Size() (int64, error) {
	s := f.fs
	s.mu.Lock()
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return f.inner.Size()
}

// Close implements dbfs.File. Always delegates — releasing a handle is
// legal even on a crashed medium (the reopen path closes the old store's
// files before rebuilding).
func (f *file) Close() error { return f.inner.Close() }
