package sim

import (
	"fmt"
	"io"
	"math"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
)

// ChainStore is one partition's storage stack, built by OpenChainStore —
// the only place the layers are put together. Outermost to innermost:
//
//	fault-free:         backend
//	faults or crashes:  Retry -> diskdb -> faultfile -> MemFS | OSFS
//
// backend is db.Open(sc.Storage) with the partition's ChainDataDir. The
// chain over the store stages its commits (chain.Blockchain.Flush lands
// them): on a fault-free store the engine flushes once a day, so a day's
// block commits are one backend write. Crash recovery needs every block
// durable before the next is mined, so a store with StorageFaults (or an
// engine store with Crashes) is diskdb over the scenario's medium — the
// partition's directory on disk, a MemFS on mem — with the faultfile
// layer between them and a Retry on top that absorbs its transient
// errors, and the engine flushes it after every block.
//
// Injection pause rule: random injection is off while the stack is built,
// while the caller writes genesis (which has no recovery path — the
// caller switches it on right after with EnableFaults), and around every
// diskdb recovery scan (which must see the medium's true bytes). It
// resumes at those fixed points, never on a timer, so a fault timeline
// replays from its seed.
type ChainStore struct {
	kv      db.KV         // outermost layer
	backend db.KV         // innermost KV; owns the medium's handles
	faults  *faultfile.FS // nil unless the store injects faults or crashes
	// attempts is the Retry budget, see retryAttempts.
	attempts int
	// dead marks a store WAL recovery could not repair. The chain stops
	// mining — the partition behaves as if its miners departed — while
	// day events keep flowing.
	dead bool
}

// OpenChainStore opens partition idx's store from sc.Storage (the disk
// backend keeps each chain in its own subdirectory of DataDir): the bare
// backend, every write durable when it returns, or — for a scenario with
// StorageFaults, or an engine's (engine true) with Crashes — the fault
// stack (see ChainStore), with injection off until EnableFaults(true).
func OpenChainStore(sc *Scenario, idx int, name string, engine bool) (*ChainStore, error) {
	cfg := sc.Storage
	disk := cfg.Backend == db.BackendDisk
	if disk {
		cfg.DataDir = ChainDataDir(cfg.DataDir, name)
	}
	f := sc.StorageFaults
	f.Seed += int64(idx) // decorrelate the chains' fault streams
	s := &ChainStore{}
	var err error
	if f.Enabled() || engine && len(sc.Crashes) > 0 {
		var medium dbfs.FS
		if disk {
			medium, err = dbfs.NewOSFS(cfg.DataDir)
		} else {
			medium = dbfs.NewMemFS()
		}
		if err == nil {
			s.faults = faultfile.Wrap(medium, f)
			s.faults.SetEnabled(false)
			s.attempts = retryAttempts(f)
			err = s.openDisk()
		}
	} else if s.backend, err = db.Open(cfg); err == nil {
		s.kv = s.backend
	}
	if err != nil {
		return nil, fmt.Errorf("sim: opening %s store: %w", name, err)
	}
	return s, nil
}

// openDisk runs diskdb.Open over the (possibly torn) medium — the
// recovery scan truncates a torn tail and drops uncommitted batch groups —
// closing the handles of the store it replaces.
func (s *ChainStore) openDisk() error {
	if c, ok := s.backend.(io.Closer); ok {
		c.Close()
	}
	d, err := diskdb.Open(s.faults, diskdb.Options{})
	if err != nil {
		return err
	}
	s.backend, s.kv = d, db.NewRetry(d, s.attempts)
	return nil
}

// retryExhaustion bounds the probability that one storage operation fails
// every attempt of its Retry budget on transient faults alone.
const retryExhaustion = 1e-16

// retryAttempts derives the Retry budget from the fault plan: the smallest
// n with p^n <= retryExhaustion, p being the chance one attempt meets a
// transient fault. A read fails at the read-error rate or its checksum at
// the bit-rot rate; a durable append draws the write-error rate twice
// (Append, then Sync) and the short-write rate once.
func retryAttempts(f faultfile.Faults) int {
	readOK := (1 - f.ReadErrRate) * (1 - f.CorruptRate)
	writeOK := (1 - f.WriteErrRate) * (1 - f.WriteErrRate) * (1 - f.ShortWriteRate)
	p := 1 - min(readOK, writeOK)
	if p <= 0 || p >= 1 {
		return 1 // nothing to absorb, or nothing a retry could absorb
	}
	return int(math.Ceil(math.Log(retryExhaustion) / math.Log(p)))
}

// KV returns the outermost layer, the store the chain persists through.
// It changes when a crashed disk stack restarts.
func (s *ChainStore) KV() db.KV { return s.kv }

// Close releases the medium. Writes the chain still stages are dropped,
// not flushed: only a run cut short mid-day has any, and its archive then
// ends at the last whole day. Idempotent, as diskdb's Close is.
func (s *ChainStore) Close() error {
	if c, ok := s.backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// CloseStores closes every non-nil stack; the first error wins.
func CloseStores(stores []*ChainStore) error {
	var first error
	for _, s := range stores {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// EnableFaults toggles random fault injection (armed crashes stay armed).
// A store opens with it off; its opener switches it on once genesis is
// durable. A no-op on a fault-free store.
func (s *ChainStore) EnableFaults(on bool) {
	if s.faults != nil {
		s.faults.SetEnabled(on)
	}
}

// crashed reports whether the store's medium is dead and needs a restart.
func (s *ChainStore) crashed() bool { return s.faults != nil && s.faults.Crashed() }

// armCrash arms the medium so the (op+1)-th append from now tears and
// kills the store.
func (s *ChainStore) armCrash(op uint64) {
	s.faults.CrashAtWriteOp(s.faults.WriteOps() + 1 + op)
}

// journalLen counts the fault events the medium has recorded.
func (s *ChainStore) journalLen() int {
	if s.faults == nil {
		return 0
	}
	return s.faults.JournalLen()
}

// restart models the node process coming back up over the surviving
// medium: the crash flag clears and diskdb reopens with injection paused
// around the recovery scan. The chain-level WAL redo on top (chain.Open
// over KV()) is the caller's job.
func (s *ChainStore) restart() error {
	s.faults.Reopen()
	s.faults.SetEnabled(false)
	defer s.faults.SetEnabled(true)
	return s.openDisk()
}
